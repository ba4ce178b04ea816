package main

import (
	"context"
	"path/filepath"
	"testing"

	"silenttracker/st"
)

// A sweep that renders exactly its reference passes; flipping a single
// reference byte turns the same sweep into a failed operation.
func TestFlippedReferenceByteFails(t *testing.T) {
	ctx := context.Background()
	cfg := config{load: 1}
	wl := workload{campaigns: []string{"fig2a"}, quick: true}
	dir := filepath.Join(t.TempDir(), "store")
	fx, err := openCold(cfg, wl, dir, wl.campaigns, st.WithCacheDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	sw := fx.sweep(ctx)
	refs, err := warmReread(ctx, cfg, wl, dir)
	fx.close()
	if err != nil {
		t.Fatal(err)
	}

	var clean tally
	if !sw.check(&clean, wl.campaigns, refs) || clean.failedFrac() != 0 {
		t.Fatalf("clean sweep failed (failed_frac %v)", clean.failedFrac())
	}

	ref := refs["fig2a"]
	ref[len(ref)/2] ^= 1
	var flipped tally
	if sw.check(&flipped, wl.campaigns, refs) {
		t.Error("sweep with a flipped reference byte passed")
	}
	if attempted, failed := flipped.counts(); attempted != 1 || failed != 1 || flipped.failedFrac() != 1 {
		t.Fatalf("flipped reference byte: %d of %d failed (failed_frac %v), want 1 of 1",
			failed, attempted, flipped.failedFrac())
	}
}
