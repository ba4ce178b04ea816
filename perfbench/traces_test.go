package main

import (
	"math"
	"os"
	"testing"
)

func TestModuleOf(t *testing.T) {
	for frame, want := range map[string]string{
		"silenttracker/internal/sim.(*Engine).fire":                                                          "sim",
		"silenttracker/internal/channel.(*Link).Measure (inline)":                                            "channel",
		"silenttracker/internal/campaign/storehttp.Handler.func2":                                            "storehttp",
		"silenttracker/internal/campaign.(*Engine).RunCtx.func4":                                             "campaign",
		"silenttracker/st.(*Session).Run":                                                                    "st",
		"silenttracker/internal/runner.Map[go.shape.struct { silenttracker/internal/campaign.m int }].func1": "runner",
		"main.(*tally).record":                                                                               "bench",
		"silenttracker/internal/trace.(*Recorder).Add":                                                       "", // not a listed module
		"runtime.mallocgc":        "",
		"net/http.(*conn).serve":  "",
		"encoding/json.Unmarshal": "",
	} {
		if got := moduleOf(frame); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", frame, got, want)
		}
	}
}

func TestFoldTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shares, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	// 1.60s of samples: each block's value goes to its innermost module
	// frame, or to runtime when it has none.
	want := map[string]float64{
		"sim":       0.50 / 1.6,
		"channel":   0.30 / 1.6,
		"runtime":   (0.20 + 0.05) / 1.6, // GC worker; net/http below any handler
		"storehttp": 0.10 / 1.6,
		"bench":     (0.10 + 0.15) / 1.6, // the timing adapter's write; the byte compare
		"runner":    0.10 / 1.6,
		"core":      0.05 / 1.6, // an unlisted package is charged to its caller
		"st":        0.05 / 1.6,
	}
	sum := 0.0
	for _, m := range cpuModules {
		sum += shares[m]
		if math.Abs(shares[m]-want[m]) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", m, shares[m], want[m])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(shares) != len(cpuModules) {
		t.Errorf("got %d shares for %d modules", len(shares), len(cpuModules))
	}
}
