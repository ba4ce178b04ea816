package st_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"silenttracker/internal/campaign"
	"silenttracker/internal/campaign/storehttp"
	"silenttracker/st"
)

// crossBackendExperiments are the sweeps the byte-identity gate runs —
// a scenario campaign, the highway mobility variant, and a paper
// figure, so the gate covers distinct renderers and trial bodies.
var crossBackendExperiments = []string{"urban", "highway", "fig2a"}

// renderAll runs each experiment through the client and renders its
// text table, returning name → bytes.
func renderAll(t *testing.T, client *st.Client) map[string]string {
	t.Helper()
	out := make(map[string]string, len(crossBackendExperiments))
	for _, name := range crossBackendExperiments {
		res, err := client.Run(context.Background(), name)
		if err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := st.RenderText(&buf, res); err != nil {
			t.Fatalf("render %s: %v", name, err)
		}
		out[name] = buf.String()
	}
	return out
}

// TestCrossBackendByteIdentity is the store invariant, end to end:
// cacheless, disk-cached, mem+disk tiered, and remote-backed clients
// must all render byte-identical quick tables. This is the same gate
// CI runs against the stcampaign binary.
func TestCrossBackendByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three experiments four times")
	}

	remote := httptest.NewServer(storehttp.Handler(campaign.NewMemStore(16 << 20)))
	defer remote.Close()

	configs := []struct {
		name string
		opts []st.Option
	}{
		{"cacheless", nil},
		{"disk", []st.Option{st.WithCacheDir(t.TempDir() + "/disk")}},
		{"mem+disk", []st.Option{st.WithMemCache(16 << 20), st.WithCacheDir(t.TempDir() + "/tiered")}},
		{"remote", []st.Option{st.WithRemoteCache(remote.URL)}},
	}

	var baseline map[string]string
	for _, cfg := range configs {
		client, err := st.NewClient(append([]st.Option{st.WithQuick()}, cfg.opts...)...)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		got := renderAll(t, client)
		client.Close()
		if baseline == nil {
			baseline = got
			continue
		}
		for _, name := range crossBackendExperiments {
			if got[name] != baseline[name] {
				t.Errorf("%s backend rendered different bytes for %s:\n--- %s ---\n%s--- cacheless ---\n%s",
					cfg.name, name, cfg.name, got[name], baseline[name])
			}
		}
	}
}

// TestWarmTieredRunComputesNothing reruns one experiment against a
// warm mem+disk store: zero units computed, identical bytes, and the
// per-tier stats attribute every unit to the mem tier.
func TestWarmTieredRunComputesNothing(t *testing.T) {
	client, err := st.NewClient(st.WithQuick(),
		st.WithMemCache(16<<20), st.WithCacheDir(t.TempDir()+"/cache"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	cold, err := client.Run(context.Background(), "fig2a")
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Computed != cold.Stats.Units {
		t.Fatalf("cold run: %v", cold.Stats)
	}
	warm, err := client.Run(context.Background(), "fig2a")
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Computed != 0 || warm.Stats.Cached != warm.Stats.Units {
		t.Fatalf("warm run: %v", warm.Stats)
	}
	if len(warm.Stats.Store) != 2 || warm.Stats.Store[0].Tier != "mem" || warm.Stats.Store[1].Tier != "disk" {
		t.Fatalf("warm store tiers = %+v, want [mem disk]", warm.Stats.Store)
	}
	if warm.Stats.Store[0].Hits != int64(warm.Stats.Units) {
		t.Errorf("warm mem tier = %+v, want every unit served hot", warm.Stats.Store[0])
	}

	var coldText, warmText bytes.Buffer
	if err := st.RenderText(&coldText, cold); err != nil {
		t.Fatal(err)
	}
	if err := st.RenderText(&warmText, warm); err != nil {
		t.Fatal(err)
	}
	if coldText.String() != warmText.String() {
		t.Error("cold and warm tiered runs rendered different bytes")
	}
}

// TestEvictionForcedRecomputeSameBytes runs against only a 1-byte
// mem budget (a thrashing 1-entry cache, no disk): the rerun
// recomputes units, evictions are reported, and the bytes still match.
func TestEvictionForcedRecomputeSameBytes(t *testing.T) {
	client, err := st.NewClient(st.WithQuick(), st.WithMemCache(1))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	first, err := client.Run(context.Background(), "fig2a")
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.Run(context.Background(), "fig2a")
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Computed == 0 {
		t.Fatal("1-entry mem store served a fully warm run; eviction did not bite")
	}
	if len(second.Stats.Store) != 1 || second.Stats.Store[0].Tier != "mem" || second.Stats.Store[0].Evicted == 0 {
		t.Errorf("thrashing store stats = %+v, want mem tier with evictions", second.Stats.Store)
	}

	var a, b bytes.Buffer
	if err := st.RenderText(&a, first); err != nil {
		t.Fatal(err)
	}
	if err := st.RenderText(&b, second); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("eviction changed rendered bytes")
	}
}

// TestStatsStoreRoundTrip: per-tier counters must survive a Result
// JSON round trip — they are part of the structured result a caller
// may ship elsewhere.
func TestStatsStoreRoundTrip(t *testing.T) {
	client, err := st.NewClient(st.WithQuick(), st.WithCacheDir(t.TempDir()+"/cache"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	res, err := client.Run(context.Background(), "fig2a")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Store) != 1 || res.Stats.Store[0].Tier != "disk" {
		t.Fatalf("stats store = %+v, want the disk tier", res.Stats.Store)
	}
	if res.Stats.Store[0].Misses != int64(res.Stats.Units) {
		t.Errorf("cold disk tier = %+v, want misses=%d", res.Stats.Store[0], res.Stats.Units)
	}

	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back st.Result
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Stats, res.Stats) {
		t.Errorf("stats did not round-trip:\ngot  %+v\nwant %+v", back.Stats, res.Stats)
	}
}

// mapStore is a minimal custom st.Store: what a third-party backend
// (redis client, cloud bucket) would implement.
type mapStore struct {
	mu           sync.Mutex
	m            map[string]st.Metrics
	hits, misses int64
	closed       bool
}

func (s *mapStore) Get(hash string) (st.Metrics, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.m[hash]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return m, ok
}

func (s *mapStore) Put(hash string, m st.Metrics) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[hash] = m
	return nil
}

func (s *mapStore) Stats() []st.TierStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return []st.TierStats{{Tier: "custom", Hits: s.hits, Misses: s.misses}}
}

func (s *mapStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// TestWithStoreCustomBackend plugs a custom Store into the client:
// the engine must read and write through it, report its tier in the
// run stats, and forward Close.
func TestWithStoreCustomBackend(t *testing.T) {
	store := &mapStore{m: map[string]st.Metrics{}}
	client, err := st.NewClient(st.WithQuick(), st.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}

	cold, err := client.Run(context.Background(), "fig2a")
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Stats.Store) != 1 || cold.Stats.Store[0].Tier != "custom" {
		t.Fatalf("custom tier missing from stats: %+v", cold.Stats.Store)
	}
	warm, err := client.Run(context.Background(), "fig2a")
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Computed != 0 || warm.Stats.Store[0].Hits != int64(warm.Stats.Units) {
		t.Fatalf("warm run through custom store: %+v", warm.Stats)
	}

	// A session that disables the store must not touch it.
	before := len(store.m)
	if _, err := client.Run(context.Background(), "fig2a", st.WithoutCache()); err != nil {
		t.Fatal(err)
	}
	if len(store.m) != before {
		t.Error("WithoutCache session wrote to the custom store")
	}

	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if !store.closed {
		t.Error("client Close did not forward to the custom store")
	}
}

// TestWithChaosValidation pins the build-time failure modes: a typo'd
// profile, a profile whose target tier is not configured, and a chaos
// wrap over a custom backend must all fail at NewClient, not mid-run.
func TestWithChaosValidation(t *testing.T) {
	if _, err := st.NewClient(st.WithMemCache(1<<20), st.WithChaos(1, "no-such-profile")); err == nil {
		t.Error("unknown chaos profile accepted")
	}
	if _, err := st.NewClient(st.WithCacheDir(t.TempDir()), st.WithChaos(1, "corrupt-mem")); err == nil {
		t.Error("corrupt-mem accepted without a mem tier")
	}
	if _, err := st.NewClient(st.WithMemCache(1<<20), st.WithChaos(1, "flaky-remote")); err == nil {
		t.Error("flaky-remote accepted without a remote tier")
	}
	custom := &mapStore{m: map[string]st.Metrics{}}
	if _, err := st.NewClient(st.WithStore(custom), st.WithChaos(1, "corrupt-mem")); err == nil {
		t.Error("chaos wrap over a custom store accepted")
	}
	if len(st.ChaosProfiles()) == 0 {
		t.Error("ChaosProfiles is empty")
	}
}

// TestChaosCorruptMemByteIdentity runs a sweep through a mem tier
// that damages ~a third of its reads: the corrupted entries must
// silently recompute — corrupt counter up, computed units up, rendered
// bytes unmoved.
func TestChaosCorruptMemByteIdentity(t *testing.T) {
	plain, err := st.NewClient(st.WithQuick())
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := plain.Run(context.Background(), "fig2a")
	if err != nil {
		t.Fatal(err)
	}

	client, err := st.NewClient(st.WithQuick(),
		st.WithMemCache(16<<20), st.WithChaos(7, "corrupt-mem"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	cold, err := client.Run(context.Background(), "fig2a")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := client.Run(context.Background(), "fig2a")
	if err != nil {
		t.Fatal(err)
	}

	for name, res := range map[string]*st.Result{"cold": cold, "warm": warm} {
		var got, want bytes.Buffer
		if err := st.RenderText(&got, res); err != nil {
			t.Fatal(err)
		}
		if err := st.RenderText(&want, baseline); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s run under corrupt-mem chaos changed rendered bytes", name)
		}
	}
	ts := warm.Stats.Store[0]
	if ts.Corrupt == 0 {
		t.Errorf("warm run saw no injected corruption: %+v", ts)
	}
	if warm.Stats.Computed == 0 {
		t.Error("warm run recomputed nothing despite corruption")
	}
	if warm.Stats.Computed+warm.Stats.Cached != warm.Stats.Units {
		t.Errorf("computed+cached != units: %+v", warm.Stats)
	}
}

// TestWithRemoteRetryFlakyRemote runs a sweep against a healthy
// storehttp server through client-side flaky-remote chaos with the
// retry stack armed: the run must succeed with identical bytes, the
// retry counter must show recovery work, and the same chaos seed must
// reproduce the same counters on a fresh server at -j 1.
func TestWithRemoteRetryFlakyRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sweep three times against live servers")
	}
	plain, err := st.NewClient(st.WithQuick())
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := plain.Run(context.Background(), "fig2a")
	if err != nil {
		t.Fatal(err)
	}

	policy := st.DefaultRetryPolicy()
	policy.BaseDelay, policy.MaxDelay = time.Millisecond, 2*time.Millisecond
	runOnce := func() *st.Result {
		t.Helper()
		srv := httptest.NewServer(storehttp.Handler(campaign.NewMemStore(16 << 20)))
		defer srv.Close()
		client, err := st.NewClient(st.WithQuick(), st.WithWorkers(1),
			st.WithRemoteCache(srv.URL), st.WithRemoteRetry(policy),
			st.WithChaos(11, "flaky-remote"))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		res, err := client.Run(context.Background(), "fig2a")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := runOnce()
	var got, want bytes.Buffer
	if err := st.RenderText(&got, first); err != nil {
		t.Fatal(err)
	}
	if err := st.RenderText(&want, baseline); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("flaky-remote run changed rendered bytes")
	}
	ts := first.Stats.Store[0]
	if ts.Retries == 0 {
		t.Errorf("retry stack recorded no retries against a 25%%-flaky remote: %+v", ts)
	}
	if ts.Errors == 0 {
		t.Errorf("no injected errors surfaced in the tier stats: %+v", ts)
	}

	// Same seed, fresh server, serial engine: the whole counter row
	// must replay exactly.
	second := runOnce()
	if second.Stats.Store[0] != ts {
		t.Errorf("chaos counters did not replay:\nfirst  %+v\nsecond %+v", ts, second.Stats.Store[0])
	}
}

// renderBoth renders a result the two ways stcampaign prints it: the
// -json document and the text table.
func renderBoth(t *testing.T, res *st.Result) (jsonOut, text string) {
	t.Helper()
	var j, x bytes.Buffer
	if err := st.RenderJSON(&j, res); err != nil {
		t.Fatal(err)
	}
	if err := st.RenderCampaignText(&x, res); err != nil {
		t.Fatal(err)
	}
	return j.String(), x.String()
}

// TestColdWarmRenderAllCampaigns is the store's decode gate over every
// campaign: one cold quick run writes through mem, disk and a remote
// storehttp tier; then warm runs read each unit back from the mem tier
// (mem+disk), the disk tier alone, and the remote tier alone. Each
// warm run must compute nothing and render the -json document and the
// text table byte for byte as the cold run did. The -json form prints
// every raw vector, so it catches what the tables fold away: an empty
// vector must read back as the null the cold run printed, not [].
func TestColdWarmRenderAllCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all eleven campaigns four times")
	}
	remote := httptest.NewServer(storehttp.Handler(campaign.NewMemStore(256 << 20)))
	defer remote.Close()
	dir := t.TempDir() + "/cache"

	all, err := st.NewClient(st.WithQuick(), st.WithMemCache(256<<20),
		st.WithCacheDir(dir), st.WithRemoteCache(remote.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer all.Close()
	disk, err := st.NewClient(st.WithQuick(), st.WithCacheDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	rem, err := st.NewClient(st.WithQuick(), st.WithRemoteCache(remote.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	ctx := context.Background()
	for _, in := range all.Experiments() {
		cold, err := all.Run(ctx, in.Name)
		if err != nil {
			t.Fatalf("cold %s: %v", in.Name, err)
		}
		if cold.Stats.Computed != cold.Stats.Units {
			t.Fatalf("cold %s was not cold: %v", in.Name, cold.Stats)
		}
		coldJSON, coldText := renderBoth(t, cold)

		for _, warm := range []struct {
			backend string
			client  *st.Client
			tier    string // the tier that must serve every unit
		}{
			{"mem+disk", all, "mem"},
			{"disk", disk, "disk"},
			{"remote", rem, "remote"},
		} {
			res, err := warm.client.Run(ctx, in.Name)
			if err != nil {
				t.Fatalf("warm %s via %s: %v", in.Name, warm.backend, err)
			}
			if res.Stats.Computed != 0 || res.Stats.Store[0].Tier != warm.tier ||
				res.Stats.Store[0].Hits != int64(res.Stats.Units) {
				t.Fatalf("warm %s via %s not served by %s: %v %+v",
					in.Name, warm.backend, warm.tier, res.Stats, res.Stats.Store)
			}
			gotJSON, gotText := renderBoth(t, res)
			if gotJSON != coldJSON {
				t.Errorf("warm %s via %s: -json differs from the cold run", in.Name, warm.backend)
			}
			if gotText != coldText {
				t.Errorf("warm %s via %s: text differs from the cold run:\n--- warm ---\n%s--- cold ---\n%s",
					in.Name, warm.backend, gotText, coldText)
			}
		}
	}
}
