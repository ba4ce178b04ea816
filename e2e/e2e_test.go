// Package e2e tests the command-line surface end to end: it builds
// the real binaries once per run and exercises them the way CI and a
// user would — list, describe, run (cold and warm against the result
// cache), and clean, asserting stdout stays byte-identical where the
// campaign engine promises it.
package e2e

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"silenttracker/internal/campaign"
)

// binDir holds the binaries TestMain builds once for the whole run.
var binDir string

// repoRoot is the module root (the parent of this package's dir).
var repoRoot string

// campaignNames is the full registry surface both CLIs must expose.
var campaignNames = []string{
	"fig2a", "fig2c", "mobility", "threshold", "hysteresis",
	"baseline", "patterns", "codebook", "urban", "highway", "hotspot",
}

func TestMain(m *testing.M) {
	var err error
	repoRoot, err = filepath.Abs("..")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	binDir, err = os.MkdirTemp("", "st-e2e-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	for _, pkg := range []string{"stcampaign", "stbench", "stserve", "stworker"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, pkg), "./cmd/"+pkg)
		cmd.Dir = repoRoot
		if out, err := cmd.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "e2e: building %s: %v\n%s", pkg, err, out)
			os.RemoveAll(binDir)
			os.Exit(1)
		}
	}
	// os.Exit skips defers, so clean up explicitly before exiting.
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

// run executes a built binary and returns stdout, stderr, and the
// exit code.
func run(t *testing.T, bin string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	cmd.Dir = t.TempDir() // never let a stray .stcache land in the repo
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v", bin, args, err)
	}
	return stdout.String(), stderr.String(), code
}

func TestCampaignList(t *testing.T) {
	stdout, _, code := run(t, "stcampaign", "list")
	if code != 0 {
		t.Fatalf("list exited %d", code)
	}
	for _, name := range campaignNames {
		if !strings.Contains(stdout, name+" ") {
			t.Errorf("list output is missing %q:\n%s", name, stdout)
		}
	}
}

func TestCampaignDescribe(t *testing.T) {
	stdout, _, code := run(t, "stcampaign", "describe", "urban")
	if code != 0 {
		t.Fatalf("describe exited %d", code)
	}
	for _, want := range []string{"campaign:   urban", "axis:       ues", "epoch:      urban/v3", "grid:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("describe output is missing %q:\n%s", want, stdout)
		}
	}
	_, stderr, code := run(t, "stcampaign", "describe", "no-such-campaign")
	if code == 0 || !strings.Contains(stderr, "unknown campaign") {
		t.Errorf("describe of unknown campaign: exit %d, stderr %q", code, stderr)
	}
}

// TestCampaignRunColdWarm is the CLI-level cache acceptance test: a
// warm re-run must compute zero units and emit byte-identical stdout,
// in both table and JSON form.
func TestCampaignRunColdWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real campaigns")
	}
	for _, mode := range []struct {
		name string
		args []string
	}{
		{"json", []string{"-json"}},
		{"table", nil},
		// Tiered: mem LRU hot tier in front of the disk cache. The
		// warm run (fresh process, cold mem) must be served entirely
		// by the disk tier with identical bytes.
		{"tiered", []string{"-mem-cache", "1048576"}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			cacheDir := filepath.Join(t.TempDir(), "cache")
			args := append([]string{"run", "-quick", "-trials", "1", "-j", "8", "-cache-dir", cacheDir},
				append(mode.args, "hotspot")...)
			cold, coldErr, code := run(t, "stcampaign", args...)
			if code != 0 {
				t.Fatalf("cold run exited %d: %s", code, coldErr)
			}
			if !strings.Contains(coldErr, " cached=0") {
				t.Errorf("cold run stats unexpected: %q", coldErr)
			}
			warm, warmErr, code := run(t, "stcampaign", args...)
			if code != 0 {
				t.Fatalf("warm run exited %d: %s", code, warmErr)
			}
			if cold != warm {
				t.Errorf("cold and warm stdout differ:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
			}
			if !strings.Contains(warmErr, " computed=0 ") {
				t.Errorf("warm run recomputed units: %q", warmErr)
			}
		})
	}
}

func TestCampaignRunUnknownPattern(t *testing.T) {
	_, stderr, code := run(t, "stcampaign", "run", "-no-cache", "zzz-no-match")
	if code != 2 || !strings.Contains(stderr, "no campaign matches") {
		t.Errorf("exit %d, stderr %q", code, stderr)
	}
}

// TestCampaignClean covers both sides of the safety contract: a real
// cache directory is removed; a directory the cache does not own is
// refused and left untouched.
func TestCampaignClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real campaigns")
	}
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	if _, stderr, code := run(t, "stcampaign", "run", "-quick", "-trials", "1",
		"-cache-dir", cacheDir, "hotspot"); code != 0 {
		t.Fatalf("seeding run exited %d: %s", code, stderr)
	}
	if _, _, code := run(t, "stcampaign", "clean", "-cache-dir", cacheDir); code != 0 {
		t.Fatalf("clean of a real cache failed")
	}
	if _, err := os.Stat(cacheDir); !os.IsNotExist(err) {
		t.Errorf("cache dir still exists after clean")
	}

	// The refuse-to-clean path: a non-empty directory without the
	// cache marker must survive, and clean must fail loudly.
	precious := filepath.Join(dir, "precious")
	if err := os.MkdirAll(precious, 0o755); err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(precious, "data.txt")
	if err := os.WriteFile(data, []byte("not a cache"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code := run(t, "stcampaign", "clean", "-cache-dir", precious)
	if code == 0 || !strings.Contains(stderr, "not a campaign cache") {
		t.Fatalf("clean of unmarked dir: exit %d, stderr %q", code, stderr)
	}
	if _, err := os.Stat(data); err != nil {
		t.Errorf("clean of unmarked dir destroyed data: %v", err)
	}
}

func TestBenchList(t *testing.T) {
	stdout, _, code := run(t, "stbench", "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, name := range []string{"fig2a", "fig2c", "mobility", "ablation-threshold",
		"ablation-hysteresis", "baseline", "ablation-pattern", "ablation-codebook",
		"urban", "highway", "hotspot"} {
		if !strings.Contains(stdout, name+"\n") {
			t.Errorf("-list output is missing %q:\n%s", name, stdout)
		}
	}
}

func TestBenchUnknownExperiment(t *testing.T) {
	_, stderr, code := run(t, "stbench", "-exp", "no-such-experiment")
	if code != 2 || !strings.Contains(stderr, "unknown experiment") {
		t.Errorf("exit %d, stderr %q", code, stderr)
	}
}

// TestCampaignRunSIGINT is the cancellation acceptance test: SIGINT a
// cold run mid-flight — the process must exit 130 without rendering
// partial tables, every completed unit must be in the cache, and the
// warm rerun must compute exactly the remainder while emitting the
// same bytes as an uninterrupted run.
func TestCampaignRunSIGINT(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real campaigns")
	}
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")

	// Cold run at -j 1 (serial, so units land in the cache one at a
	// time); interrupt as soon as the first unit is persisted.
	cmd := exec.Command(filepath.Join(binDir, "stcampaign"),
		"run", "-quick", "-j", "1", "-cache-dir", cacheDir, "urban")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for countCacheEntries(t, cacheDir) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no cache entry appeared within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	sigErr := cmd.Process.Signal(os.Interrupt)
	err := cmd.Wait()
	if err == nil || sigErr != nil {
		// The run finished in the window between the last cache poll
		// and signal delivery — nothing to assert about cancellation.
		t.Skipf("cold run finished before the interrupt landed (signal err: %v)", sigErr)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 130 {
		t.Fatalf("interrupted run: err %v (stderr %q), want exit 130", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("interrupted run rendered partial tables:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "run cancelled") {
		t.Errorf("interrupted run stderr: %q", stderr.String())
	}
	entries := countCacheEntries(t, cacheDir)
	if entries == 0 {
		t.Fatal("interrupted run persisted no units")
	}

	// Warm rerun: computed == remainder, cached == what the cancelled
	// run persisted.
	warmOut, warmErr, code := run(t, "stcampaign",
		"run", "-quick", "-j", "1", "-cache-dir", cacheDir, "urban")
	if code != 0 {
		t.Fatalf("warm rerun exited %d: %s", code, warmErr)
	}
	var units, computed, cached int
	if _, err := fmt.Sscanf(lastLine(warmErr), "urban: units=%d computed=%d cached=%d",
		&units, &computed, &cached); err != nil {
		t.Fatalf("cannot parse warm stats from %q: %v", warmErr, err)
	}
	if entries >= units {
		t.Skipf("interrupted run finished all %d units before the signal landed", units)
	}
	if cached != entries || computed != units-entries {
		t.Errorf("warm rerun: units=%d computed=%d cached=%d, want cached=%d computed=%d",
			units, computed, cached, entries, units-entries)
	}

	// Byte-identity with an uninterrupted cacheless run.
	refOut, _, code := run(t, "stcampaign", "run", "-quick", "-j", "8", "-no-cache", "urban")
	if code != 0 {
		t.Fatalf("reference run exited %d", code)
	}
	if warmOut != refOut {
		t.Errorf("warm-after-cancel stdout differs from a clean run:\n--- warm ---\n%s--- ref ---\n%s", warmOut, refOut)
	}
}

// countCacheEntries counts the trial units persisted in the cache at
// dir, through the cache's own index. A directory the run has not
// created yet holds none.
func countCacheEntries(t testing.TB, dir string) int {
	t.Helper()
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return 0
	}
	c, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n, err := c.Entries()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// lastLine returns the final non-empty line of s.
func lastLine(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return lines[len(lines)-1]
}

// TestCLIFlagErrors is the table-driven gate over both CLIs' flag and
// usage error paths: each must print a one-line diagnostic to stderr
// and exit 2, never panic or exit 0.
func TestCLIFlagErrors(t *testing.T) {
	cases := []struct {
		bin    string
		args   []string
		stderr string // required substring of the diagnostic
	}{
		{"stbench", []string{"-exp", "no-such-experiment"}, "unknown experiment"},
		{"stbench", []string{"-run", "("}, "bad -run pattern"},
		{"stbench", []string{"-run", "zzz-no-match"}, "no experiment matches"},
		{"stcampaign", []string{"run", "-no-cache", "("}, "bad pattern"},
		{"stcampaign", []string{"run", "-no-cache", "zzz-no-match"}, "no campaign matches"},
		{"stcampaign", []string{"run", "-no-cache", "a", "b"}, "usage: stcampaign run"},
		{"stcampaign", []string{"describe", "no-such-campaign"}, "unknown campaign"},
		{"stcampaign", []string{"describe"}, "usage: stcampaign describe"},
		{"stcampaign", []string{"frobnicate"}, "unknown subcommand"},
		{"stcampaign", []string{}, "usage: stcampaign"},
	}
	for _, tc := range cases {
		t.Run(tc.bin+"_"+strings.Join(tc.args, "_"), func(t *testing.T) {
			stdout, stderr, code := run(t, tc.bin, tc.args...)
			if code != 2 {
				t.Errorf("exit %d, want 2 (stderr %q)", code, stderr)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.stderr)
			}
			if stdout != "" {
				t.Errorf("error path wrote to stdout: %q", stdout)
			}
			// The diagnostic must be short — at most a line or two plus
			// the usage block, never a stack trace or a table dump.
			if n := strings.Count(strings.TrimRight(stderr, "\n"), "\n"); n > 12 {
				t.Errorf("diagnostic is %d lines", n+1)
			}
		})
	}
}

// TestBenchRepeatable: two invocations of the same experiment at
// different -j are byte-identical — the CLI-level determinism gate.
func TestBenchRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	a, _, code := run(t, "stbench", "-exp", "hotspot", "-quick", "-j", "1")
	if code != 0 {
		t.Fatalf("run exited %d", code)
	}
	b, _, code := run(t, "stbench", "-exp", "hotspot", "-quick", "-j", "8")
	if code != 0 {
		t.Fatalf("run exited %d", code)
	}
	if a != b {
		t.Errorf("-j 1 and -j 8 stdout differ:\n--- j1 ---\n%s--- j8 ---\n%s", a, b)
	}
}
