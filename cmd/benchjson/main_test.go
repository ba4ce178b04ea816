package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: silenttracker
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig2aSearchNarrow 	   13417	    182400 ns/op	         8.835 dwells/search	        96.85 success%	   15316 B/op	     306 allocs/op
BenchmarkFig2cWalk-8       	    3789	    660084 ns/op	   29969 B/op	     808 allocs/op
BenchmarkEngineSchedule    	182071084	        13.18 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	silenttracker	18.009s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("header: %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "Fig2aSearchNarrow" || b.Iterations != 13417 || b.NsPerOp != 182400 ||
		b.BPerOp != 15316 || b.AllocsPerOp != 306 {
		t.Errorf("first bench: %+v", b)
	}
	if b.Extra["success%"] != 96.85 || b.Extra["dwells/search"] != 8.835 {
		t.Errorf("custom metrics: %+v", b.Extra)
	}
	if rep.Benchmarks[1].Name != "Fig2cWalk" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", rep.Benchmarks[1].Name)
	}
	if rep.Benchmarks[2].AllocsPerOp != 0 || rep.Benchmarks[2].NsPerOp != 13.18 {
		t.Errorf("third bench: %+v", rep.Benchmarks[2])
	}
}

func TestPRFile(t *testing.T) {
	dir := t.TempDir()
	// Explicit number wins regardless of directory contents.
	if got, err := prFile("7", dir); err != nil || got != "BENCH_7.json" {
		t.Errorf("prFile(7) = %q, %v", got, err)
	}
	// Empty trajectory starts at 0.
	if got, err := prFile("auto", dir); err != nil || got != "BENCH_0.json" {
		t.Errorf("prFile(auto, empty) = %q, %v", got, err)
	}
	for _, name := range []string{"BENCH_0.json", "BENCH_2.json", "BENCH_10.json", "BENCH_x.json", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// auto appends after the highest existing point, ignoring noise.
	if got, err := prFile("auto", dir); err != nil || got != "BENCH_11.json" {
		t.Errorf("prFile(auto) = %q, %v", got, err)
	}
	if got, err := prFile("next", dir); err != nil || got != "BENCH_11.json" {
		t.Errorf("prFile(next) = %q, %v", got, err)
	}
	if _, err := prFile("bogus", dir); err == nil {
		t.Error("prFile(bogus) should fail")
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	rep, err := parse(strings.NewReader("hello\nBenchmarkBroken abc\nok\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Errorf("parsed %d benchmarks from noise", len(rep.Benchmarks))
	}
}

// repeated is three runs of two benchmarks, as `go test -count 3`
// prints them: interleaved per benchmark, GOMAXPROCS suffix on.
const repeated = `goos: linux
BenchmarkFig2cWalk-2   	    1000	    700000 ns/op	   30000 B/op	     380 allocs/op
BenchmarkFig2cWalk-2   	    1100	    650000 ns/op	   30100 B/op	     377 allocs/op
BenchmarkFig2cWalk-2   	     900	    800000 ns/op	   30200 B/op	     379 allocs/op
BenchmarkUrbanUnit-2   	       1	  80000000 ns/op	       4.0 ho/ue	 1200000 B/op	   12000 allocs/op
BenchmarkUrbanUnit-2   	       1	  90000000 ns/op	       6.0 ho/ue	 1200000 B/op	   12000 allocs/op
BenchmarkUrbanUnit-2   	       1	  70000000 ns/op	       5.0 ho/ue	 1200000 B/op	   12000 allocs/op
`

func TestParseRepeatedLines(t *testing.T) {
	rep, err := parse(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d records, want one per benchmark (2)", len(rep.Benchmarks))
	}
	w := rep.Benchmarks[0]
	if w.Name != "Fig2cWalk" || w.Runs != 3 || w.Iterations != 3000 {
		t.Errorf("walk record: %+v", w)
	}
	if w.NsPerOp != 700000 || w.NsMin != 650000 || w.NsMax != 800000 {
		t.Errorf("walk ns/op median %v [%v, %v], want 700000 [650000, 800000]", w.NsPerOp, w.NsMin, w.NsMax)
	}
	if w.BPerOp != 30100 || w.AllocsPerOp != 379 {
		t.Errorf("walk B/op %d allocs/op %d, want medians 30100 and 379", w.BPerOp, w.AllocsPerOp)
	}
	u := rep.Benchmarks[1]
	if u.Name != "UrbanUnit" || u.NsPerOp != 80000000 || u.Extra["ho/ue"] != 5 {
		t.Errorf("urban record: %+v", u)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
}

func TestCompare(t *testing.T) {
	prev := Report{Benchmarks: []Bench{
		// A single-run point from before repeats: its spread is its value.
		{Name: "Fig2cWalk", NsPerOp: 744386},
		{Name: "Gone", NsPerOp: 12.5},
		{Name: "Steady", Runs: 5, NsPerOp: 1000, NsMin: 900, NsMax: 1100},
		{Name: "Faster", Runs: 5, NsPerOp: 1000, NsMin: 950, NsMax: 1050},
	}}
	cur := Report{Benchmarks: []Bench{
		{Name: "Fig2cWalk", Runs: 5, NsPerOp: 700000, NsMin: 650000, NsMax: 800000},
		{Name: "Steady", Runs: 5, NsPerOp: 1050, NsMin: 1000, NsMax: 1200},
		{Name: "Faster", Runs: 5, NsPerOp: 500, NsMin: 480, NsMax: 520},
		{Name: "UrbanUnit", Runs: 5, NsPerOp: 8e7, NsMin: 7e7, NsMax: 9e7},
	}}
	var buf strings.Builder
	compare(&buf, prev, cur)
	want := `benchmark                            prev ns/op          ns/op    delta
Fig2cWalk                                744386         700000    -6.0%
Steady                                     1000           1050    +5.0%
Faster                                     1000            500   -50.0%  outside spread
UrbanUnit                                     -       80000000      new
Gone                                      12.50              -     gone
`
	if got := buf.String(); got != want {
		t.Errorf("compare output:\n%s\nwant:\n%s", got, want)
	}
}
