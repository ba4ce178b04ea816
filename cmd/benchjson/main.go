// Command benchjson converts `go test -bench` output (read on stdin)
// into a small JSON document: one record per benchmark with ns/op,
// B/op and allocs/op. CI pipes the bench job through it to produce
// BENCH_<pr>.json, the machine-readable point of the perf trajectory;
// the raw text stays benchstat-compatible.
//
// Repeated lines of one benchmark (`go test -count N`) fold into one
// record: every value is the median over the runs, and ns/op also
// keeps the runs' min and max, the spread a later point is judged
// against.
//
// Usage:
//
//	go test -bench . -benchmem -count 5 | benchjson -o bench.json
//	go test -bench . -benchmem | benchjson -pr 3     # writes BENCH_3.json
//	go test -bench . -benchmem | benchjson -pr auto  # next free BENCH_<n>.json
//	go test -bench . -benchmem -count 5 | benchjson -compare BENCH_7.json
//
// With -pr, the chosen filename is printed on stdout so CI scripts
// can pick it up without replicating the naming convention; `-pr
// auto` scans the working directory for existing BENCH_<n>.json files
// and appends the next point, so the trajectory grows across PRs with
// no workflow edits.
//
// With -compare, nothing is written: benchjson prints each
// benchmark's median ns/op beside the given point's and the change,
// and flags a move as outside the spread when the two points' min–max
// ranges do not overlap (a single-run point's range is its value). It
// reports; its exit status does not depend on the deltas.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Bench is one benchmark's record: the median of its result lines.
type Bench struct {
	Name string `json:"name"`
	// Runs is how many result lines were folded; Iterations sums their
	// iteration counts. Points recorded before repeats carry neither
	// Runs nor the ns/op range.
	Runs       int     `json:"runs,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	NsMin      float64 `json:"ns_per_op_min,omitempty"`
	NsMax      float64 `json:"ns_per_op_max,omitempty"`
	BPerOp     int64   `json:"b_per_op,omitempty"`
	// AllocsPerOp is -1 when the lines carried no allocs/op column.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Extra carries custom b.ReportMetric values (success%, latency_ms…).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the emitted document.
type Report struct {
	Goos       string  `json:"goos,omitempty"`
	Goarch     string  `json:"goarch,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
}

// parse consumes go test -bench output and extracts results, one
// record per benchmark in order of first appearance, repeated lines
// folded by fold. Records are keyed by name alone, so benchmark names
// must be unique across the packages of one run. Lines it does not
// understand are ignored, so mixed test output is fine.
func parse(r io.Reader) (Report, error) {
	var rep Report
	runs := map[string][]Bench{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		b, ok := parseLine(line)
		if !ok {
			continue
		}
		if _, seen := runs[b.Name]; !seen {
			order = append(order, b.Name)
		}
		runs[b.Name] = append(runs[b.Name], b)
	}
	for _, name := range order {
		rep.Benchmarks = append(rep.Benchmarks, fold(runs[name]))
	}
	return rep, sc.Err()
}

// parseLine parses one benchmark result line.
func parseLine(line string) (Bench, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Bench{}, false
	}
	f := strings.Fields(line)
	if len(f) < 4 {
		return Bench{}, false
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		name = name[:i] // strip the -GOMAXPROCS suffix
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	b := Bench{Name: strings.TrimPrefix(name, "Benchmark"), Iterations: iters, AllocsPerOp: -1}
	// The remainder is value-unit pairs.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		default:
			if b.Extra == nil {
				b.Extra = map[string]float64{}
			}
			b.Extra[unit] = v
		}
	}
	return b, true
}

// fold merges one benchmark's result lines into a record of medians,
// with the ns/op range over the lines.
func fold(lines []Bench) Bench {
	out := Bench{Name: lines[0].Name, Runs: len(lines)}
	var ns, bs, allocs []float64
	extra := map[string][]float64{}
	for _, b := range lines {
		out.Iterations += b.Iterations
		ns = append(ns, b.NsPerOp)
		bs = append(bs, float64(b.BPerOp))
		allocs = append(allocs, float64(b.AllocsPerOp))
		for unit, v := range b.Extra {
			extra[unit] = append(extra[unit], v)
		}
	}
	out.NsPerOp = median(ns)
	out.NsMin, out.NsMax = slices.Min(ns), slices.Max(ns)
	out.BPerOp = int64(median(bs))
	out.AllocsPerOp = int64(median(allocs))
	for unit, vs := range extra {
		if out.Extra == nil {
			out.Extra = map[string]float64{}
		}
		out.Extra[unit] = median(vs)
	}
	return out
}

// median returns the middle value of vs (the mean of the middle two
// for an even count).
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// span returns the ns/op range a record was measured over; a record
// without one (a single run, or a point from before repeats) spans
// just its value.
func (b Bench) span() (lo, hi float64) {
	if b.Runs < 2 {
		return b.NsPerOp, b.NsPerOp
	}
	return b.NsMin, b.NsMax
}

// compare writes, for every benchmark of cur, its median ns/op beside
// prev's and the relative change, flagging moves whose ranges do not
// overlap; benchmarks only prev has are listed as gone.
func compare(w io.Writer, prev, cur Report) {
	old := map[string]Bench{}
	for _, b := range prev.Benchmarks {
		old[b.Name] = b
	}
	fmt.Fprintf(w, "%-32s %14s %14s %8s\n", "benchmark", "prev ns/op", "ns/op", "delta")
	for _, b := range cur.Benchmarks {
		p, ok := old[b.Name]
		if !ok {
			fmt.Fprintf(w, "%-32s %14s %14s %8s\n", b.Name, "-", nsString(b.NsPerOp), "new")
			continue
		}
		delete(old, b.Name)
		delta := "n/a"
		if p.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(b.NsPerOp-p.NsPerOp)/p.NsPerOp)
		}
		flag := ""
		plo, phi := p.span()
		clo, chi := b.span()
		if chi < plo || clo > phi {
			flag = "  outside spread"
		}
		fmt.Fprintf(w, "%-32s %14s %14s %8s%s\n", b.Name, nsString(p.NsPerOp), nsString(b.NsPerOp), delta, flag)
	}
	for _, p := range prev.Benchmarks {
		if _, gone := old[p.Name]; gone {
			fmt.Fprintf(w, "%-32s %14s %14s %8s\n", p.Name, nsString(p.NsPerOp), "-", "gone")
		}
	}
}

// nsString formats an ns/op value: whole nanoseconds from 100 up, two
// decimals below.
func nsString(v float64) string {
	if v >= 100 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}

// benchPat matches trajectory files; the capture is the PR number.
var benchPat = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// prFile resolves the -pr flag to a trajectory filename: a number N
// gives BENCH_N.json, "auto"/"next" scans dir for the highest
// existing point and returns the one after it.
func prFile(pr, dir string) (string, error) {
	if n, err := strconv.Atoi(pr); err == nil && n >= 0 {
		return fmt.Sprintf("BENCH_%d.json", n), nil
	}
	if pr != "auto" && pr != "next" {
		return "", fmt.Errorf("-pr wants a number, auto, or next; got %q", pr)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	next := 0
	for _, e := range entries {
		if m := benchPat.FindStringSubmatch(e.Name()); m != nil {
			if n, err := strconv.Atoi(m[1]); err == nil && n >= next {
				next = n + 1
			}
		}
	}
	return fmt.Sprintf("BENCH_%d.json", next), nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	pr := flag.String("pr", "", "write BENCH_<n>.json for this PR number; auto = next free index")
	against := flag.String("compare", "", "print median ns/op deltas against this BENCH_<n>.json instead of writing a point")
	flag.Parse()
	if *out != "" && *pr != "" || *against != "" && (*out != "" || *pr != "") {
		fmt.Fprintln(os.Stderr, "benchjson: -o, -pr and -compare are mutually exclusive")
		os.Exit(2)
	}
	announce := false
	if *pr != "" {
		name, err := prFile(*pr, ".")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		*out = name
		announce = true
	}

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if *against != "" {
		var prev Report
		buf, err := os.ReadFile(*against)
		if err == nil {
			err = json.Unmarshal(buf, &prev)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		compare(os.Stdout, prev, rep)
		return
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if _, err := w.Write(buf); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if announce {
		fmt.Println(filepath.Base(*out))
	}
}
