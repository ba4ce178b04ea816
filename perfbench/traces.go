package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// cpuModules are the layers a CPU-profile sample can be charged to. A
// sample goes to the innermost frame of its stack that belongs to one of
// the repository's modules or to the benchmark itself ("bench": its
// clients, checks and boundary timers); standard-library and runtime
// frames are charged to their nearest such caller. Samples with no such
// frame at all — GC, the scheduler, netpoll, net/http plumbing below any
// handler — go to "runtime". Packages of the repository not listed here
// are charged like the standard library.
var cpuModules = append(slices.Clone(repoModules), "bench", "runtime")

// repoModules are the repository's packages a sample can be charged to,
// by the last element of their import path.
var repoModules = []string{
	"sim", "channel", "antenna", "mobility", "geom", "mathx", "rng", "phy",
	"mac", "ue", "cell", "core", "beamsurfer", "handover", "netem", "world",
	"scenario", "stats", "experiments", "campaign", "runner", "st", "serve",
	"dist", "obs", "storehttp",
}

// moduleOf names the module a symbolised frame belongs to, or "" for a
// frame charged to its caller.
func moduleOf(frame string) string {
	frame = strings.TrimSuffix(frame, " (inline)")
	if strings.HasPrefix(frame, "main.") {
		return "bench"
	}
	// The package path ends at the first '.' after the last '/', once any
	// type-parameter list (which may hold other paths) is cut off.
	if i := strings.IndexByte(frame, '['); i >= 0 {
		frame = frame[:i]
	}
	pkg := frame
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	}
	rest, ok := strings.CutPrefix(pkg, "silenttracker/")
	if !ok {
		return ""
	}
	name := rest[strings.LastIndexByte(rest, '/')+1:]
	if (rest == "st" || strings.HasPrefix(rest, "internal/")) && slices.Contains(repoModules, name) {
		return name
	}
	return ""
}

// foldTraces reads the text of `go tool pprof -traces` and returns each
// module's share of the profile's sample time. Every sample is charged to
// exactly one module, so the shares sum to 1.
func foldTraces(r io.Reader) (map[string]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	charged := make(map[string]time.Duration)
	var total, value time.Duration
	module := ""
	inBlock, header := false, false
	flush := func() {
		if !inBlock {
			return
		}
		if module == "" {
			module = "runtime"
		}
		charged[module] += value
		total += value
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock, header, module, value = true, true, "", 0
			continue
		}
		if !inBlock || strings.TrimSpace(line) == "" {
			continue
		}
		frame := strings.TrimSpace(line)
		if header {
			fields := strings.Fields(frame)
			if len(fields) < 2 {
				return nil, fmt.Errorf("traces: malformed sample line %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("traces: sample value %q: %v", fields[0], err)
			}
			value, header = d, false
			frame = strings.TrimSpace(strings.TrimPrefix(frame, fields[0]))
		}
		if module == "" {
			module = moduleOf(frame)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traces: %w", err)
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("traces: profile holds no samples")
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		shares[m] = float64(charged[m]) / float64(total)
	}
	return shares, nil
}

// profileShares folds a CPU profile file through `go tool pprof -traces`.
func profileShares(ctx context.Context, profile string) (map[string]float64, error) {
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return foldTraces(bytes.NewReader(out))
}
