package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// tally counts the operations a run attempted and those that failed: an
// operation fails when it errors, is refused or cancelled, or renders
// bytes that differ from its reference.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
}

// maxReported bounds the failures described on standard error.
const maxReported = 5

// record accounts one operation: err is its error, if any; otherwise got
// is compared with want.
func (t *tally) record(what string, got, want []byte, err error) bool {
	if err == nil && !bytes.Equal(got, want) {
		err = fmt.Errorf("rendered %d bytes differing from the %d-byte reference at byte %d",
			len(got), len(want), firstDiff(got, want))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if t.failed <= maxReported {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
	return false
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// failedFrac is failed over attempted operations.
func (t *tally) failedFrac() float64 {
	a, f := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// goldenBench reads the committed stbench rendering of a campaign at
// quick fidelity and registry seeds. It is read at run time, so a change
// that regenerates the goldens changes the reference with them.
func goldenBench(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join("st", "testdata", "golden", "bench_"+name+".txt"))
}
