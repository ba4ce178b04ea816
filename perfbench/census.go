package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"silenttracker/st"
)

// unitCensus times every unit of the workload's campaigns once, serially,
// through Session.ComputeUnits on a store-less session, with the heap
// allocations each one makes. Serial execution keeps the allocation
// deltas attributable to one unit.
type unitCensus struct {
	all          []time.Duration
	byCampaign   map[string][]time.Duration
	allocs, byts uint64
}

func census(ctx context.Context, cfg config, campaigns []string, quick bool) (*unitCensus, error) {
	client, err := st.NewClient(cfg.campaignOptions(quick, 1)...)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	c := &unitCensus{byCampaign: make(map[string][]time.Duration)}
	var before, after runtime.MemStats
	for _, name := range campaigns {
		sess, err := client.Session(name)
		if err != nil {
			return nil, err
		}
		for i := range len(sess.Units()) {
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			_, err := sess.ComputeUnits(ctx, []int{i})
			d := time.Since(t0)
			runtime.ReadMemStats(&after)
			if err != nil {
				return nil, fmt.Errorf("census: %s unit %d: %w", name, i, err)
			}
			c.all = append(c.all, d)
			c.byCampaign[name] = append(c.byCampaign[name], d)
			c.allocs += after.Mallocs - before.Mallocs
			c.byts += after.TotalAlloc - before.TotalAlloc
		}
	}
	return c, nil
}

// metrics adds the census's experiments.* per-layer metrics to m.
func (c *unitCensus) metrics(m metrics) {
	var sum time.Duration
	for _, d := range c.all {
		sum += d
	}
	m["experiments.unit.n"] = float64(len(c.all))
	m["experiments.unit.sum_s"] = sum.Seconds()
	m["experiments.unit.p50_ms"] = percentileMS(c.all, 50)
	m["experiments.unit.p99_ms"] = percentileMS(c.all, 99)
	m["experiments.unit.max_ms"] = percentileMS(c.all, 100)
	m["experiments.unit.allocs"] = float64(c.allocs)
	m["experiments.unit.alloc_kb"] = float64(c.byts) / 1024
	for name, ds := range c.byCampaign {
		m["experiments.unit_p50_ms."+name] = percentileMS(ds, 50)
		m["experiments.unit_max_ms."+name] = percentileMS(ds, 100)
	}
}
