package experiments

import (
	"fmt"
	"io"
	"strconv"

	"silenttracker/internal/antenna"
	"silenttracker/internal/campaign"
	"silenttracker/internal/geom"
	"silenttracker/internal/stats"
)

// CodebookRow is one row of the codebook-size sweep: how directional
// search latency scales with the number of receive beams. The paper's
// introduction cites 1.28 s for 5G initial search — exactly a 64-beam
// codebook at the 20 ms sweep period; this experiment shows where that
// number comes from and what the paper's 18-beam mobile pays instead.
type CodebookRow struct {
	Beams   int
	HPBWDeg float64
	Success stats.Rate
	Dwells  stats.Sample // over successful searches
	MsP50   float64      // derived: dwells × sweep period
	MsMax   float64
	FullMs  float64 // worst-case exhaustive scan (beams × sweep period)
}

// CodebookOpts configures the sweep.
type CodebookOpts struct {
	Sizes   []int
	Trials  int
	Seed    int64
	Workers int // trial parallelism (0 = GOMAXPROCS); never changes results
}

// DefaultCodebookOpts returns the full sweep, ending at the 5G-like
// 64-beam configuration.
func DefaultCodebookOpts() CodebookOpts {
	return CodebookOpts{
		Sizes:  []int{6, 12, 18, 36, 64},
		Trials: 60,
		Seed:   8000,
	}
}

// CodebookCampaign declares the codebook-size sweep as a campaign
// spec: one axis (the number of receive beams), the Fig. 2a search
// trial with a generated ring codebook as the unit body.
func CodebookCampaign(opts CodebookOpts) *campaign.Spec {
	sizes := make([]string, len(opts.Sizes))
	for i, n := range opts.Sizes {
		sizes[i] = strconv.Itoa(n)
	}
	return &campaign.Spec{
		Name:        "codebook",
		Description: "codebook-size sweep: search latency scaling toward the 5G 64-beam, 1.28 s scan",
		Axes: []campaign.Axis{
			{Name: "beams", Values: sizes},
		},
		Trials:     opts.Trials,
		Seed:       opts.Seed,
		SeedStride: 7919,
		Epoch:      "codebook/v2",
		Trial: func(cell campaign.Cell, seed int64, _ int) campaign.Metrics {
			n := cell.Int("beams")
			b := EdgeBuilder(seed)
			b.UEBook = antenna.NewRingCodebook(
				fmt.Sprintf("mobile-%d", n), n, geom.Deg(360.0/float64(n)), antenna.ModelGaussian)
			b.Mob = MobilityFor(Walk, seed)
			ok, dwells := searchTrialWith(b, DefaultFig2aOpts())
			m := campaign.NewMetrics()
			m.Record("ok", ok)
			if ok {
				m.Add("dwells", float64(dwells))
			}
			return m
		},
		Render: func(w io.Writer, cells []campaign.CellResult) {
			WriteCodebook(w, CodebookRows(cells))
		},
	}
}

// CodebookRows folds campaign cells back into the table's row structs.
func CodebookRows(cells []campaign.CellResult) []CodebookRow {
	out := make([]CodebookRow, 0, len(cells))
	for i := range cells {
		c := &cells[i]
		n := c.Cell.Int("beams")
		row := CodebookRow{
			Beams:   n,
			HPBWDeg: 360.0 / float64(n),
			Success: c.Rate("ok"),
			Dwells:  c.Sample("dwells"),
		}
		row.MsP50 = row.Dwells.Median() * 20
		row.MsMax = row.Dwells.Quantile(1) * 20
		row.FullMs = float64(n) * 20
		out = append(out, row)
	}
	return out
}

// RunCodebook regenerates the codebook-size sweep under the human-walk
// workload.
func RunCodebook(opts CodebookOpts) []CodebookRow {
	return CodebookRows(campaign.Collect(CodebookCampaign(opts), opts.Workers))
}

// WriteCodebook renders the sweep.
func WriteCodebook(w io.Writer, rows []CodebookRow) {
	fmt.Fprintln(w, "Codebook-size sweep — search latency scaling (human walk)")
	fmt.Fprintln(w, "(the paper cites 1.28 s for 5G initial search: a 64-beam exhaustive scan)")
	fmt.Fprintf(w, "%-7s %7s %9s %10s %10s %10s %12s\n",
		"beams", "HPBW", "success", "dwells p50", "p50 (ms)", "max (ms)", "full scan")
	for _, r := range rows {
		fmt.Fprintf(w, "%-7d %6.1f° %8.1f%% %10.1f %10.0f %10.0f %9.0f ms\n",
			r.Beams, r.HPBWDeg, r.Success.Percent(), r.Dwells.Median(),
			r.MsP50, r.MsMax, r.FullMs)
	}
}
