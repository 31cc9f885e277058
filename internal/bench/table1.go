package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/sweep"
	"repro/internal/wireless"
)

// Table1Row is one row of Table I: message overhead per node for an
// N-component parallel protocol, analytic columns plus our measured
// logical-packet counts per node in both transport modes.
type Table1Row struct {
	Component        string
	Wired            int // analytic, per paper
	BaselineWireless int // analytic
	Batcher          int // analytic
	MeasuredBaseline float64
	MeasuredBatched  float64

	kind Component // what the measured columns run
}

// table1Cell is the grid configuration of one measured Table I point.
type table1Cell struct {
	Kind    Component
	Batched bool
}

// table1Rows computes the paper's Table I for N=4: the analytic columns
// use the paper's formulas; the measured columns run each component with N
// parallel instances on the simulator and count signed logical packets per
// node (retransmissions make measured values slightly exceed the analytic
// ideal). The 5x2 measured grid runs on the sweep engine; the analytic
// columns are joined onto the results by grid coordinate.
func table1Rows(ctx *Context) ([]Table1Row, error) {
	const n = 4
	rows := []Table1Row{
		{Component: "RBC", kind: BRBC, Wired: (n - 1) * (1 + 2*n), BaselineWireless: 1 + 2*n, Batcher: 1 + 2},
		{Component: "CBC", kind: BCBC, Wired: 3 * (n - 1), BaselineWireless: 1 + (n - 1) + 1, Batcher: 3},
		{Component: "PRBC", kind: BPRBC, Wired: (n - 1) * (1 + 3*n), BaselineWireless: 1 + 3*n, Batcher: 1 + 3},
		{Component: "Bracha's ABA", kind: ABALC, Wired: 3 * n * (n - 1) * (1 + 2*n), BaselineWireless: 3 * n * (1 + 2*n), Batcher: 3 * 3},
		{Component: "Cachin's ABA", kind: ABASC, Wired: 3 * n * (n - 1), BaselineWireless: 3 * n, Batcher: 3},
	}
	grid := sweep.Grid[table1Cell]{Axes: []sweep.Axis[table1Cell]{
		sweep.Over("component", rows,
			func(r Table1Row) string { return r.Component },
			func(c *table1Cell, r Table1Row) { c.Kind = r.kind }),
		{Name: "transport", Points: []sweep.Point[table1Cell]{
			{Label: "baseline", Apply: func(c *table1Cell) { c.Batched = false }},
			{Label: "batched", Apply: func(c *table1Cell) { c.Batched = true }},
		}},
	}}
	results, err := sweep.Run(grid, ctx.sweepOpts(), func(c sweep.Cell[table1Cell]) (float64, error) {
		got, err := measureComponentPackets(c.Config.Kind, c.Config.Batched, ctx.Seed)
		if err != nil {
			return 0, fmt.Errorf("bench: table1 %s: %w", c.Name(), err)
		}
		return got, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.Coords[1] == 1 {
			rows[r.Coords[0]].MeasuredBatched = r.Value
		} else {
			rows[r.Coords[0]].MeasuredBaseline = r.Value
		}
	}
	return rows, nil
}

// measureComponentPackets runs N parallel instances of kind on a
// loss-free channel (the analytic comparison wants the ideal) and returns
// the signed logical packets each node sent.
func measureComponentPackets(kind Component, batched bool, seed int64) (float64, error) {
	net := wireless.DefaultConfig()
	net.LossProb = 0
	h, err := newHarness(kind, seed, batched, net, load{
		slots: 4, shared: batched,
		value: func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 64) },
		input: func(int) bool { return true },
	})
	if err != nil {
		return 0, err
	}
	if _, err := h.runParallel(4, 8*time.Hour); err != nil {
		return 0, err
	}
	return h.LogicalPerNode(), nil
}

// printTable1 renders Table I. A measured cell the sweep never ran
// (excluded by -filter) renders as "-" — every real measurement is at
// least one packet per node, so zero always means "not measured".
func printTable1(w io.Writer, title string, rows []Table1Row) {
	meas := func(v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", v)
	}
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-14s %8s %10s %9s | %12s %11s\n",
		"component", "wired", "baseline", "batcher", "measured-bl", "measured-cb")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8d %10d %9d | %12s %11s\n",
			r.Component, r.Wired, r.BaselineWireless, r.Batcher,
			meas(r.MeasuredBaseline), meas(r.MeasuredBatched))
	}
}
