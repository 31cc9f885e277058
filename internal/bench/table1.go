package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/component"
	"repro/internal/crypto"
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
}

// table1Cell is the grid configuration of one measured Table I point.
type table1Cell struct {
	Component string
	Batched   bool
}

// Table1 computes the paper's Table I for N=4: the analytic columns use
// the paper's formulas; the measured columns run each component with N
// parallel instances on the simulator and count signed logical packets per
// node (retransmissions make measured values slightly exceed the analytic
// ideal). The 5x2 measured grid runs on the sweep engine; the analytic
// columns are joined onto the results by grid coordinate.
func Table1(seed int64, opts sweep.Options) ([]Table1Row, error) {
	const n = 4
	rows := []Table1Row{
		{Component: "RBC", Wired: (n - 1) * (1 + 2*n), BaselineWireless: 1 + 2*n, Batcher: 1 + 2},
		{Component: "CBC", Wired: 3 * (n - 1), BaselineWireless: 1 + (n - 1) + 1, Batcher: 3},
		{Component: "PRBC", Wired: (n - 1) * (1 + 3*n), BaselineWireless: 1 + 3*n, Batcher: 1 + 3},
		{Component: "Bracha's ABA", Wired: 3 * n * (n - 1) * (1 + 2*n), BaselineWireless: 3 * n * (1 + 2*n), Batcher: 3 * 3},
		{Component: "Cachin's ABA", Wired: 3 * n * (n - 1), BaselineWireless: 3 * n, Batcher: 3},
	}
	compAxis := sweep.Axis[table1Cell]{Name: "component"}
	for _, r := range rows {
		name := r.Component
		compAxis.Points = append(compAxis.Points, sweep.Point[table1Cell]{
			Label: name,
			Apply: func(c *table1Cell) { c.Component = name },
		})
	}
	grid := sweep.Grid[table1Cell]{
		Axes: []sweep.Axis[table1Cell]{compAxis, {Name: "transport", Points: []sweep.Point[table1Cell]{
			{Label: "baseline", Apply: func(c *table1Cell) { c.Batched = false }},
			{Label: "batched", Apply: func(c *table1Cell) { c.Batched = true }},
		}}},
	}
	results, err := sweep.Run(grid, opts, func(c sweep.Cell[table1Cell]) (float64, error) {
		got, err := measureComponentPackets(c.Config.Component, c.Config.Batched, seed)
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

// runTable1 is the registry entry.
func runTable1(ctx *Context) error {
	rows, err := Table1(ctx.Seed, ctx.sweepOpts(false))
	if err != nil {
		return err
	}
	PrintTable1(ctx.Out, rows)
	return nil
}

func measureComponentPackets(name string, batched bool, seed int64) (float64, error) {
	net := wireless.DefaultConfig()
	net.LossProb = 0 // analytic comparison wants the loss-free ideal
	rig, err := NewComponentRig(seed, batched, crypto.LightConfig(), net)
	if err != nil {
		return 0, err
	}
	var done func() bool
	switch name {
	case "RBC":
		rbcs := make([]*component.RBC, 4)
		for i, env := range rig.Envs {
			rbcs[i] = component.NewRBC(env, component.RBCOptions{Slots: 4})
		}
		for i := range rig.Envs {
			rbcs[i].Propose(i, bytes.Repeat([]byte{byte(i)}, 64))
		}
		done = func() bool {
			for _, r := range rbcs {
				if r.DeliveredCount() < 4 {
					return false
				}
			}
			return true
		}
	case "CBC":
		cbcs := make([]*component.CBC, 4)
		for i, env := range rig.Envs {
			cbcs[i] = component.NewCBC(env, component.CBCOptions{Kind: 3, Slots: 4})
		}
		for i := range rig.Envs {
			cbcs[i].Propose(i, bytes.Repeat([]byte{byte(i)}, 64))
		}
		done = func() bool {
			for _, c := range cbcs {
				if c.DeliveredCount() < 4 {
					return false
				}
			}
			return true
		}
	case "PRBC":
		prbcs := make([]*component.PRBC, 4)
		for i, env := range rig.Envs {
			prbcs[i] = component.NewPRBC(env, component.PRBCOptions{Slots: 4})
		}
		for i := range rig.Envs {
			prbcs[i].Propose(i, bytes.Repeat([]byte{byte(i)}, 64))
		}
		done = func() bool {
			for _, p := range prbcs {
				if p.ProvenCount() < 4 {
					return false
				}
			}
			return true
		}
	case "Bracha's ABA":
		abas := make([]*component.BrachaABA, 4)
		for i, env := range rig.Envs {
			abas[i] = component.NewBrachaABA(env, component.BrachaOptions{Slots: 4})
		}
		for i := range rig.Envs {
			for s := 0; s < 4; s++ {
				abas[i].Input(s, true)
			}
		}
		done = func() bool {
			for _, a := range abas {
				if a.DecidedCount() < 4 {
					return false
				}
			}
			return true
		}
	case "Cachin's ABA":
		abas := make([]*component.CachinABA, 4)
		for i, env := range rig.Envs {
			env := env
			abas[i] = component.NewCachinABA(env, component.CachinOptions{
				Slots: 4, SharedCoin: batched,
				Coin: component.SigCoin(env),
			})
		}
		for i := range rig.Envs {
			for s := 0; s < 4; s++ {
				abas[i].Input(s, true)
			}
		}
		done = func() bool {
			for _, a := range abas {
				if a.DecidedCount() < 4 {
					return false
				}
			}
			return true
		}
	default:
		return 0, fmt.Errorf("bench: unknown component %q", name)
	}
	if _, err := rig.RunUntil(8*time.Hour, done); err != nil {
		return 0, err
	}
	return rig.LogicalPerNode(), nil
}

// PrintTable1 renders Table I. A measured cell the sweep never ran
// (excluded by -filter) renders as "-" — every real measurement is at
// least one packet per node, so zero always means "not measured".
func PrintTable1(w io.Writer, rows []Table1Row) {
	meas := func(v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", v)
	}
	fmt.Fprintf(w, "Table I — message overhead per node, N=4 parallel components\n")
	fmt.Fprintf(w, "%-14s %8s %10s %9s | %12s %11s\n",
		"component", "wired", "baseline", "batcher", "measured-bl", "measured-cb")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8d %10d %9d | %12s %11s\n",
			r.Component, r.Wired, r.BaselineWireless, r.Batcher,
			meas(r.MeasuredBaseline), meas(r.MeasuredBatched))
	}
}
