package bench

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/run"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// rowsOf runs a registered experiment and returns its typed rows.
func rowsOf[R any](t *testing.T, name string, ctx Context) []R {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %q is not registered", name)
	}
	rows, err := e.Rows(&ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rows.([]R)
}

func TestBroadcastLatencyAllKinds(t *testing.T) {
	for _, k := range broadcastKinds {
		t.Run(string(k), func(t *testing.T) {
			t.Parallel()
			lat, err := BroadcastLatency(k, 2, 1, true, 1)
			if err != nil {
				t.Fatal(err)
			}
			if lat <= 0 {
				t.Error("zero latency")
			}
		})
	}
}

func TestBroadcastLatencyGrowsWithProposalSize(t *testing.T) {
	small, err := BroadcastLatency(BRBC, 4, 1, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	large, err := BroadcastLatency(BRBC, 4, 4, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if large <= small {
		t.Errorf("4-packet proposal (%v) not slower than 1-packet (%v)", large, small)
	}
}

func TestABAParallelAllVariants(t *testing.T) {
	for _, v := range abaVariants {
		t.Run(string(v), func(t *testing.T) {
			t.Parallel()
			lat, err := ABAParallelLatency(v, 2, 3)
			if err != nil {
				t.Fatal(err)
			}
			if lat <= 0 {
				t.Error("zero latency")
			}
		})
	}
}

func TestABASerial(t *testing.T) {
	lat1, err := abaSerialLatency(ABASC, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	lat2, err := abaSerialLatency(ABASC, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if lat2 <= lat1 {
		t.Errorf("2 serial ABAs (%v) not slower than 1 (%v)", lat2, lat1)
	}
}

func TestTable1ShapesHold(t *testing.T) {
	rows := rowsOf[Table1Row](t, "table1", Context{Seed: 5})
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Wired <= r.BaselineWireless || r.BaselineWireless < r.Batcher {
			t.Errorf("%s: analytic columns not monotone: %d %d %d",
				r.Component, r.Wired, r.BaselineWireless, r.Batcher)
		}
		if r.MeasuredBatched >= r.MeasuredBaseline {
			t.Errorf("%s: measured batched (%0.1f) not below baseline (%0.1f)",
				r.Component, r.MeasuredBatched, r.MeasuredBaseline)
		}
	}
}

func TestFig10cSizesMonotone(t *testing.T) {
	rows := rowsOf[SizeRow](t, "fig10c", Context{})
	if len(rows) != 11 {
		t.Fatalf("got %d size rows, want 11 (5 pk + 6 threshold)", len(rows))
	}
}

func TestFig10CryptoOpsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("real crypto measurements")
	}
	rows := rowsOf[CryptoOpRow](t, "fig10b", Context{Reps: 1})
	// Shape: heavier sets slower to sign (compare lightest vs heaviest).
	bySet := map[string]time.Duration{}
	for _, r := range rows {
		if r.Op == "sign" {
			bySet[r.Set] = r.Latency
		}
	}
	if bySet["SG-3072"] <= bySet["SG-512"] {
		t.Errorf("SG-3072 sign (%v) not slower than SG-512 (%v)", bySet["SG-3072"], bySet["SG-512"])
	}
}

func TestFaultSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("24 chain runs")
	}
	rows := rowsOf[FaultPoint](t, "faults", Context{Seed: 1, ChainEpochs: 2, Workers: 4})
	if len(rows) != 6*2*2 {
		t.Fatalf("got %d rows, want 24 (6 scenarios x 2 protocols x 2 transports)", len(rows))
	}
	for _, r := range rows {
		if r.Error != "" {
			t.Errorf("%s/%s/%s failed: %s", r.Scenario, r.Protocol, r.Transport, r.Error)
			continue
		}
		if r.Epochs != 2 || r.CommittedTxs == 0 {
			t.Errorf("%s/%s/%s: no progress: %+v", r.Scenario, r.Protocol, r.Transport, r)
		}
	}
}

func TestByzSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("16 chain runs")
	}
	rows := rowsOf[ByzPoint](t, "byz", Context{Seed: 1, ChainEpochs: 2, Workers: 4})
	if len(rows) != 4*2*2 {
		t.Fatalf("got %d rows, want 16 (4 behaviors x 2 protocols x 2 transports)", len(rows))
	}
	sawRejected := false
	for _, r := range rows {
		if r.Error != "" {
			t.Errorf("%s/%s/%s failed: %s", r.Behavior, r.Protocol, r.Transport, r.Error)
			continue
		}
		if !r.HonestSafe {
			t.Errorf("%s/%s/%s: honest-safety check failed", r.Behavior, r.Protocol, r.Transport)
		}
		if r.Epochs != 2 || r.CommittedTxs == 0 {
			t.Errorf("%s/%s/%s: no progress: %+v", r.Behavior, r.Protocol, r.Transport, r)
		}
		if r.RejectedMsgs > 0 {
			sawRejected = true
		}
	}
	if !sawRejected {
		t.Error("no configuration rejected any Byzantine message; the defenses were never exercised")
	}
}

// TestRecordedSpecsReparse: the scenario DSL a trajectory row records in
// its spec column parses back to the very plan the cell ran, so a
// committed row can be replayed from the file alone.
func TestRecordedSpecsReparse(t *testing.T) {
	spec := chainBase(&Context{Seed: 1, ChainEpochs: 2})
	spec.Topology = run.Clustered(4, 4) // the forge axis aims at its last member
	var plans []scenario.Plan
	for _, sc := range faultScenarios {
		plans = append(plans, sc.plan)
	}
	for _, b := range byzBehaviors {
		plans = append(plans, byzPlan(&spec, b))
	}
	for _, ax := range []sweep.Axis[run.Spec]{aleaScenarioAxis(), forgeAxis()} {
		for _, pt := range ax.Points {
			s := spec
			pt.Apply(&s)
			plans = append(plans, s.Scenario)
		}
	}
	for _, p := range plans {
		back, err := scenario.Parse(p.String())
		if err != nil {
			t.Errorf("recorded spec %q does not parse: %v", p, err)
		} else if !reflect.DeepEqual(back.Events, p.Events) && len(back.Events)+len(p.Events) > 0 {
			t.Errorf("recorded spec %q parses to a different plan:\n got  %+v\n want %+v", p, back, p)
		}
	}
}
