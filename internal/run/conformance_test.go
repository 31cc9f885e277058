package run

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/byz"
	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// This file is the cross-engine conformance suite: one table-driven
// harness that runs the same chain workload over every registered
// protocol engine × both transports × a scenario battery, and re-checks
// the consensus invariants independently of the driver's own enforcement
// (run.Run already fails on agreement violations; the suite additionally
// pins validity and total-order prefix consistency from the committed
// logs, so a driver regression can't mask an engine regression). Engines
// are enumerated from the protocol registry, so a fourth engine inherits
// the whole battery by registering itself.

// conformanceCoin picks each family's evaluation coin (BEAT is defined
// by its flip coin; everything else runs the signature coin).
func conformanceCoin(kind protocol.Kind) protocol.CoinKind {
	if kind == protocol.BEAT {
		return protocol.CoinFlip
	}
	return protocol.CoinSig
}

// conformanceSpec is the shared cell: 4-node single-hop chain, 4 epochs
// at 1 s client cadence.
func conformanceSpec(kind protocol.Kind, batched bool) Spec {
	spec := Defaults(kind, conformanceCoin(kind))
	spec.Workload = Chain(4)
	spec.Workload.TxInterval = time.Second
	spec.Seed = 7
	spec.Batched = batched
	return spec
}

// conformanceScenario is one battery entry.
type conformanceScenario struct {
	name string
	plan scenario.Plan
}

// conformanceScenarios is the fault battery: clean, a crash/recover
// cycle, a quorum-splitting partition that heals, and every registered
// Byzantine behavior armed on node 3 from t=0. Timings sit inside the
// fastest cell's 4-epoch window (BEAT batched, about five minutes) so every
// event actually fires.
func conformanceScenarios() []conformanceScenario {
	out := []conformanceScenario{
		{name: "clean"},
		{name: "crash-recover", plan: scenario.Plan{}.Then(
			scenario.CrashAt(2*time.Minute, 2), scenario.RecoverAt(4*time.Minute, 2))},
		{name: "partition-heal", plan: scenario.Plan{}.Then(
			scenario.PartitionAt(90*time.Second, []int{0, 1}, []int{2, 3}),
			scenario.HealAt(4*time.Minute))},
	}
	for _, b := range byz.Names() {
		out = append(out, conformanceScenario{name: "byz-" + b, plan: scenario.Byz(b, 3)})
	}
	return out
}

// checkConformance re-derives the consensus invariants from the
// committed logs, independently of the driver's internal checks:
// validity (every committed transaction is a genuine client submission),
// agreement / total-order prefix consistency (any two honest logs are
// prefixes of one common sequence), and gap-freedom (epochs commit in
// order without holes).
func checkConformance(t *testing.T, spec Spec, rep *Report) {
	t.Helper()
	if rep.Chain == nil {
		t.Fatal("conformance cell produced no chain report")
	}
	logs := rep.Chain.Logs
	if forged := protocol.CountForged(logs, spec.Workload.TxSize, rep.Chain.SubmittedTxs); forged != 0 {
		t.Errorf("validity violated: %d forged transactions committed", forged)
	}
	var ref []protocol.LogEntry
	committed := 0
	for nd, log := range logs {
		if log == nil {
			continue // Byzantine or perma-crashed node: not part of the honest bar
		}
		committed++
		for i, entry := range log {
			if entry.Epoch != i {
				t.Fatalf("node %d: gap in log at position %d (epoch %d)", nd, i, entry.Epoch)
			}
		}
		if ref == nil || len(log) > len(ref) {
			if ref != nil {
				checkPrefix(t, nd, log, ref)
			}
			ref = log
			continue
		}
		checkPrefix(t, nd, ref, log)
	}
	if committed == 0 {
		t.Fatal("no honest logs in the report")
	}
	if len(ref) != spec.Workload.Epochs {
		t.Fatalf("longest honest log committed %d epochs, want %d", len(ref), spec.Workload.Epochs)
	}
}

// checkPrefix asserts log is entry-for-entry identical to the longer
// reference over its whole length (total-order prefix consistency).
func checkPrefix(t *testing.T, nd int, longer, log []protocol.LogEntry) {
	t.Helper()
	for i, entry := range log {
		want := longer[i]
		if entry.Epoch != want.Epoch || len(entry.Txs) != len(want.Txs) {
			t.Fatalf("node %d: log diverges at position %d", nd, i)
		}
		for j := range entry.Txs {
			if !bytes.Equal(entry.Txs[j], want.Txs[j]) {
				t.Fatalf("node %d: transaction disagreement at epoch %d index %d", nd, i, j)
			}
		}
	}
}

// TestConformanceEngines is the full battery: every registered engine ×
// {batched, baseline} transport × every scenario.
func TestConformanceEngines(t *testing.T) {
	for _, eng := range protocol.Engines() {
		kind := eng.Kind
		for _, batched := range []bool{true, false} {
			batched := batched
			transport := map[bool]string{true: "batched", false: "baseline"}[batched]
			for _, sc := range conformanceScenarios() {
				sc := sc
				t.Run(string(kind)+"/"+transport+"/"+sc.name, func(t *testing.T) {
					t.Parallel()
					spec := conformanceSpec(kind, batched)
					spec.Scenario = sc.plan
					rep, err := Run(spec)
					if err != nil {
						t.Fatalf("driver rejected the run: %v", err)
					}
					checkConformance(t, spec, rep)
				})
			}
		}
	}
}

// TestFullStopRecovery pins the beyond-fault-budget recovery path on the
// full-stop probe grid: nodes 1 and 2 of the 4-node chain crash together
// (more than f, so no epoch can complete anywhere during the outage) at
// 30 s, 1, 2 or 3 m and recover at twice that, for every engine × both
// transports × seeds 1–4, plus the seed-7 cells at 1 m and 2 m under their
// earlier names — 144 cells. The in-flight epochs must then complete
// cooperatively from the state every node kept: a crash pauses a node
// (node.Node.Crash), so the recovered nodes come back with every value
// they proposed — the batch, and Dumbo's W vector and commit set — and
// every vote and share they made. Every engine recovers the same way: a
// survivor's transport brings back what it parked for a peer whose NACK
// rows show the slots undone — its votes, values and certificates, so a
// CBC slot the node's agreement accepted without it comes back by its
// FINISH row with no request from any engine — and the DECIDED gadget
// settles the agreements the survivors decided.
func TestFullStopRecovery(t *testing.T) {
	type cell struct {
		seed int64
		at   time.Duration
	}
	var cells []cell
	for _, seed := range []int64{1, 2, 3, 4} {
		for _, at := range []time.Duration{30 * time.Second, time.Minute, 2 * time.Minute, 3 * time.Minute} {
			cells = append(cells, cell{seed, at})
		}
	}
	cells = append(cells, cell{7, time.Minute}, cell{7, 2 * time.Minute})
	for _, kind := range protocol.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			for _, batched := range []bool{true, false} {
				for _, c := range cells {
					batched, c := batched, c
					name := fmt.Sprintf("%s/seed%d/crash@%v", map[bool]string{true: "batched", false: "baseline"}[batched], c.seed, c.at)
					if c.seed == 7 {
						name = strings.Replace(name, "/seed7", "", 1)
					}
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						spec := conformanceSpec(kind, batched)
						spec.Seed = c.seed
						fullStop(t, spec, c.at)
					})
				}
			}
		})
	}
}

// fullStop runs one cell of the full-stop grid: spec's 5-epoch chain with
// nodes 1 and 2 down together from at to twice at.
func fullStop(t *testing.T, spec Spec, at time.Duration) {
	spec.Workload = Chain(5)
	spec.Workload.TxInterval = time.Second
	spec.Scenario = scenario.Plan{}.Then(
		scenario.CrashAt(at, 1),
		scenario.CrashAt(at, 2),
		scenario.RecoverAt(2*at, 1),
		scenario.RecoverAt(2*at, 2),
	)
	rep, err := Run(spec)
	if err != nil {
		t.Fatalf("full-stop recovery wedged: %v", err)
	}
	checkConformance(t, spec, rep)
}

// TestFullStopRecoveryLocalCoin runs the full-stop grid's seeds 1–4 and
// crash times on HoneyBadger with the local coin, over both transports —
// 32 cells. TestFullStopRecovery's engines draw threshold coins
// (conformanceCoin); these pin BrachaABA's pruned rounds, which park as
// CachinABA's do and come back the same way for a recovered node.
func TestFullStopRecoveryLocalCoin(t *testing.T) {
	for _, batched := range []bool{true, false} {
		for _, seed := range []int64{1, 2, 3, 4} {
			for _, at := range []time.Duration{30 * time.Second, time.Minute, 2 * time.Minute, 3 * time.Minute} {
				batched, seed, at := batched, seed, at
				name := fmt.Sprintf("%s/seed%d/crash@%v", map[bool]string{true: "batched", false: "baseline"}[batched], seed, at)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					spec := Defaults(protocol.HoneyBadger, protocol.CoinLocal)
					spec.Seed, spec.Batched = seed, batched
					fullStop(t, spec, at)
				})
			}
		}
	}
}

// TestDelayAdversaryAsksForNoParkedRound runs HB-SC and Dumbo-SC on both
// transports under the delay adversary alone (scenario.Delay(0.25, 10 s),
// 12 epochs, seed 1). The adversary delivers many packets after newer ones
// from the same sender; none may make its sender look like a peer that
// lost state, so no node answers an entry with an ABA round it parked. The
// ABA's round phases have no NACK row, so an asked re-send in them is only
// ever such an answer: none may carry an asked byte.
func TestDelayAdversaryAsksForNoParkedRound(t *testing.T) {
	for _, kind := range []protocol.Kind{protocol.HoneyBadger, protocol.DumboKind} {
		for _, batched := range []bool{true, false} {
			kind, batched := kind, batched
			t.Run(fmt.Sprintf("%s/batched=%v", kind, batched), func(t *testing.T) {
				t.Parallel()
				spec := Defaults(kind, protocol.CoinSig)
				spec.Workload = Chain(12)
				spec.Batched = batched
				spec.Scenario = scenario.Delay(0.25, 10*time.Second)
				rep, err := Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				for _, ph := range []packet.Phase{packet.PhaseBval, packet.PhaseAux, packet.PhaseShare} {
					if b := rep.EntryBytes[packet.KindABA][ph][core.SendAsked]; b != 0 {
						t.Errorf("ABA phase %d: %d B re-sent as asked, want none", ph, b)
					}
				}
			})
		}
	}
}

// TestChurnRecovery pins the churn wedge: under an 80 % duty cycle one
// node at a time crashes every 2 min from 1 m on and rejoins 1 min later,
// and a HoneyBadger proposer back inside an epoch it led must send the
// ciphertext its peers echoed, which a crash keeps, not a fresh encryption
// of its batch (seed 1 stopped at frontier [6 6 6 5] when it did).
func TestChurnRecovery(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := Defaults(protocol.HoneyBadger, protocol.CoinSig)
			spec.Workload = Chain(6)
			spec.Seed = seed
			spec.Scenario = scenario.MustParse("dutycycle@0s:0.8,60s;churn@1m:2m,1m")
			rep, err := Run(spec)
			if err != nil {
				t.Fatalf("churn wedged: %v", err)
			}
			checkConformance(t, spec, rep)
		})
	}
}

// TestChurnKeepsAgreement runs the two churn cells in which a node that
// crashed inside an agreement and came back without its state voted again
// from a fresh estimate, and logs diverged with no Byzantine node: HB-SC
// at seed 139 and Alea-SC at seed 153. A crash pauses a node, so the
// recovered node keeps every vote and decision, and the logs agree
// (protocol.CheckLogs).
func TestChurnKeepsAgreement(t *testing.T) {
	for _, c := range []struct {
		kind   protocol.Kind
		epochs int
		seed   int64
		plan   string
	}{
		{protocol.HoneyBadger, 6, 139, "dutycycle@0s:0.8,60s;churn@1m:2m,1m"},
		{protocol.AleaKind, 12, 153, "dutycycle@0s:0.8,60s;churn@30s:1m,30s"},
	} {
		c := c
		t.Run(fmt.Sprintf("%s/seed%d", c.kind, c.seed), func(t *testing.T) {
			t.Parallel()
			spec := Defaults(c.kind, protocol.CoinSig)
			spec.Workload = Chain(c.epochs)
			spec.Seed = c.seed
			spec.Scenario = scenario.MustParse(c.plan)
			rep, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			checkConformance(t, spec, rep)
		})
	}
}

// TestTenMinuteOutageRecovers pins the epoch GC's hold against the
// engines' pace. Alea-SC under bursty overload (the alea_overload shape)
// loses one node from 10 m to 20 m, and the survivors commit about 20
// epochs meanwhile: more than the 16 that a hold of 4 lags kept, which
// wedged every seed here once Cachin's ABA stopped drawing a coin in
// rounds 1 and 2. The node must catch up from the epochs the survivors
// still hold.
func TestTenMinuteOutageRecovers(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := Defaults(protocol.AleaKind, protocol.CoinSig)
			spec.Workload = Chain(60)
			spec.Workload.Arrival = traffic.Pattern{Kind: traffic.OnOff, Clients: 1000, Rate: 0.08,
				OnMean: 2 * time.Minute, OffMean: 8 * time.Minute}
			spec.Workload.Mempool.MaxPendingBytes = 2048
			spec.Seed = seed
			spec.Scenario = scenario.MustParse("churn@0s+11m:10m,10m")
			rep, err := Run(spec)
			if err != nil {
				t.Fatalf("outage wedged: %v", err)
			}
			checkConformance(t, spec, rep)
		})
	}
}

// TestConformanceDeterminism pins the reproducibility contract per
// engine: the same Spec (same seed) must produce byte-identical Reports.
func TestConformanceDeterminism(t *testing.T) {
	for _, eng := range protocol.Engines() {
		kind := eng.Kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			spec := conformanceSpec(kind, true)
			a, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			ja, _ := json.Marshal(a)
			jb, _ := json.Marshal(b)
			if !bytes.Equal(ja, jb) {
				t.Fatalf("same seed, different Report:\n%s\nvs\n%s", ja, jb)
			}
		})
	}
}

// seatProbe re-registers an engine under its own kind with a constructor
// that notes which seat built each instance on the global tier's session
// (of a Spec with the default transport session) and with what, and taps every
// instance's outbound intents for decryption shares, per tier. The run
// reads the registry, so what the probe sees is what the drivers built.
// One run at a time builds instances of a probed kind, so nothing is
// locked.
type seatProbe struct {
	seats               map[int]bool
	seatOpts            []protocol.Options
	decLocal, decGlobal int
}

// decTap is a pass-through interceptor counting KindDec intents.
type decTap struct{ count *int }

func (k decTap) Outbound(_ *core.Transport, in core.Intent) []core.Intent {
	if in.Kind == packet.KindDec {
		*k.count++
	}
	return []core.Intent{in}
}

func registerSeatProbe(t *testing.T, kind protocol.Kind) *seatProbe {
	eng, ok := protocol.Lookup(kind)
	if !ok {
		t.Fatalf("%s missing from registry", kind)
	}
	p := &seatProbe{seats: make(map[int]bool)}
	build := eng.New
	eng.New = func(env *component.Env, opts protocol.Options) protocol.Instance {
		count := &p.decLocal
		if env.Session == globalSession {
			count = &p.decGlobal
			p.seats[env.Me] = true
			p.seatOpts = append(p.seatOpts, opts)
		}
		env.T.SetInterceptor(decTap{count})
		return build(env, opts)
	}
	t.Cleanup(protocol.Register(eng))
	return p
}

// TestConformanceClustered runs each engine through the clustered
// topology cell (the acceptance bar for new engines: every engine must
// drive every matrix cell, not just the flat one) and checks that the
// global tier runs the family's own engine: every seat's instances, one
// per global epoch, come out of the family's registry entry, with the
// family's coin. (The seats
// used to be built by a switch in the driver that gave Alea HoneyBadger's
// ACS and re-derived BEAT's coin default by hand.) The probes stay
// registered until the parallel cells are done; no other top-level test
// of the package runs meanwhile.
func TestConformanceClustered(t *testing.T) {
	for _, eng := range protocol.Engines() {
		kind, coin := eng.Kind, eng.Coin
		probe := registerSeatProbe(t, kind)
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			spec := Defaults(kind, conformanceCoin(kind))
			if coin != "" {
				spec.Coin = "" // the family brings its own, on both tiers
			}
			spec.Topology = Clustered(4, 4)
			spec.Workload = OneShot(1)
			spec.Seed = 7
			rep, err := Run(spec)
			if err != nil {
				t.Fatalf("clustered cell failed: %v", err)
			}
			if rep.OneShot.DeliveredTxs == 0 {
				t.Fatal("clustered cell delivered nothing")
			}
			if len(probe.seats) != spec.Topology.Clusters {
				t.Fatalf("%d of the %d seats run an instance of the %s registry entry",
					len(probe.seats), spec.Topology.Clusters, kind)
			}
			for _, opts := range probe.seatOpts {
				if opts.Coin != conformanceCoin(kind) || opts.Encrypt {
					t.Errorf("seat built with coin %q encrypt=%v, want the family's %q and no encryption",
						opts.Coin, opts.Encrypt, conformanceCoin(kind))
				}
			}
		})
	}
}

// TestClusteredChainGlobalTierUnencrypted pins what runClusteredChain
// promises of the global chain — cut records are public, so its proposals
// are not ciphertexts — on the family that used to ignore it: BEAT's
// registry entry hard-wired encryption on. No seat may publish a
// decryption share; the clusters, which do encrypt, must (the probe sees
// what it claims to). Not parallel: it replaces a registry entry.
func TestClusteredChainGlobalTierUnencrypted(t *testing.T) {
	probe := registerSeatProbe(t, protocol.BEAT)
	spec := Defaults(protocol.BEAT, "")
	spec.Topology = Clustered(4, 4)
	spec.Workload = Chain(2)
	spec.Workload.TxInterval = 2 * time.Second
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	if probe.decLocal == 0 {
		t.Fatal("the clusters published no decryption share: the probe is blind")
	}
	if probe.decGlobal != 0 {
		t.Errorf("the global tier published %d decryption shares: its proposals are ciphertexts", probe.decGlobal)
	}
}

// forgingInstance wraps a real engine instance and appends one extra
// output slot carrying a transaction the clients never submitted. On
// one node it is an agreement breaker; on all nodes it is a validity
// breaker the driver cannot see (the logs still agree).
type forgingInstance struct {
	protocol.Instance
}

func (f *forgingInstance) Outputs() [][]byte {
	out := f.Instance.Outputs()
	if out == nil {
		return nil
	}
	forged := make([]byte, 64)
	forged[0] = 0xFF // sequence 1<<56+: far past anything submitted
	return append(append([][]byte(nil), out...), protocol.EncodeBatch([][]byte{forged}))
}

// TestConformanceCatchesBrokenEngines proves the gate has teeth: a stub
// engine violating agreement must fail the driver, and one violating
// validity (undetectable from agreement alone) must fail
// checkConformance's forgery audit. Deliberately not parallel — it
// mutates the global engine registry and restores it before returning,
// and sequential top-level tests never overlap the parallel suites.
func TestConformanceCatchesBrokenEngines(t *testing.T) {
	base, ok := protocol.Lookup(protocol.HoneyBadger)
	if !ok {
		t.Fatal("honeybadger missing from registry")
	}
	wrap := func(tainted func(me int) bool) func(*component.Env, protocol.Options) protocol.Instance {
		return func(env *component.Env, opts protocol.Options) protocol.Instance {
			inst := base.New(env, opts)
			if tainted(env.Me) {
				return &forgingInstance{Instance: inst}
			}
			return inst
		}
	}

	restore := protocol.Register(protocol.Engine{
		Kind: "broken-agreement", DefaultEncrypt: true,
		New: wrap(func(me int) bool { return me == 0 }),
	})
	spec := conformanceSpec("broken-agreement", true)
	if _, err := Run(spec); err == nil {
		t.Error("agreement-violating engine passed the driver")
	}
	// The clustered driver checks every cluster's logs too (here member 0
	// of every cluster forges).
	clustered := Defaults("broken-agreement", protocol.CoinSig)
	clustered.Topology = Clustered(4, 4)
	clustered.Workload = OneShot(1)
	if _, err := Run(clustered); err == nil || !strings.Contains(err.Error(), "safety violation") {
		t.Errorf("agreement-violating engine on the clustered one-shot cell: err = %v, want a safety violation", err)
	}
	restore()

	restore = protocol.Register(protocol.Engine{
		Kind: "broken-validity", DefaultEncrypt: true,
		New: wrap(func(int) bool { return true }),
	})
	spec = conformanceSpec("broken-validity", true)
	rep, err := Run(spec)
	if err != nil {
		t.Fatalf("validity-only breaker tripped the driver early: %v", err)
	}
	if forged := protocol.CountForged(rep.Chain.Logs, spec.Workload.TxSize, rep.Chain.SubmittedTxs); forged == 0 {
		t.Error("validity-violating engine produced no detectable forgeries")
	}
	restore()

	if _, ok := protocol.Lookup("broken-validity"); ok {
		t.Fatal("registry not restored after the broken-engine runs")
	}
}
