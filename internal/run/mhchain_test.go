package run

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/byz"
	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/node"
	"repro/internal/packet"
	"repro/internal/protocol"
	"repro/internal/scenario"
)

func quickMHChainSpec(p protocol.Kind, coin protocol.CoinKind, target int, seed int64) Spec {
	spec := Defaults(p, coin)
	spec.Topology = Clustered(4, 4)
	spec.Workload = Chain(target)
	spec.Workload.TxInterval = 2 * time.Second
	spec.Seed = seed
	return spec
}

// TestClusteredChainAgreement is the acceptance run for the new matrix
// cell: 4 clusters of 4 run pipelined SMR on the lossy default channel,
// every honest node commits the per-cluster target, every cluster's cuts
// land in the cross-cluster total order, the untainted seats' global logs
// agree, and every follower's heard frontier digest matches the global
// order (Run fails on any violation; the assertions below are the
// measurements).
func TestClusteredChainAgreement(t *testing.T) {
	res, err := Run(quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Chain.EpochsCommitted != 4 {
		t.Fatalf("per-cluster target not reached: %d", res.Chain.EpochsCommitted)
	}
	if res.Tiers == nil || res.Tiers.OrderedCuts < 4*4 {
		t.Fatalf("global order holds %d cuts, want >= 16 (4 clusters x 4 epochs)", res.Tiers.OrderedCuts)
	}
	if res.Tiers.GlobalEntries == 0 || res.Tiers.GlobalAccesses == 0 || res.Tiers.LocalAccesses == 0 {
		t.Fatalf("expected traffic and commits on both tiers: %+v", res.Tiers)
	}
	if res.Chain.CommittedTxs == 0 || res.Chain.ThroughputBps <= 0 {
		t.Fatalf("no sustained throughput: %+v", res.Chain)
	}
	// Per-cluster logs must exist for every node and carry distinct
	// traffic (clusters order disjoint client streams).
	seen := map[string]bool{}
	for flat, log := range res.Chain.Logs {
		if len(log) != 4 {
			t.Fatalf("node %d committed %d epochs, want 4", flat, len(log))
		}
		for _, entry := range log {
			for _, tx := range entry.Txs {
				key := string(tx)
				if flat%4 == 0 && seen[key] {
					t.Fatalf("tx committed by two clusters; client streams not disjoint")
				}
				if flat%4 == 0 {
					seen[key] = true
				}
			}
		}
	}
	t.Logf("4x4 clustered chain: %d txs, %d cuts in %d global entries, %v virtual, %.2f B/s",
		res.Chain.CommittedTxs, res.Tiers.OrderedCuts, res.Tiers.GlobalEntries,
		res.Duration.Round(time.Second), res.Chain.ThroughputBps)
}

// TestClusteredChainDumbo exercises the second protocol family end to end
// on the new cell (Dumbo's serial-ABA path is distinct code on both
// tiers).
func TestClusteredChainDumbo(t *testing.T) {
	res, err := Run(quickMHChainSpec(protocol.DumboKind, protocol.CoinSig, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tiers.OrderedCuts < 4*3 {
		t.Fatalf("global order holds %d cuts, want >= 12", res.Tiers.OrderedCuts)
	}
}

// TestClusteredChainLeaderCrash crashes a rotating relay leader mid-run:
// cluster 0's member 0 (the relay for local epochs 0, 4, ...) goes down
// and later recovers. Relay duty must fail over so cluster 0's cuts keep
// reaching the global tier, the crashed node must catch back up to the
// full log, and every cross-cluster check must still pass.
func TestClusteredChainLeaderCrash(t *testing.T) {
	spec := quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 6, 3)
	spec.Scenario = scenario.Plan{}.Then(
		scenario.CrashAt(5*time.Minute, 0),    // cluster 0, member 0: relay for epoch 4
		scenario.RecoverAt(11*time.Minute, 0), // back for the tail of the run
	)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Chain.Logs[0]); got != spec.Workload.Epochs {
		t.Fatalf("crashed leader committed %d epochs after recovery, want %d", got, spec.Workload.Epochs)
	}
	if res.Tiers.OrderedCuts < 4*spec.Workload.Epochs {
		t.Fatalf("global order holds %d cuts, want >= %d despite the leader crash",
			res.Tiers.OrderedCuts, 4*spec.Workload.Epochs)
	}
}

// TestClusteredChainRecoveredAtTarget: cluster 0's member 0 crashes late
// enough that its peers reach the target while it is down, and it comes
// back with its chain already there. With no epoch left to open it has no
// transport to hear frontier beacons on, so the seat must hand it every
// later global frontier directly; a frontier learned only at recovery
// leaves it short of the global order and the run at its deadline.
func TestClusteredChainRecoveredAtTarget(t *testing.T) {
	spec := quickMHChainSpec(protocol.DumboKind, protocol.CoinSig, 6, 7)
	spec.Scenario = scenario.Plan{}.Then(
		scenario.CrashAt(7*time.Minute, 0),
		scenario.RecoverAt(13*time.Minute, 0),
	)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Chain.Logs[0]); got != spec.Workload.Epochs {
		t.Fatalf("recovered member committed %d epochs, want %d", got, spec.Workload.Epochs)
	}
}

// TestClusteredChainCrashBeforeCutShare: a cluster member crashes the
// instant it commits local epoch e, before its share of the cut has gone
// out, and the other members never send theirs: each holds its own share
// alone, and the cut can certify only once the crashed member's share
// reaches them. A crash keeps the member's epoch open, so the share its
// CPU finishes waits in the epoch's store, goes out after the recovery,
// and the cut is certified and ordered.
func TestClusteredChainCrashBeforeCutShare(t *testing.T) {
	const c, e, crashed = 1, 1, 2
	spec := quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 3, 1)
	d, err := newMHCDriver(spec.normalize())
	if err != nil {
		t.Fatal(err)
	}
	cl := d.clusters[c]
	now := d.dep.sched.Now
	var down, signed time.Duration
	for i, ch := range cl.local.chains {
		epochE := map[*core.Transport]bool{}
		cl.local.nodes[i].Mux().SetInterceptor(interceptFunc(func(tr *core.Transport, in core.Intent) []core.Intent {
			if !epochE[tr] || in.Kind != packet.KindGlobal || in.Phase != packet.PhaseDone {
				return []core.Intent{in}
			}
			if i != crashed {
				return nil
			}
			if signed == 0 {
				signed = now()
			}
			return []core.Intent{in}
		}))
		onOpen := ch.OnEpochOpen
		ch.OnEpochOpen = func(ep int, env *component.Env) {
			epochE[env.T] = ep == e
			onOpen(ep, env)
		}
	}
	onCommit := cl.local.chains[crashed].OnCommit
	cl.local.chains[crashed].OnCommit = func(ep int) {
		onCommit(ep)
		if ep != e {
			return
		}
		d.dep.sched.Post(now(), func() {
			down = now()
			cl.local.nodes[crashed].Crash()
		})
		d.dep.sched.Post(now()+2*time.Minute, func() {
			cl.local.nodes[crashed].Recover()
			d.recovered(c*spec.Topology.PerCluster + crashed)
		})
	}
	if _, err := d.run(); err != nil {
		t.Fatal(err)
	}
	if down == 0 || signed < down {
		t.Fatalf("the member crashed at %v and signed its share at %v: not a crash before the share", down, signed)
	}
	// The run ends once the global order holds every cut, which the first
	// certificate gives; the other members combine theirs from the shares
	// still on the air, so the clock runs on until they do, or 10 minutes.
	missing := func() []int {
		var out []int
		for i, m := range cl.members {
			if i != crashed && m.cuts[e].Cert() == nil {
				out = append(out, i)
			}
		}
		return out
	}
	for deadline := now() + 10*time.Minute; len(missing()) > 0 && now() < deadline; {
		d.dep.sched.RunFor(10 * time.Second)
	}
	for _, i := range missing() {
		t.Errorf("member %d holds no certificate of the cut", i)
	}
}

// TestClusteredChainByzantineMember arms a Byzantine member (and, through
// it, the cluster's uplink seat) and requires the untainted clusters to
// stay safe and live: local logs agree, their cuts are all ordered with
// matching digests, and no forged cut for an untainted cluster survives
// (Run fails otherwise).
func TestClusteredChainByzantineMember(t *testing.T) {
	spec := quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 3, 4)
	// Flat node 15 = cluster 3, member 3: a follower in early epochs.
	spec.Scenario = scenario.Byz(byz.NameGarbage, 15)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for flat, log := range res.Chain.Logs {
		if flat == 15 {
			if log != nil {
				t.Fatal("Byzantine member's log included in the honest result set")
			}
			continue
		}
		if len(log) != spec.Workload.Epochs {
			t.Fatalf("honest node %d committed %d epochs, want %d", flat, len(log), spec.Workload.Epochs)
		}
	}
	if res.Tiers.GlobalLogs[3] != nil {
		t.Fatal("tainted seat's global log included in the trusted set")
	}
	if res.Rejected == 0 {
		t.Error("garbage adversary ran but no rejections surfaced in Stats")
	}
}

// TestClusteredChainForgedCutsRejected is the tentpole's acceptance
// matrix: a Byzantine relay seat running forgecut — rewriting the cut
// records in its own global proposals to claim an untainted cluster with
// an attacker-chosen digest — commits zero forged cuts under both
// engines, whether armed from the start or mid-run. Run itself re-walks
// the committed global order and fails on any forgery carrying a valid
// certificate, so a passing run is the zero-forged-cuts proof; the
// assertions below check the attack actually fired (rejections counted)
// and the untainted clusters stayed live. Whether one run's forging seat
// gets a proposal into the order before the run ends is up to the seed, so
// each case runs four seeds and wants rejections across them.
func TestClusteredChainForgedCutsRejected(t *testing.T) {
	const target = 6
	cases := []struct {
		name  string
		proto protocol.Kind
		armAt time.Duration // 0 = from the start
	}{
		{"acs-start", protocol.HoneyBadger, 0},
		{"acs-midrun", protocol.HoneyBadger, 2 * time.Minute},
		{"dumbo-start", protocol.DumboKind, 0},
		{"dumbo-midrun", protocol.DumboKind, 2 * time.Minute},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var rejectedCuts int
			var rejected uint64
			for seed := int64(1); seed <= 4; seed++ {
				spec := quickMHChainSpec(tc.proto, protocol.CoinSig, target, seed)
				// Flat node 15 = cluster 3, member 3; arming it also arms
				// cluster 3's relay seat on the global tier.
				spec.Scenario = scenario.Plan{}.Then(scenario.ByzAt(tc.armAt, 15, byz.NameForgeCut))
				res, err := Run(spec)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				// The three untainted clusters' cuts must all be ordered.
				if res.Tiers.OrderedCuts < 3*target {
					t.Fatalf("seed %d: cut order holds %d cuts, want >= %d from the untainted clusters",
						seed, res.Tiers.OrderedCuts, 3*target)
				}
				if res.Tiers.GlobalLogs[3] != nil {
					t.Fatalf("seed %d: forging seat's global log included in the trusted set", seed)
				}
				rejectedCuts += res.Tiers.CutCerts.RejectedCuts
				rejected += res.Rejected
			}
			if rejectedCuts == 0 {
				t.Error("forgecut adversary ran on four seeds but no cut was rejected")
			}
			if rejected == 0 {
				t.Error("rejected cuts did not surface in Report.Rejected")
			}
		})
	}
}

// TestClusteredChainForgeDuringFailover combines the two hard paths: an
// untainted cluster's designated relay crashes mid-run (the next member
// holding each certificate relays) while a Byzantine seat forges
// cuts the whole time. The recovered relay must catch up, every
// untainted cluster's certified cuts must be ordered, and zero forged
// cuts survive (Run fails otherwise).
func TestClusteredChainForgeDuringFailover(t *testing.T) {
	spec := quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 6, 10)
	spec.Scenario = scenario.Byz(byz.NameForgeCut, 15).Then(
		scenario.CrashAt(5*time.Minute, 0),    // cluster 0, member 0: relay for epoch 4
		scenario.RecoverAt(11*time.Minute, 0), // back for the tail of the run
	)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Chain.Logs[0]); got != spec.Workload.Epochs {
		t.Fatalf("crashed relay committed %d epochs after recovery, want %d", got, spec.Workload.Epochs)
	}
	if res.Tiers.OrderedCuts < 3*spec.Workload.Epochs {
		t.Fatalf("cut order holds %d cuts, want >= %d despite crash and forgery",
			res.Tiers.OrderedCuts, 3*spec.Workload.Epochs)
	}
	if res.Tiers.CutCerts.RejectedCuts == 0 {
		t.Error("forgecut adversary ran but no cut was rejected")
	}
	if res.Rejected == 0 {
		t.Error("rejected cuts did not surface in Report.Rejected")
	}
}

// TestClusteredChainCertCostPinned pins the seats' side of the cut
// certificates: in the fault-free 4x4 run every seat verifies every cut
// and rejects none, and each of those checks charges the seat's CPU one
// TSVerify of the crypto cost model. (The members' signing, share checks
// and combining run in the share collector, which charges them like
// every other threshold share.)
func TestClusteredChainCertCostPinned(t *testing.T) {
	spec := quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 4, 1)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	cc := res.Tiers.CutCerts
	if cc == nil {
		t.Fatal("clustered chain report carries no cut-certificate stats")
	}
	const clusters, cuts = 4, 4 * 4 // M x target
	if cc.Verifies != clusters*cuts {
		t.Errorf("certificate verifies = %d, want %d (every seat verifies every cut)", cc.Verifies, clusters*cuts)
	}
	if cc.RejectedCuts != 0 {
		t.Errorf("fault-free run rejected %d cuts", cc.RejectedCuts)
	}

	// What one committed global entry charges its seat: a TSVerify per cut.
	d, err := newMHCDriver(spec.normalize())
	if err != nil {
		t.Fatal(err)
	}
	cl := d.clusters[0]
	tx := MakeCutTx(1, 0, [32]byte{}, make([]byte, d.keys[1].SignatureLen()))
	busy := cl.seat().CPU.BusyTotal()
	d.onGlobalCommit(cl, protocol.LogEntry{Txs: [][]byte{tx, tx}})
	cost := crypto.CostFor(spec.Crypto.ThresholdSet)
	if charged := cl.seat().CPU.BusyTotal() - busy; charged != 2*cost.TSVerify || d.certs.Verifies != 2 {
		t.Errorf("two cuts charged the seat %v in %d checks, want %v in 2", charged, d.certs.Verifies, 2*cost.TSVerify)
	}
}

// cutTimeline runs spec's Clustered × Chain deployment and reports when
// the f+1'th member of cluster c committed local epoch e, and when the cut
// (c, e) first entered a seat's global order. Cluster c's members hold
// their shares of that cut back, off the air, until a millisecond after
// the f+1'th commit: without the hold, a member that commits seconds
// before the f+1'th (one that ends the common subset first) has its share
// on the channel long before then, and the f+1'th combines the cut as it
// commits.
func cutTimeline(t *testing.T, spec Spec, c, e int) (committed, ordered time.Duration) {
	t.Helper()
	d, err := newMHCDriver(spec.normalize())
	if err != nil {
		t.Fatal(err)
	}
	now := d.dep.sched.Now
	type heldShare struct {
		tr *core.Transport
		in core.Intent
	}
	var held []heldShare
	holding, epochE := true, map[*core.Transport]bool{}
	release := func() {
		holding = false
		for _, h := range held {
			h.tr.Inject(h.in)
		}
	}
	var commits []time.Duration
	cl := d.clusters[c]
	for i, ch := range cl.local.chains {
		cl.local.nodes[i].Mux().SetInterceptor(interceptFunc(func(tr *core.Transport, in core.Intent) []core.Intent {
			if holding && epochE[tr] && in.Kind == packet.KindGlobal && in.Phase == packet.PhaseDone {
				held = append(held, heldShare{tr, in})
				return nil
			}
			return []core.Intent{in}
		}))
		onOpen := ch.OnEpochOpen
		ch.OnEpochOpen = func(ep int, env *component.Env) {
			if ep == e {
				epochE[env.T] = true
			}
			onOpen(ep, env)
		}
		on := ch.OnCommit
		ch.OnCommit = func(ep int) {
			on(ep)
			if ep == e {
				if commits = append(commits, now()); len(commits) == node.Faults(d.spec.N)+1 {
					d.dep.sched.At(now()+time.Millisecond, release)
				}
			}
		}
	}
	for _, cl := range d.clusters {
		g, on := cl.gchain(), cl.gchain().OnCommit
		g.OnCommit = func(ge int) {
			on(ge)
			for _, tx := range g.Log()[ge].Txs {
				if cut, ok := d.parseCut(tx); ok && cut.cluster == c && cut.epoch == e && ordered == 0 {
					ordered = now()
				}
			}
		}
	}
	if _, err := d.run(); err != nil {
		t.Fatal(err)
	}
	return commits[node.Faults(d.spec.N)], ordered
}

// TestClusteredChainCutSharesOnAir: a cut's shares travel on its cluster's
// channel. Cluster 1's members are cut off from one another just after
// f+1 of them commit local epoch 1 — timed from a crash-free run of the
// same spec — and stay so for ten minutes, far longer than the global
// tier takes to order a cut. Every member holds its share of the cut
// until the partition begins (cutTimeline), so no share can reach a peer,
// and the cut must not reach the global order before the partition heals.
func TestClusteredChainCutSharesOnAir(t *testing.T) {
	const c, e = 1, 1
	spec := quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 3, 1)
	committed, _ := cutTimeline(t, spec, c, e)
	split, heal := committed+time.Millisecond, committed+10*time.Minute
	groups := [][]int{nil} // every other cluster's members, then each of c's alone
	for flat := 0; flat < 16; flat++ {
		if flat/4 == c {
			groups = append(groups, []int{flat})
		} else {
			groups[0] = append(groups[0], flat)
		}
	}
	spec.Scenario = scenario.Plan{}.Then(scenario.PartitionAt(split, groups...), scenario.HealAt(heal))
	again, ordered := cutTimeline(t, spec, c, e)
	if again != committed {
		t.Fatalf("f+1 members committed epoch %d at %v, crash-free at %v: the run diverged before the partition", e, again, committed)
	}
	if ordered < heal {
		t.Fatalf("cut (%d, %d) ordered at %v, during the partition [%v, %v]", c, e, ordered, split, heal)
	}
}

// TestClusteredChainGarbageCutShares arms the garbage adversary on a
// cluster member. Its cut shares keep their index and length, so the
// honest members take them as its: one is refused as it is decoded (its
// value out of range), or it fails the combination it joins, which turns
// that member's tally to proofs and puts the member's own share back on
// the cluster channel in full. Which shares a member combines first is a
// race on the channel, so one honest member, the witness, is made to
// combine the garbage: the honest peers' bare shares and certificates of
// a cut are held back from it until it has put its own share up in full,
// or until the adversary's share can no longer join a combination there
// (it came undecodable, or a certificate came in its place). At every
// seed, an epoch whose decodable garbage share reached the witness in that
// time must turn the witness to proofs, and every cut of the cluster must
// still be certified at every honest member. The run stops once the
// untainted clusters are through, which does not wait on this cluster:
// the witness may still be holding a cut's shares back then, so it lets
// them through, and the cut gets one base retransmission period more to
// be certified.
func TestClusteredChainGarbageCutShares(t *testing.T) {
	const c, bad, witness = 3, 3, 0 // cluster 3: members 3 (flat node 15) and 0
	// fullShare is the entry flag of a share sent with its proof
	// (component's proofFlag).
	const fullShare = 2
	fired := 0
	for seed := int64(1); seed <= 6; seed++ {
		spec := quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 3, seed)
		spec.Scenario = scenario.Byz(byz.NameGarbage, c*4+bad)
		d, err := newMHCDriver(spec.normalize())
		if err != nil {
			t.Fatal(err)
		}
		cl := d.clusters[c]
		key := d.keys[c]
		// combinable is what the witness's collector would combine: a bare
		// share whose value lies in the key's range.
		combinable := func(raw []byte) bool {
			sh, err := component.DecodeBareSigShare(raw)
			return err == nil && sh.X.Sign() > 0 && sh.X.Cmp(key.N) < 0
		}
		// witnessEpoch is the witness's hold on one epoch's cut: what it
		// held back, from whom, and what it saw.
		type witnessEpoch struct {
			h                        core.Handler
			holding, reached, turned bool
			held                     []packet.Section
			from                     []uint16
		}
		release := func(st *witnessEpoch) {
			if !st.holding {
				return
			}
			st.holding = false
			for i, sec := range st.held {
				st.h.HandleSection(st.from[i], sec)
			}
			st.held, st.from = nil, nil
		}
		epochs := make(map[*core.Transport]*witnessEpoch)
		var byEpoch []*witnessEpoch
		cl.local.nodes[witness].Mux().SetInterceptor(interceptFunc(func(tr *core.Transport, in core.Intent) []core.Intent {
			if st := epochs[tr]; st != nil && in.Kind == packet.KindGlobal && in.Phase == packet.PhaseDone && in.Flags&fullShare != 0 {
				st.turned = true
				release(st)
			}
			return []core.Intent{in}
		}))
		ch, m := cl.local.chains[witness], cl.members[witness]
		onOpen := ch.OnEpochOpen
		ch.OnEpochOpen = func(ep int, env *component.Env) {
			onOpen(ep, env)
			st := &witnessEpoch{h: m.globalHandler(m.cuts[ep]), holding: true}
			epochs[env.T] = st
			byEpoch = append(byEpoch, st)
			// A cut whose adversary share never reaches the witness must not
			// keep the witness from its certificate for good.
			env.Sched.At(env.Sched.Now()+2*time.Minute, func() { release(st) })
			env.T.Register(packet.KindGlobal, core.HandlerFunc(func(from uint16, sec packet.Section) {
				if sec.Phase != packet.PhaseDone || !st.holding {
					st.h.HandleSection(from, sec)
					return
				}
				if int(from) == bad {
					last := false
					for _, e := range sec.Entries {
						switch {
						case e.Flags == 0 && combinable(e.Data):
							st.reached = true
						case e.Flags&fullShare == 0:
							last = true // undecodable, or a certificate: no share of it will combine
						}
					}
					st.h.HandleSection(from, sec)
					if last {
						release(st)
					}
					return
				}
				pass, hold := sec, sec
				pass.Entries, hold.Entries = nil, nil
				for _, e := range sec.Entries {
					if e.Flags&fullShare != 0 {
						pass.Entries = append(pass.Entries, e)
					} else {
						e.Data = bytes.Clone(e.Data)
						hold.Entries = append(hold.Entries, e)
					}
				}
				if len(hold.Entries) > 0 {
					st.held, st.from = append(st.held, hold), append(st.from, from)
				}
				if len(pass.Entries) > 0 {
					st.h.HandleSection(from, pass)
				}
			}))
		}
		if _, err := d.run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		certified := func() bool {
			for i, m := range cl.members {
				for ep := 0; ep < spec.Workload.Epochs; ep++ {
					if !cl.local.byz[i] && m.cuts[ep].Cert() == nil {
						return false
					}
				}
			}
			return true
		}
		for _, st := range byEpoch {
			release(st)
		}
		node.Drive(d.dep.sched, d.dep.sched.Now()+core.DefaultConfig(true).RetxInterval, certified)
		for ep, st := range byEpoch {
			if st.reached {
				fired++
				if !st.turned {
					t.Errorf("seed %d: epoch %d's garbage cut share reached the witness, which never turned its tally to proofs", seed, ep)
				}
			}
		}
		for i, m := range cl.members {
			if cl.local.byz[i] {
				continue
			}
			for ep := 0; ep < spec.Workload.Epochs; ep++ {
				if m.cuts[ep].Cert() == nil {
					t.Errorf("seed %d: honest member %d holds no certificate for its cluster's cut of epoch %d", seed, i, ep)
				}
			}
		}
	}
	if fired == 0 {
		t.Error("no garbage cut share reached the witness at any seed")
	}
}

// interceptFunc is a node's outbound-intent interceptor as a function.
type interceptFunc func(t *core.Transport, in core.Intent) []core.Intent

func (f interceptFunc) Outbound(t *core.Transport, in core.Intent) []core.Intent { return f(t, in) }

// TestClusteredChainNoEmptyGlobalEntry: a seat that joins a global epoch
// with no cut of its cluster pending holds its proposal, so on a
// fault-free run no global entry commits empty — the fastest 2f+1 are the
// seats with a cut to order. Without the hold every seed of 1–6 commits
// empty entries: seats that joined on a peer's frame put up empty batches,
// which, being the smallest, win the race against certified cuts.
func TestClusteredChainNoEmptyGlobalEntry(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rep, err := Run(quickMHChainSpec(protocol.DumboKind, protocol.CoinSig, 4, seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The seats' logs agree (Run checks it); seat 0's stands for all.
		var empty []int
		for _, entry := range rep.Tiers.GlobalLogs[0] {
			if len(entry.Txs) == 0 {
				empty = append(empty, entry.Epoch)
			}
		}
		if len(empty) > 0 {
			t.Errorf("seed %d: global epochs %v committed empty (%d entries for %d cuts)",
				seed, empty, rep.Tiers.GlobalEntries, rep.Tiers.OrderedCuts)
		}
	}
}

// TestClusteredChainBeaconDispatch: a member's KindGlobal handler reads
// only PhaseFinish entries as frontier beacons; a 36-byte entry of another
// phase leaves the heard frontier where it was.
func TestClusteredChainBeaconDispatch(t *testing.T) {
	dep, err := newDeployment(quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 2, 1).normalize())
	if err != nil {
		t.Fatal(err)
	}
	nd := dep.locals[0].nodes[0]
	env := nd.Env(4)
	env.T = nd.Mux().Open(0)
	m := &mhcMember{}
	h := m.globalHandler(component.NewCutCert(env, func([]byte) {}))
	frontier := make([]byte, 4+32)
	binary.BigEndian.PutUint32(frontier, 5)
	for _, phase := range []packet.Phase{packet.PhaseDone, packet.PhaseEcho} {
		h.HandleSection(1, packet.Section{Kind: packet.KindGlobal, Phase: phase, Entries: []packet.Entry{{Data: frontier}}})
		if m.heardCuts != 0 {
			t.Fatalf("a 36-byte phase-%d entry moved the heard frontier to %d", phase, m.heardCuts)
		}
	}
	h.HandleSection(1, packet.Section{Kind: packet.KindGlobal, Phase: packet.PhaseFinish, Entries: []packet.Entry{{Data: frontier}}})
	if m.heardCuts != 5 {
		t.Fatalf("beacon heard as frontier %d, want 5", m.heardCuts)
	}
}

// TestClusteredChainDeterministic: same Spec, same Report — the new cell
// preserves run-level determinism (cut relay, beacons, and failover all
// ride the scheduler).
func TestClusteredChainDeterministic(t *testing.T) {
	spec := quickMHChainSpec(protocol.HoneyBadger, protocol.CoinSig, 3, 5)
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.Chain.CommittedTxs != b.Chain.CommittedTxs ||
		a.Accesses != b.Accesses || a.Tiers.OrderedCuts != b.Tiers.OrderedCuts {
		t.Errorf("same seed differs: %v/%d/%d/%d vs %v/%d/%d/%d",
			a.Duration, a.Chain.CommittedTxs, a.Accesses, a.Tiers.OrderedCuts,
			b.Duration, b.Chain.CommittedTxs, b.Accesses, b.Tiers.OrderedCuts)
	}
}
