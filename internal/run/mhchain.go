package run

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/byz"
	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/crypto/threshsig"
	"repro/internal/node"
	"repro/internal/packet"
	"repro/internal/protocol"
	"repro/internal/traffic"
)

// Clustered × Chain: pipelined multi-epoch SMR over the paper's Sec. V-B
// two-tier wireless deployment, composed from M+1 chain groups (chain.go).
// Clustered × OneShot (Fig. 13b) is the same run at depth 1, its clusters
// fed fixed batches instead of client traffic (oneshot.go).
//
// Each cluster is a chain group on its own channel: P nodes running
// protocol.Chain, ordering that cluster's client traffic into a local
// replicated log. One uplink seat per cluster (a second radio+MCU on the
// global channel) is a member of one more chain group over the M seats,
// whose "client transactions" are cluster cuts — (cluster, epoch, digest)
// records of committed local log entries. Every member that commits
// local epoch e signs a share of its cut on e's own transport, and the
// members collect f+1 of them into the cut's certificate on the cluster
// channel, as PRBC collects its DONE proof (component.CutCert: one slot
// of the share tally behind PRBC's DONE proofs, on KindGlobal). Relay
// duty rotates: starting at member e mod P, the first live honest member
// in rotation that holds the certificate hands the certified cut to its
// seat, and the global chain pipelines the cuts of all clusters into the
// cross-cluster total order. If the designated leader is down, the next
// member that already holds the certificate relays (the cut content is
// identical at every honest member). Committed global entries flow back
// down: the relay for global epoch g broadcasts a frontier beacon —
// (ordered-cut count, rolling digest of the global order) — on its newest
// open local epoch transport, so followers continuously learn how far the
// cross-cluster order has advanced.
//
// The scenario engine is wired through both tiers. Crash/recovery acts on
// cluster nodes with full mid-run chain recovery; partitions act within
// cluster channels; loss/jam/delay also cover the global channel; a byz
// event arms its behavior on the member and on the cluster's seat — the
// cluster's uplink is only as trustworthy as its members — so the global
// tier faces a real Byzantine participant. A cluster any byz event ever
// targets is "tainted": relay duty skips its scripted nodes, and the
// global-tier barrier, log agreement, and cut-provenance checks cover
// untainted seats and clusters only (within a cluster, the honest members
// must still agree among themselves). Cuts are authenticated by their
// cluster: every cut carries a threshold certificate combined from f+1
// member shares over (session, cluster, epoch, digest) (cutcert.go), and
// every seat verifies the certificate before counting a committed cut
// into the cross-cluster order — a Byzantine seat (byz "forgecut", which
// pumpCuts applies to the cuts the seat submits) can place forged records
// in the raw global log, but they are rejected at every honest seat
// (core.Stats.Rejected), never enter the cut order or the frontier
// beacons, and the post-run provenance check proves no forgery carried a
// valid certificate.

// beaconKey is the frontier beacon's intent slot on the local channels.
var beaconKey = core.IntentKey{Kind: packet.KindGlobal, Phase: packet.PhaseFinish, Slot: 0}

// entryDigest binds a cut to the exact committed entry content.
func entryDigest(entry protocol.LogEntry) [32]byte {
	h := sha256.New()
	var eb [4]byte
	binary.BigEndian.PutUint32(eb[:], uint32(entry.Epoch))
	h.Write(eb[:])
	h.Write(protocol.EncodeBatch(entry.Txs))
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// mhcMember is the driver-side dissemination state of one cluster node;
// its node, chain engine and scripted-Byzantine mark (which excludes it
// from relay duty) are the cluster's chain group's, at the same index.
type mhcMember struct {
	// latest is the newest open local epoch transport (beacon carrier).
	latest *core.Transport
	// heardCuts/heardDigest is the highest global frontier beacon received.
	heardCuts   int
	heardDigest [32]byte
	// cuts holds the member's cut-certificate tally of every local epoch
	// it opened. A certificate outlives its epoch's transport, like the
	// committed log it certifies.
	cuts map[int]*component.CutCert
}

// mhcCluster is one cluster: its local chain group, the driver-side state
// of each member, and the cluster's seat — member idx of the global chain
// group, Byzantine there when some byz event targets the cluster.
type mhcCluster struct {
	idx     int
	local   *chainGroup
	members []*mhcMember
	seats   *chainGroup
	// nextCut is the lowest local epoch whose cut is not yet submitted.
	nextCut int
	// cuts tracks the global order as this cluster's seat commits it:
	// total cut count and the rolling digest the relays beacon.
	cutCount  int
	cutDigest [32]byte
	// gotCuts[c2] is the set of local epochs for which a cut of cluster
	// c2 appeared in this seat's global log (the global-tier barrier).
	gotCuts []map[int]bool
	// forge is the cut-forgery rule of a seat armed with byz.ForgeCut,
	// applied to every cut it submits; nil while the seat forges nothing.
	forge func(cluster int, digest [32]byte) (int, [32]byte)
}

func (cl *mhcCluster) seat() *node.Node        { return cl.seats.nodes[cl.idx] }
func (cl *mhcCluster) gchain() *protocol.Chain { return cl.seats.chains[cl.idx] }
func (cl *mhcCluster) tainted() bool           { return cl.seats.byz[cl.idx] }

// mhcDriver holds the whole deployment for the lifecycle and callbacks.
type mhcDriver struct {
	spec     Spec
	dep      *deployment
	target   int
	clusters []*mhcCluster
	// seats is the global chain group; its byz members are the seats of
	// tainted clusters.
	seats *chainGroup
	// keys[c] is cluster c's low-threshold public key (threshold f+1):
	// what members sign cut shares under and every seat verifies
	// certificates against.
	keys []*threshsig.PublicKey
	// certs counts the seats' certificate checks and rejections.
	certs CutCertStats
	// clock times a one-shot run's epochs; nil for the chain workload.
	clock *epochClock
}

// member resolves a flat scenario node id to its cluster and index there.
func (d *mhcDriver) member(flat int) (*mhcCluster, int) {
	p := d.spec.Topology.PerCluster
	return d.clusters[flat/p], flat % p
}

// lifecycle adapts the cluster tier to the scenario engine. A byz event
// arms the member's cluster seat too: the cluster's uplink is only as
// trustworthy as its members. A seat armed with byz.ForgeCut forges the
// cuts it submits from then on.
func (d *mhcDriver) lifecycle() lifecycle {
	return lifecycle{
		recovered: d.recovered,
		armed: func(i int, b byz.Behavior) {
			cl, _ := d.member(i)
			cl.seat().SetBehavior(b)
			cl.forge = nil
			if fc, ok := b.(byz.ForgeCut); ok {
				cl.forge = fc.Forge
			}
		},
	}
}

// recovered is mid-run recovery: the member's node resumed its chain
// where it stopped.
func (d *mhcDriver) recovered(flat int) {
	cl, _ := d.member(flat)
	// Both driver-glue directions stalled by a whole-cluster outage must
	// restart here, because no further local commit may come to retrigger
	// them: pending cuts go up (relay duty re-evaluated against the
	// recovered membership), and the current global frontier is
	// re-beaconed down so recovered followers hear it.
	d.pumpCuts(cl)
	d.beacon(cl, len(cl.gchain().Log()))
}

// pumpCuts submits every cut its cluster has certified, in local-epoch
// order. The relay for local epoch e is the first live honest member in
// rotation from e mod P that holds the cut's certificate — the designated
// leader, or, while it is down or still collecting, the next member that
// already holds it. The relay pads the certificate to the cluster key's
// fixed width and hands the cut to its seat, which forges its claim if
// it is armed to.
func (d *mhcDriver) pumpCuts(cl *mhcCluster) {
	p := d.spec.Topology.PerCluster
	for ; cl.nextCut < d.target; cl.nextCut++ {
		e := cl.nextCut
		relay := -1
		for k := 0; k < p && relay < 0; k++ {
			i := (e + k) % p
			if cc := cl.members[i].cuts[e]; !cl.local.byz[i] && !cl.local.nodes[i].Down() && cc != nil && cc.Cert() != nil {
				relay = i
			}
		}
		if relay < 0 {
			return // no live honest member holds the certificate yet
		}
		c, digest := cl.idx, entryDigest(cl.local.chains[relay].Log()[e])
		if cl.forge != nil {
			c, digest = cl.forge(c, digest)
		}
		cert := padCert(d.keys[cl.idx], cl.members[relay].cuts[e].Cert())
		cl.gchain().Submit(MakeCutTx(c, e, digest, cert))
	}
}

// cut is a parsed cluster-cut record.
type cut struct {
	cluster, epoch int
	digest         [32]byte
	cert           []byte
}

// The accept predicate every seat applies to a committed global record —
// and the post-run provenance walk applies again — comes in two steps, so
// a seat can charge the second to its CPU: the record must parse and name
// a cluster and epoch of this deployment (parseCut, free), and its
// threshold certificate must verify (certified, a TSVerify).
func (d *mhcDriver) parseCut(tx []byte) (cut, bool) {
	c, e, dig, cert, ok := parseCutTx(tx)
	return cut{c, e, dig, cert}, ok && c < len(d.clusters) && e < d.target
}

func (d *mhcDriver) certified(c cut) bool {
	return verifyCutCert(d.keys[c.cluster], globalSession, c.cluster, c.epoch, c.digest, c.cert)
}

// foldCut extends a rolling digest of the cut order — what the relays
// beacon — by one accepted record.
func foldCut(rolling *[32]byte, tx []byte) {
	h := sha256.New()
	h.Write(rolling[:])
	h.Write(tx)
	h.Sum(rolling[:0])
}

// onGlobalCommit processes a seat's newly committed global entry: every
// transaction's cut certificate is verified (TSVerify on the seat's CPU)
// before the cut is counted into the cross-cluster order — forged,
// unsigned, or malformed records are rejected and never reach the cut
// tally or the frontier beacons. The beacon for this entry is queued on
// the same serialized CPU, so it always reflects the entry's accepted
// cuts.
func (d *mhcDriver) onGlobalCommit(cl *mhcCluster, entry protocol.LogEntry) {
	seat, g := cl.seat(), entry.Epoch
	for _, tx := range entry.Txs {
		c, ok := d.parseCut(tx)
		if !ok {
			// Malformed or out-of-range: rejected with no crypto spent.
			d.rejectCut(cl)
			continue
		}
		d.certs.Verifies++
		seat.CPU.Exec(seat.Suite.Cost.TSVerify, func() {
			if d.certified(c) {
				d.acceptCut(cl, tx, c)
			} else {
				d.rejectCut(cl)
			}
		})
	}
	seat.CPU.Exec(0, func() { d.beacon(cl, g) })
}

// acceptCut folds a certificate-verified cut into the seat's view of the
// cross-cluster order: the rolling beacon digest, the cut count, and the
// global-tier barrier.
func (d *mhcDriver) acceptCut(cl *mhcCluster, tx []byte, c cut) {
	foldCut(&cl.cutDigest, tx)
	cl.cutCount++
	if cl.gotCuts[c.cluster] == nil {
		cl.gotCuts[c.cluster] = make(map[int]bool)
	}
	cl.gotCuts[c.cluster][c.epoch] = true
	if d.clock != nil && !cl.tainted() {
		d.clock.order(cl.cutCount, c.epoch, !d.clusters[c.cluster].tainted())
	}
}

// rejectCut discards a committed global transaction that failed cut
// authentication, counting it into the seat's Stats.Rejected like every
// other verification discard.
func (d *mhcDriver) rejectCut(cl *mhcCluster) {
	d.certs.RejectedCuts++
	cl.seat().Mux().NoteRejected()
}

// beacon broadcasts the cluster seat's current global frontier — cut
// count plus rolling digest — through the rotating relay's newest open
// local epoch transport. Followers keep the highest count heard. A live
// honest member that has opened no epoch yet — one that crashed before its
// first and has heard no frame since it came back — has nothing to hear a
// beacon on: it learns the frontier directly from its cluster's uplink
// seat, the same driver-level link relays hand cuts up through in the
// other direction.
func (d *mhcDriver) beacon(cl *mhcCluster, g int) {
	p := d.spec.Topology.PerCluster
	var relay *mhcMember
	for k := 0; k < p; k++ {
		i := (g + k) % p
		m := cl.members[i]
		switch {
		case cl.local.byz[i] || cl.local.nodes[i].Down():
			// untrusted or dead: neither relays nor is handed the frontier
		case m.latest == nil:
			m.hear(cl.cutCount, cl.cutDigest[:])
		case relay == nil:
			relay = m
		}
	}
	if relay == nil {
		return // cluster blackout; the next commit re-beacons
	}
	payload := make([]byte, 4+32)
	binary.BigEndian.PutUint32(payload, uint32(cl.cutCount))
	copy(payload[4:], cl.cutDigest[:])
	relay.latest.Update(core.Intent{IntentKey: beaconKey, Data: payload})
	// The relay learned the frontier from its own seat.
	relay.hear(cl.cutCount, cl.cutDigest[:])
}

// hear keeps a frontier (cut count and rolling digest) if it is beyond the
// highest the member has heard.
func (m *mhcMember) hear(count int, digest []byte) {
	if count > m.heardCuts {
		m.heardCuts = count
		copy(m.heardDigest[:], digest)
	}
}

// hookMember wires one member's chain into the driver: the pipeline-depth
// gauge and the cut's tally on local commits, and on every pipeline epoch
// transport the cut-certificate tally and beacon reception.
func (d *mhcDriver) hookMember(cl *mhcCluster, i int) {
	m := cl.members[i]
	chain := cl.local.chains[i]
	chain.OnCommit = func(e int) {
		cl.local.observe(i)
		m.cuts[e].Begin(cutMsg(globalSession, cl.idx, e, entryDigest(chain.Log()[e])))
	}
	chain.OnEpochOpen = func(e int, env *component.Env) {
		m.latest = env.T
		m.cuts[e] = component.NewCutCert(env, func([]byte) { d.pumpCuts(cl) })
		env.T.Register(packet.KindGlobal, m.globalHandler(m.cuts[e]))
	}
}

// globalHandler dispatches a member's KindGlobal sections by phase: frontier
// beacons (PhaseFinish) and the epoch's cut shares or certificate
// (PhaseDone).
func (m *mhcMember) globalHandler(cc *component.CutCert) core.Handler {
	return core.HandlerFunc(func(from uint16, sec packet.Section) {
		switch sec.Phase {
		case packet.PhaseFinish:
			for _, ent := range sec.Entries {
				if len(ent.Data) == 4+32 {
					m.hear(int(binary.BigEndian.Uint32(ent.Data)), ent.Data[4:])
				}
			}
		case packet.PhaseDone:
			cc.HandleSection(from, sec)
		}
	})
}

// runClusteredChain executes the Clustered × Chain cell.
func runClusteredChain(spec Spec) (*Report, error) {
	d, err := newMHCDriver(spec)
	if err != nil {
		return nil, err
	}
	return d.run()
}

// newMHCDriver builds the Clustered × Chain deployment and wires its
// driver; nothing runs until run.
func newMHCDriver(spec Spec) (*mhcDriver, error) {
	M, P := spec.Topology.Clusters, spec.Topology.PerCluster
	dep, err := newDeployment(spec)
	if err != nil {
		return nil, err
	}
	perma := spec.Scenario.DownForever()
	// A byz event taints its whole cluster's uplink seat, so tainted
	// clusters are Byzantine participants of the M-seat global group:
	// more than f_g of them exceeds what the global tier tolerates.
	// Reject upfront, like every other invalid adversarial plan.
	tainted := make(map[int]bool)
	for flat := range dep.byz {
		tainted[flat/P] = true
	}
	if fg := node.Faults(M); len(tainted) > fg {
		return nil, fmt.Errorf("run: byz events taint %d clusters' uplink seats, global tier tolerates f=%d", len(tainted), fg)
	}
	// Every cluster needs f+1 honest members not scripted to stay dead:
	// relay duty and the reference log come from the honest live members,
	// and a cut certificate needs f+1 shares — fewer surviving honest
	// signers would stall the cluster's cuts (and the global barrier)
	// until the deadline. Reject upfront.
	for c := 0; c < M; c++ {
		live := 0
		for i := 0; i < P; i++ {
			if flat := c*P + i; !perma[flat] && !dep.byz[flat] {
				live++
			}
		}
		if f := node.Faults(P); live <= f {
			return nil, fmt.Errorf("run: cluster %d has %d honest live members; cut certificates need f+1 = %d signers", c, live, f+1)
		}
	}
	target := spec.Workload.Epochs

	ccfg, err := chainConfig(spec)
	if err != nil {
		return nil, err
	}
	// The global chain orders cut records: no payload encryption (digests
	// are public), no sharding (each seat proposes exactly its own
	// cluster's cuts), no epoch bound (it runs until every cluster's cuts
	// are ordered), and a cut policy that proposes as soon as one cut is
	// pending — cut cadence, not batch fill, sets the global tempo. A seat
	// that joins a global epoch on a peer's frame with no cut pending holds
	// its proposal (HoldEmpty) until its cluster's next cut, or a cut lost
	// in an earlier epoch, comes back to its pool, or the pool's MaxTxAge
	// passes: its empty batch would carry nothing and, being the smallest,
	// win a fastest-2f+1 place from a certified cut. The cluster keys'
	// signature length sets the certified-cut wire size the batch policy
	// must know.
	gccfg := ccfg
	gccfg.Encrypt = false
	gccfg.MaxEpochs = 0
	gccfg.HoldEmpty = true
	gccfg.Mempool = protocol.MempoolConfig{
		TargetBatchBytes: cutHeaderSize + dep.locals[0].nodes[0].Suite.TSLow.SignatureLen(),
		Shards:           1,
	}

	d := &mhcDriver{spec: spec, dep: dep, target: target, clock: newEpochClock(spec)}
	d.seats = newChainGroup(dep.seats, gccfg, 0, tainted, nil)
	for c, lg := range dep.locals {
		cl := &mhcCluster{idx: c, seats: d.seats, gotCuts: make([]map[int]bool, M)}
		cl.local = newChainGroup(lg, ccfg, c*P, dep.byz, perma)
		for i := range lg.nodes {
			cl.members = append(cl.members, &mhcMember{cuts: make(map[int]*component.CutCert)})
			d.hookMember(cl, i)
		}
		cl.gchain().OnCommit = func(g int) { d.onGlobalCommit(cl, cl.gchain().Log()[g]) }
		d.keys = append(d.keys, lg.nodes[0].Suite.TSLow)
		d.clusters = append(d.clusters, cl)
	}
	dep.wire(d.lifecycle())
	return d, nil
}

// run drives the deployment to the target, checks it and reports.
func (d *mhcDriver) run() (*Report, error) {
	spec, dep, target, M := d.spec, d.dep, d.target, len(d.clusters)
	var locals []*chainGroup
	untainted := 0
	for _, cl := range d.clusters {
		locals = append(locals, cl.local)
		if !cl.tainted() {
			untainted++
		}
	}
	globalDone := func() bool {
		for _, cl := range d.clusters {
			if cl.tainted() {
				continue
			}
			for _, cl2 := range d.clusters {
				if cl2.tainted() {
					continue
				}
				if len(cl.gotCuts[cl2.idx]) < target {
					return false
				}
			}
		}
		return true
	}
	done := func() bool { return localsDone(locals, target) && globalDone() && d.minHeard() >= untainted*target }
	if d.clock != nil {
		barrier := done
		done = func() bool {
			d.clock.tick(dep.sched.Now(), d.clock.heard(d.minHeard()))
			return barrier()
		}
	}

	// Scheduler ties break by post order: the first client arrival (or
	// every one-shot proposal) is in before any chain starts, and the
	// chains start cluster by cluster, each followed by its seat.
	var gen *traffic.Gen
	if d.clock != nil {
		seedOneShot(spec, locals)
	} else {
		gen = startClients(dep.sched, spec, locals)
	}
	for _, cl := range d.clusters {
		for _, c := range cl.local.chains {
			c.Start()
		}
		cl.gchain().Start()
	}

	if err := node.Drive(dep.sched, spec.Deadline, done); err != nil {
		front := make([][]int, M)
		cuts := make([]int, M)
		heard := make([][]int, M)
		gstate := make([]string, M)
		for c, cl := range d.clusters {
			cuts[c] = cl.cutCount
			gstate[c] = fmt.Sprintf("c%d{gfront=%d open=%d pool=%d/%dB nextCut=%d}",
				c, cl.gchain().CommittedEpochs(), cl.gchain().OpenEpochs(),
				cl.gchain().Mempool().Len(), cl.gchain().Mempool().PendingBytes(), cl.nextCut)
			front[c] = cl.local.frontiers()
			for _, m := range cl.members {
				heard[c] = append(heard[c], m.heardCuts)
			}
		}
		return nil, fmt.Errorf("run: clustered chain (%s %s batched=%v depth=%d) at frontiers %v, seat cuts %v, heard %v, global %v: %w",
			spec.Protocol, spec.Coin, spec.Batched, spec.Workload.Window, front, cuts, heard, gstate, err)
	}
	refSeat, err := d.checkSafety()
	if err != nil {
		return nil, err
	}

	rep := spec.report()
	dep.fold(rep)
	if d.clock != nil {
		d.clock.report(rep, locals)
	} else {
		// The Chain section keeps to the counters that sum across
		// clusters: a per-transaction latency sample needs a cross-cluster
		// definition first (every cluster has its own client stream and
		// reference pool).
		chainReport(rep, locals, target, gen)
	}
	certs := d.certs
	rep.Tiers.GlobalEntries = len(refSeat.gchain().Log())
	rep.Tiers.OrderedCuts = refSeat.cutCount
	rep.Tiers.CutCerts = &certs
	rep.Tiers.GlobalLogs = d.seats.logs()
	return rep, nil
}

// minHeard returns the lowest frontier a live honest member of an
// untainted cluster has heard (math.MaxInt if there is none).
func (d *mhcDriver) minHeard() int {
	low := math.MaxInt
	for _, cl := range d.clusters {
		if cl.tainted() {
			continue
		}
		for i, m := range cl.members {
			if cl.local.live[i] {
				low = min(low, m.heardCuts)
			}
		}
	}
	return low
}

// checkSafety runs the post-run safety checks — local agreement per
// cluster, global agreement across untainted seats, cut provenance, and
// follower frontier-digest consistency — and returns the reference seat:
// the untainted one with the longest cut order.
func (d *mhcDriver) checkSafety() (*mhcCluster, error) {
	M := len(d.clusters)
	// Local tier: the honest members of every cluster (tainted or not)
	// must have committed identical gap-free logs.
	for c, cl := range d.clusters {
		if err := cl.local.check(); err != nil {
			return nil, fmt.Errorf("run: cluster %d: %w", c, err)
		}
	}

	// Global tier: untainted seats must agree on the cross-cluster order.
	var refSeat *mhcCluster
	for _, cl := range d.clusters {
		if !cl.tainted() && (refSeat == nil || cl.cutCount > refSeat.cutCount) {
			refSeat = cl
		}
	}
	if refSeat == nil {
		return nil, fmt.Errorf("run: every cluster is Byzantine-tainted; no trusted global order")
	}
	if err := d.seats.check(); err != nil {
		return nil, fmt.Errorf("run: global tier: %w", err)
	}

	// Cut provenance: walk the longest untainted global order once,
	// applying the accept predicate the seats applied in-run and
	// rebuilding the rolling beacon digests from the accepted cuts. Every
	// accepted cut claiming an untainted cluster must match that cluster's
	// true committed entry (a mismatch here would mean a forgery carried a
	// valid f+1 certificate — a broken threshold guarantee), and the true
	// cut of every untainted (cluster, epoch) must appear.
	seen := make([]map[int]bool, M)
	for c := range seen {
		seen[c] = make(map[int]bool)
	}
	var rolling [32]byte
	digests := make([][32]byte, 1, refSeat.cutCount+1)
	for _, entry := range refSeat.gchain().Log() {
		for _, tx := range entry.Txs {
			c, ok := d.parseCut(tx)
			if !ok || !d.certified(c) {
				continue // rejected at every seat; only a tainted seat submits these
			}
			foldCut(&rolling, tx)
			digests = append(digests, rolling)
			if d.clusters[c.cluster].tainted() {
				continue
			}
			// The cluster's reference member exists: the pre-run check
			// admitted only clusters with f+1 honest live members.
			if want := entryDigest(d.clusters[c.cluster].local.ref().Log()[c.epoch]); c.digest != want {
				return nil, fmt.Errorf("run: global order holds a forged cut with a valid certificate for cluster %d epoch %d", c.cluster, c.epoch)
			}
			seen[c.cluster][c.epoch] = true
		}
	}
	for c, cl := range d.clusters {
		if cl.tainted() {
			continue
		}
		for e := 0; e < d.target; e++ {
			if !seen[c][e] {
				return nil, fmt.Errorf("run: cluster %d epoch %d missing from the global order", c, e)
			}
		}
	}

	// Follower dissemination: every honest member of an untainted cluster
	// must have heard a frontier beacon consistent with the global order.
	for c, cl := range d.clusters {
		if cl.tainted() {
			continue
		}
		for i, m := range cl.members {
			if !cl.local.live[i] {
				continue
			}
			if m.heardCuts > refSeat.cutCount {
				return nil, fmt.Errorf("run: cluster %d member %d heard frontier %d beyond the global order (%d)",
					c, i, m.heardCuts, refSeat.cutCount)
			}
			if !bytes.Equal(m.heardDigest[:], digests[m.heardCuts][:]) {
				return nil, fmt.Errorf("run: cluster %d member %d heard a frontier digest diverging from the global order", c, i)
			}
		}
	}
	return refSeat, nil
}
