package protocol

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/node"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// holdNet is four HoneyBadger chains under HoldEmpty on a loss-free
// channel, with no client: each test hands its nodes their transactions,
// one 64-byte transaction per cut. It records when each node opened each
// epoch, put up its own proposal there and committed it.
type holdNet struct {
	sched     *sim.Scheduler
	nodes     []*node.Node
	chains    []*Chain
	opened    []map[int]time.Duration
	proposed  []map[int]time.Duration
	committed []map[int]time.Duration
	// epoch names each epoch transport the chains opened.
	epoch map[*core.Transport]int
	// drop, if set, withholds node i's proposal in epoch e from the air.
	drop func(i, e int) bool
}

func newHoldNet(t *testing.T, seed int64, window int) *holdNet {
	t.Helper()
	net := wireless.DefaultConfig()
	net.LossProb = 0
	g := &holdNet{sched: sim.New(seed), epoch: make(map[*core.Transport]int)}
	ch := wireless.NewChannel(g.sched, net)
	suites, err := crypto.Deal(4, 1, crypto.LightConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ChainConfig{Protocol: HoneyBadger, Coin: CoinSig, Window: window, HoldEmpty: true,
		Mempool: MempoolConfig{TargetBatchBytes: 64, MaxBatchBytes: 64, Shards: 1}}
	for i := range suites {
		nd := node.New(g.sched, ch, wireless.NodeID(i), suites[i], node.Config{Transport: core.DefaultConfig(true), Seed: seed})
		c := NewChain(*nd.Env(4), nd.Mux(), cfg)
		g.nodes, g.chains = append(g.nodes, nd), append(g.chains, c)
		g.opened = append(g.opened, make(map[int]time.Duration))
		g.proposed = append(g.proposed, make(map[int]time.Duration))
		g.committed = append(g.committed, make(map[int]time.Duration))
		nd.Mux().SetInterceptor(proposalTap{g, i})
		c.OnEpochOpen = func(e int, env *component.Env) { g.opened[i][e], g.epoch[env.T] = g.sched.Now(), e }
		c.OnCommit = func(e int) { g.committed[i][e] = g.sched.Now() }
	}
	for _, c := range g.chains {
		c.Start()
	}
	return g
}

// proposalTap records node i's first proposal intent of each epoch: its
// own slot's RBC INITIAL.
type proposalTap struct {
	g *holdNet
	i int
}

func (p proposalTap) Outbound(t *core.Transport, in core.Intent) []core.Intent {
	if in.Kind != packet.KindRBC || in.Phase != packet.PhaseInitial || int(in.Slot) != p.i {
		return []core.Intent{in}
	}
	e := p.g.epoch[t]
	if _, seen := p.g.proposed[p.i][e]; !seen {
		p.g.proposed[p.i][e] = p.g.sched.Now()
	}
	if p.g.drop != nil && p.g.drop(p.i, e) {
		return nil
	}
	return []core.Intent{in}
}

// until steps the simulation until done or a virtual hour has passed.
func (g *holdNet) until(t *testing.T, what string, done func() bool) {
	t.Helper()
	for !done() {
		if g.sched.Now() > time.Hour || !g.sched.Step() {
			t.Fatalf("%s: not by %v", what, g.sched.Now())
		}
	}
}

// hasTx reports whether node 0's log entry for epoch e holds tx.
func (g *holdNet) hasTx(e int, tx []byte) bool {
	for _, got := range g.chains[0].Log()[e].Txs {
		if string(got) == string(tx) {
			return true
		}
	}
	return false
}

// TestChainHoldsEmptyProposal: a chain under HoldEmpty that joins an epoch
// on a peer's frame, with nothing in its pool, proposes nothing until a
// transaction is submitted to it, a cut it lost in an earlier epoch is
// requeued at that epoch's commit, or its pool's maxTxAge has passed since
// it joined; the epoch's instance votes meanwhile. A crashed chain's hold
// does not run while it is down, and runs once it recovers.
func TestChainHoldsEmptyProposal(t *testing.T) {
	tx := func(seq int) []byte { return MakeClientTx(seq, 64) }

	t.Run("submit-and-age", func(t *testing.T) {
		g := newHoldNet(t, 1, 1)
		g.chains[0].Submit(tx(0))
		g.until(t, "every node opens epoch 0", func() bool {
			return len(g.opened[1]) > 0 && len(g.opened[2]) > 0 && len(g.opened[3]) > 0
		})
		mid := g.opened[1][0] + maxTxAge/2
		g.sched.At(mid, func() {}) // a stop: the channel is quiet by then
		g.until(t, "half the hold", func() bool { return g.sched.Now() >= mid })
		for i := 1; i < 4; i++ {
			if at, ok := g.proposed[i][0]; ok {
				t.Fatalf("node %d joined epoch 0 at %v with an empty pool and proposed at %v", i, g.opened[i][0], at)
			}
		}
		g.chains[1].Submit(tx(1))
		if at, ok := g.proposed[1][0]; !ok || at != g.sched.Now() {
			t.Fatalf("node 1 did not propose as its transaction came (%v, %v)", at, ok)
		}
		g.until(t, "epoch 0 commits everywhere", func() bool {
			for _, c := range g.chains {
				if c.CommittedEpochs() < 1 {
					return false
				}
			}
			return true
		})
		for i := 2; i < 4; i++ {
			if want := g.opened[i][0] + maxTxAge; g.proposed[i][0] != want {
				t.Errorf("node %d proposed at %v, want its join %v plus maxTxAge", i, g.proposed[i][0], g.opened[i][0])
			}
		}
		if !g.hasTx(0, tx(0)) || !g.hasTx(0, tx(1)) || len(g.chains[0].Log()[0].Txs) != 2 {
			t.Errorf("epoch 0 committed %d transactions, want nodes 0 and 1's", len(g.chains[0].Log()[0].Txs))
		}
		if err := CheckLogs(g.chains); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("requeue", func(t *testing.T) {
		// Two epochs in flight. Nodes 0 and 1 have a cut for each, node 2
		// and node 3 one for epoch 0; node 3's is withheld from the air, so
		// it loses epoch 0 and returns to node 3's pool at the commit.
		// Epoch 1 holds at nodes 2 and 3, and cannot decide without node 3
		// or node 2's proposal; node 3's requeued cut decides it before
		// node 2's hold runs out at maxTxAge.
		g := newHoldNet(t, 1, 2)
		g.drop = func(i, e int) bool { return i == 3 && e == 0 }
		for i, c := range g.chains {
			c.Submit(tx(10 * i))
			if i < 2 {
				c.Submit(tx(10*i + 1))
			}
		}
		g.until(t, "node 3 commits epoch 0", func() bool { return g.chains[3].CommittedEpochs() >= 1 })
		if g.hasTx(0, tx(30)) {
			t.Fatal("node 3's withheld cut committed in epoch 0")
		}
		if at, ok := g.proposed[3][1]; !ok || at != g.committed[3][0] {
			t.Fatalf("node 3 proposed in epoch 1 at %v (%v), want the commit of epoch 0 at %v", at, ok, g.committed[3][0])
		}
		g.until(t, "epoch 1 commits everywhere", func() bool {
			for _, c := range g.chains {
				if c.CommittedEpochs() < 2 {
					return false
				}
			}
			return true
		})
		if !g.hasTx(1, tx(30)) {
			t.Error("node 3's requeued cut is not in epoch 1")
		}
		if at, ok := g.proposed[2][1]; ok {
			t.Errorf("node 2 proposed in epoch 1 at %v with an empty pool", at)
		}
		if err := CheckLogs(g.chains); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("crash", func(t *testing.T) {
		// Node 2 crashes holding epoch 0 and stays down past its hold's
		// deadline: the hold does not run while it is down. It runs at the
		// recovery, the deadline having passed, and the node commits the
		// epoch the others decided meanwhile.
		g := newHoldNet(t, 1, 1)
		g.chains[0].Submit(tx(0))
		g.until(t, "node 2 opens epoch 0", func() bool { return len(g.opened[2]) > 0 })
		g.nodes[2].Crash()
		deadline := g.opened[2][0] + maxTxAge
		g.until(t, "epoch 0 commits at the others", func() bool {
			return g.sched.Now() > deadline && g.chains[0].CommittedEpochs() >= 1 && g.chains[1].CommittedEpochs() >= 1 && g.chains[3].CommittedEpochs() >= 1
		})
		g.sched.RunFor(time.Minute)
		if at, ok := g.proposed[2][0]; ok {
			t.Errorf("crashed node 2 proposed at %v", at)
		}
		for _, i := range []int{1, 3} {
			if want := g.opened[i][0] + maxTxAge; g.proposed[i][0] != want {
				t.Errorf("node %d proposed at %v, want its join %v plus maxTxAge", i, g.proposed[i][0], g.opened[i][0])
			}
		}
		back := g.sched.Now()
		g.nodes[2].Recover()
		g.until(t, "node 2 commits epoch 0", func() bool { return g.chains[2].CommittedEpochs() >= 1 })
		if at, ok := g.proposed[2][0]; !ok || at != back {
			t.Errorf("recovered node 2 proposed at %v (%v), want its recovery at %v", at, ok, back)
		}
		if err := CheckLogs(g.chains); err != nil {
			t.Fatal(err)
		}
	})
}
