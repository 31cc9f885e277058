package protocol

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// gcNet is four chains, one epoch at a time, so the GC lag is 3: an epoch
// may close gcLag commits after its own and must close gcHold lags after
// it; a client hands every node that is up a transaction every two seconds.
// admitted records, by node, when its Submit took each transaction.
type gcNet struct {
	sched    *sim.Scheduler
	nodes    []*node.Node
	chains   []*Chain
	admitted []map[string]time.Duration
}

// gcWindow is gcNet's pipeline depth and gcLag the GC lag it sets.
const (
	gcWindow = 1
	gcLag    = gcWindow + 2
)

func newGCNet(t *testing.T, seed int64) *gcNet {
	t.Helper()
	net := wireless.DefaultConfig()
	net.LossProb = 0
	g := &gcNet{sched: sim.New(seed)}
	ch := wireless.NewChannel(g.sched, net)
	suites, err := crypto.Deal(4, 1, crypto.LightConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ChainConfig{Protocol: HoneyBadger, Coin: CoinSig, Window: gcWindow}
	for i := range suites {
		nd := node.New(g.sched, ch, wireless.NodeID(i), suites[i], node.Config{Transport: core.DefaultConfig(true), Seed: seed})
		g.nodes = append(g.nodes, nd)
		g.chains = append(g.chains, NewChain(*nd.Env(4), nd.Mux(), cfg))
		g.admitted = append(g.admitted, make(map[string]time.Duration))
	}
	seq := 0
	var client func()
	client = func() {
		for i, c := range g.chains {
			if tx := MakeClientTx(seq, 64); !g.nodes[i].Down() && c.Submit(tx) {
				g.admitted[i][string(tx)] = g.sched.Now()
			}
		}
		seq++
		g.sched.PostAfter(2*time.Second, client)
	}
	g.sched.PostAfter(0, client)
	for _, c := range g.chains {
		c.Start()
	}
	return g
}

// until steps the simulation until done or a virtual day has passed.
func (g *gcNet) until(t *testing.T, what string, done func() bool) {
	t.Helper()
	for !done() {
		if g.sched.Now() > 24*time.Hour || !g.sched.Step() {
			t.Fatalf("%s: not by %v", what, g.sched.Now())
		}
	}
}

// open reports whether node i still holds epoch e's transport.
func (g *gcNet) open(i, e int) bool { return g.nodes[i].Mux().Lookup(uint16(e)) != nil }

// TestGCWaitsForPeersFrontiers: node 3 crashes; the epoch it was working on
// stays open at the survivors while they commit past it — past the GC lag —
// and serves node 3's catch-up when it comes back. Once node 3's frames
// show it past the epoch, the next commit closes it. Crashed for good
// instead, node 3 holds the epoch open only gcHold lags behind the
// frontier.
func TestGCWaitsForPeersFrontiers(t *testing.T) {
	for _, recovers := range []bool{true, false} {
		name := map[bool]string{true: "peer-recovers", false: "peer-stays-down"}[recovers]
		t.Run(name, func(t *testing.T) {
			g := newGCNet(t, 3)
			// Node 3 crashes inside the epoch its frames last named.
			g.until(t, "two epochs committed and a third under way", func() bool {
				return g.chains[3].CommittedEpochs() >= 2 && g.nodes[0].Mux().Heard(3) == g.chains[3].CommittedEpochs()
			})
			g.nodes[3].Crash()
			needed := g.chains[3].CommittedEpochs()
			// The survivors commit past the needed epoch by more than the lag.
			g.until(t, "survivors move on", func() bool { return g.chains[0].CommittedEpochs() > needed+gcLag+1 })
			for i := 0; i < 3; i++ {
				if !g.open(i, needed) {
					t.Fatalf("node %d closed epoch %d with node 3 still in it", i, needed)
				}
				if g.open(i, needed-1) {
					t.Errorf("node %d still holds epoch %d, which every peer has committed", i, needed-1)
				}
			}
			if !recovers {
				g.until(t, "the bound", func() bool {
					for _, c := range g.chains[:3] {
						if c.CommittedEpochs() <= needed+gcHold*gcLag {
							return false
						}
					}
					return true
				})
				for i := 0; i < 3; i++ {
					if g.open(i, needed) {
						t.Errorf("node %d still holds epoch %d %d commits later", i, needed, gcHold*gcLag+1)
					}
				}
				return
			}
			g.nodes[3].Recover()
			g.until(t, "node 3 catches up", func() bool { return g.chains[3].CommittedEpochs() > needed })
			// Node 3's frames now name epochs past the needed one; the
			// survivors' next commit closes it.
			frontier := g.chains[0].CommittedEpochs()
			g.until(t, "the next commit", func() bool {
				for _, c := range g.chains[:3] {
					if c.CommittedEpochs() <= frontier+1 {
						return false
					}
				}
				return true
			})
			for i := 0; i < 3; i++ {
				if g.open(i, needed) {
					t.Errorf("node %d still holds epoch %d after node 3 moved past it", i, needed)
				}
			}
			if err := CheckLogs(g.chains); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTxLatencySample: a node's tx-latency sample holds one entry per
// transaction it admitted and committed — its commit instant minus its
// Submit instant — in commit order, and none for the client's arrivals
// while it was down, which it commits too once it is back.
func TestTxLatencySample(t *testing.T) {
	g := newGCNet(t, 5)
	c := g.chains[3]
	var want []time.Duration
	unadmitted := 0
	c.OnCommit = func(int) {
		log := c.Log()
		for _, tx := range log[len(log)-1].Txs {
			if at, ok := g.admitted[3][string(tx)]; ok {
				want = append(want, g.sched.Now()-at)
			} else {
				unadmitted++
			}
		}
	}
	g.until(t, "two epochs committed", func() bool { return c.CommittedEpochs() >= 2 })
	g.nodes[3].Crash()
	back := g.sched.Now() + time.Minute
	g.until(t, "a minute of arrivals", func() bool { return g.sched.Now() >= back })
	g.nodes[3].Recover()
	frontier := g.chains[0].CommittedEpochs()
	g.until(t, "node 3 commits past the survivors' frontier", func() bool { return c.CommittedEpochs() > frontier+1 })
	if unadmitted == 0 || len(want) == 0 {
		t.Fatalf("node 3 committed %d transactions it admitted and %d it did not; want both", len(want), unadmitted)
	}
	if got := c.TxLatencies(); !slices.Equal(got, want) {
		t.Fatalf("tx-latency sample %v, want %v", got, want)
	}
}
