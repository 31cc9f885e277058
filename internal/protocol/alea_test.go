package protocol

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/wireless"
)

// testEnvs wires 4 batched nodes, f = 1, and opens epoch 0 on each: the
// environments the engine tests of this package run one epoch on.
func testEnvs(t *testing.T, seed int64, loss float64) (*sim.Scheduler, []*component.Env) {
	t.Helper()
	net := wireless.DefaultConfig()
	net.LossProb = loss
	sched := sim.New(seed)
	ch := wireless.NewChannel(sched, net)
	suites, err := crypto.Deal(4, 1, crypto.LightConfig(), rand.New(rand.NewSource(seed^0x5eed)))
	if err != nil {
		t.Fatal(err)
	}
	envs := make([]*component.Env, len(suites))
	for i := range envs {
		nd := node.New(sched, ch, wireless.NodeID(i), suites[i], node.Config{Transport: core.DefaultConfig(true), Seed: seed})
		envs[i] = nd.Env(4)
		envs[i].T = nd.Mux().Open(0)
	}
	return sched, envs
}

// aleaNet runs a 4-node Alea network to completion and returns the
// instances for inspection.
func aleaNet(t *testing.T, seed int64, coin CoinKind, loss float64) []*Alea {
	t.Helper()
	sched, envs := testEnvs(t, seed, loss)
	done := make([]bool, len(envs))
	insts := make([]*Alea, len(envs))
	for i, env := range envs {
		i := i
		insts[i] = newAlea(env, Options{Coin: coin, OnDecide: func() { done[i] = true }}).(*Alea)
		insts[i].Start(aleaProposal(i))
	}
	allDone := func() bool {
		for _, d := range done {
			if !d {
				return false
			}
		}
		return true
	}
	for sched.Now() < 60*time.Minute && !allDone() {
		if !sched.Step() {
			break
		}
	}
	if !allDone() {
		for i, a := range insts {
			t.Logf("node %d: delivered=%d started=%v round=%d accepted=%d done=%v",
				i, a.vcbc.DeliveredCount(), a.started, a.round, a.acceptedN, done[i])
		}
		t.Fatalf("alea stuck at %v", sched.Now())
	}
	return insts
}

func aleaProposal(i int) []byte {
	prop := make([]byte, 64)
	binary.BigEndian.PutUint32(prop, uint32(i))
	return prop
}

// TestAleaAgreement pins the engine's core contract: every node decides
// the same slot-indexed outputs, exactly 2f+1 queues are accepted, and
// each accepted slot carries the proposer's exact batch (validity).
func TestAleaAgreement(t *testing.T) {
	for _, tc := range []struct {
		name string
		coin CoinKind
		loss float64
	}{
		{"sig-coin", CoinSig, 0},
		{"flip-coin", CoinFlip, 0},
		{"lossy", CoinSig, 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			insts := aleaNet(t, 7, tc.coin, tc.loss)
			ref := insts[0].Outputs()
			if len(ref) != 4 {
				t.Fatalf("want 4 output slots, got %d", len(ref))
			}
			accepted := 0
			for q, out := range ref {
				if out == nil {
					continue
				}
				accepted++
				if !bytes.Equal(out, aleaProposal(q)) {
					t.Errorf("slot %d: output is not proposer %d's batch", q, q)
				}
			}
			if accepted != 3 {
				t.Errorf("want exactly 2f+1=3 accepted queues, got %d", accepted)
			}
			for i, a := range insts[1:] {
				out := a.Outputs()
				if len(out) != len(ref) {
					t.Fatalf("node %d: %d slots vs %d", i+1, len(out), len(ref))
				}
				for q := range ref {
					if !bytes.Equal(out[q], ref[q]) {
						t.Errorf("node %d disagrees at slot %d", i+1, q)
					}
				}
			}
		})
	}
}

// TestAleaOrder pins the common permutation: deterministic for an epoch
// identity, a valid permutation, and epoch-rotated. The pinned orders are
// those a fresh generator seeded from the identity draws, in any order of
// calls on the reused ones.
func TestAleaOrder(t *testing.T) {
	for _, c := range []struct {
		domain  string
		session uint32
		epoch   uint16
		want    []int
	}{
		{"alea-pi", 42, 3, []int{2, 4, 0, 1, 5, 3, 6}},
		{"dumbo-pi", 7, 100, []int{1, 5, 8, 2, 9, 11, 0, 3, 10, 12, 4, 6, 7}},
		{"alea-pi", 1, 65535, []int{1, 2, 3, 0}},
		{"alea-pi", 42, 3, []int{2, 4, 0, 1, 5, 3, 6}},
	} {
		if got := commonPermutation(c.domain, c.session, c.epoch, len(c.want)); !slices.Equal(got, c.want) {
			t.Errorf("%s session %d epoch %d: order %v, want %v", c.domain, c.session, c.epoch, got, c.want)
		}
	}

	a := commonPermutation("alea-pi", 42, 3, 7)
	b := commonPermutation("alea-pi", 42, 3, 7)
	seen := make([]bool, 7)
	for i, v := range a {
		if v != b[i] {
			t.Fatal("order not deterministic")
		}
		if v < 0 || v >= 7 || seen[v] {
			t.Fatalf("not a permutation: %v", a)
		}
		seen[v] = true
	}
	rotated := false
	for e := uint16(0); e < 8 && !rotated; e++ {
		c := commonPermutation("alea-pi", 42, e, 7)
		for i := range a {
			if c[i] != a[i] {
				rotated = true
				break
			}
		}
	}
	if !rotated {
		t.Error("order never rotates across epochs")
	}
}

// TestCommonPermutationConcurrent: concurrent simulations draw their
// orders from the shared generators at once, and each gets its own.
func TestCommonPermutationConcurrent(t *testing.T) {
	want := []int{1, 5, 8, 2, 9, 11, 0, 3, 10, 12, 4, 6, 7}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := commonPermutation("dumbo-pi", 7, 100, len(want)); !slices.Equal(got, want) {
					t.Errorf("order %v, want %v", got, want)
					return
				}
				commonPermutation("alea-pi", uint32(i), uint16(i), 4+i%10)
			}
		}()
	}
	wg.Wait()
}

// TestEngineRegistry covers the registry surface the drivers and the
// conformance suite rely on: the builtin set, lookup, encrypt defaults,
// and Register/restore semantics.
func TestEngineRegistry(t *testing.T) {
	kinds := Kinds()
	want := []Kind{HoneyBadger, BEAT, DumboKind, AleaKind}
	if len(kinds) != len(want) {
		t.Fatalf("builtin kinds = %v, want %v", kinds, want)
	}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("builtin kinds = %v, want %v", kinds, want)
		}
	}
	if !DefaultEncrypt(HoneyBadger) || DefaultEncrypt(AleaKind) || DefaultEncrypt("nope") {
		t.Error("DefaultEncrypt defaults wrong")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup found an unregistered kind")
	}
	restore := Register(Engine{Kind: "stub", DefaultEncrypt: true})
	if _, ok := Lookup("stub"); !ok {
		t.Error("registered stub not found")
	}
	if len(Kinds()) != len(want)+1 {
		t.Error("stub did not append")
	}
	restore()
	if _, ok := Lookup("stub"); ok {
		t.Error("restore did not remove the stub")
	}
	// Replacement path: same Kind overrides in place, restore reinstates.
	restore = Register(Engine{Kind: AleaKind, DefaultEncrypt: true})
	if !DefaultEncrypt(AleaKind) || len(Kinds()) != len(want) {
		t.Error("same-kind Register did not replace in place")
	}
	restore()
	if DefaultEncrypt(AleaKind) {
		t.Error("restore did not reinstate the builtin alea entry")
	}
}
