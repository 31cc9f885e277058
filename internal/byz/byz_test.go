package byz

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/wireless"
)

func testCtx(seed int64) Ctx {
	return Ctx{Rand: rand.New(rand.NewSource(seed))}
}

func TestNewCoversVocabulary(t *testing.T) {
	for _, name := range Names() {
		b, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, b.Name())
		}
	}
	if _, err := New("omniscient"); err == nil {
		t.Error("New accepted an unknown behavior")
	}
}

func TestWithholdAlwaysDropsShares(t *testing.T) {
	w := Withhold{}
	ctx := testCtx(1)
	for _, ph := range []packet.Phase{packet.PhaseDone, packet.PhaseShare, packet.PhaseDecShare, packet.PhaseRepair} {
		in := core.Intent{IntentKey: core.IntentKey{Kind: packet.KindPRBC, Phase: ph}, Data: []byte{1}}
		for i := 0; i < 32; i++ {
			if out := w.Rewrite(ctx, in); out != nil {
				t.Fatalf("phase %d leaked through Withhold", ph)
			}
		}
	}
	// Other phases drop probabilistically: over many draws both outcomes occur.
	in := core.Intent{IntentKey: core.IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho}, Data: []byte{1}}
	dropped, kept := 0, 0
	for i := 0; i < 256; i++ {
		if out := w.Rewrite(ctx, in); out == nil {
			dropped++
		} else {
			kept++
		}
	}
	if dropped == 0 || kept == 0 {
		t.Errorf("Withhold on votes: dropped=%d kept=%d, want a mix", dropped, kept)
	}
}

func TestFlipVotesInverts(t *testing.T) {
	f := FlipVotes{}
	ctx := testCtx(1)
	bval := core.Intent{IntentKey: core.IntentKey{Kind: packet.KindABA, Phase: packet.PhaseBval}, Data: []byte{0b01}}
	if out := f.Rewrite(ctx, bval); out[0].Data[0] != 0b10 {
		t.Errorf("BVAL bits 01 -> %02b, want 10", out[0].Data[0])
	}
	aux := core.Intent{IntentKey: core.IntentKey{Kind: packet.KindABA, Phase: packet.PhaseAux}, Data: []byte{1}}
	if out := f.Rewrite(ctx, aux); out[0].Data[0] != 0 {
		t.Error("AUX vote 1 not flipped to 0")
	}
	// Bracha view: binary votes flip, bot (2) and absent (3) survive.
	view := core.Intent{IntentKey: core.IntentKey{Kind: packet.KindABA, Phase: packet.PhaseVote1}, Data: []byte{0, 1, 2, 3}}
	if out := f.Rewrite(ctx, view); !bytes.Equal(out[0].Data, []byte{1, 0, 2, 3}) {
		t.Errorf("Bracha view flip = %v", out[0].Data)
	}
	// Non-ABA state passes through untouched.
	echo := core.Intent{IntentKey: core.IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseEcho}, Data: []byte{1}}
	if out := f.Rewrite(ctx, echo); !bytes.Equal(out[0].Data, echo.Data) {
		t.Error("FlipVotes touched non-ABA state")
	}
}

func TestGarbageScramblesCryptoPhases(t *testing.T) {
	g := Garbage{}
	ctx := testCtx(1)
	share := core.Intent{
		IntentKey: core.IntentKey{Kind: packet.KindPRBC, Phase: packet.PhaseDone},
		Data:      bytes.Repeat([]byte{7}, 90),
	}
	out := g.Rewrite(ctx, share)
	if len(out) != 1 || bytes.Equal(out[0].Data, share.Data) {
		t.Error("Garbage left a threshold share intact")
	}
	if len(out[0].Data) != len(share.Data) {
		t.Errorf("Garbage changed share length %d -> %d", len(share.Data), len(out[0].Data))
	}
	vote := core.Intent{IntentKey: core.IntentKey{Kind: packet.KindABA, Phase: packet.PhaseAux}, Data: []byte{1}}
	if out := g.Rewrite(ctx, vote); !bytes.Equal(out[0].Data, vote.Data) {
		t.Error("Garbage touched a non-target phase")
	}
}

// TestEquivocatePutsBothVariantsOnTheAir drives a real transport pair:
// the Byzantine sender's first snapshot carries the true value, and after
// the scripted delay the conflicting variant replaces it — a peer that
// keeps listening sees both.
func TestEquivocatePutsBothVariantsOnTheAir(t *testing.T) {
	sched := sim.New(1)
	cfg := wireless.DefaultConfig()
	cfg.LossProb = 0
	ch := wireless.NewChannel(sched, cfg)
	auth := &core.SizedAuth{Len: 56}
	mk := func(id int) *core.Transport {
		tcfg := core.DefaultConfig(true)
		tcfg.RetxInterval = 0
		tr := core.New(sched, sim.NewCPU(sched), nil, auth, tcfg)
		tr.BindStation(ch.Attach(wireless.NodeID(id), tr))
		return tr
	}
	sender, receiver := mk(0), mk(1)
	sender.SetInterceptor(&Interceptor{
		Rand:     rand.New(rand.NewSource(9)),
		Sched:    sched,
		Behavior: Equivocate{},
	})
	var got [][]byte
	receiver.Register(packet.KindRBC, core.HandlerFunc(func(from uint16, sec packet.Section) {
		for _, e := range sec.Entries {
			got = append(got, append([]byte(nil), e.Data...))
		}
	}))
	value := []byte("proposal-A")
	sender.Update(core.Intent{
		IntentKey: core.IntentKey{Kind: packet.KindRBC, Phase: packet.PhaseInitial, Slot: 0},
		Data:      value,
	})
	sched.RunUntil(30 * time.Second)
	var sawTrue, sawConflict bool
	for _, d := range got {
		if bytes.Equal(d, value) {
			sawTrue = true
		} else if bytes.Equal(d, conflictOf(value)) {
			sawConflict = true
		}
	}
	if !sawTrue || !sawConflict {
		t.Fatalf("receiver saw true=%v conflict=%v across %d deliveries; equivocation needs both",
			sawTrue, sawConflict, len(got))
	}
}

// TestForgeCutReseals: the forged-cut adversary is its batch's proposer,
// so its forgery carries a valid seal and reaches the cut certificates,
// which are the defense it tests.
func TestForgeCutReseals(t *testing.T) {
	cut := make([]byte, forgedCutMin+8)
	honest := protocol.SealBatch(protocol.EncodeBatch([][]byte{cut, []byte("short")}))
	forged := forgeBatch(honest)
	if forged == nil || len(forged) != len(honest) {
		t.Fatalf("forgeBatch = %d B from a %d B batch of one cut record", len(forged), len(honest))
	}
	txs, err := protocol.OpenBatch(forged)
	if err != nil {
		t.Fatalf("the forgery fails its seal: %v", err)
	}
	if bytes.Equal(txs[0], cut) || !bytes.Equal(txs[1], []byte("short")) {
		t.Error("the forgery did not rewrite exactly the cut record")
	}
}
