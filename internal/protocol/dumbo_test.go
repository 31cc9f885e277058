package protocol

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/component"
)

// TestDumboRejectsRepeatedSlotVector: the π-first candidate is Byzantine
// and CBC-broadcasts a proof vector that is one genuine PRBC proof 2f+1
// times over. Every entry verifies, so a vector judged by its length alone
// would fix an output set of a single proposal. Every node must refuse it
// once, move on to the next candidate and decide 2f+1 proposals or more.
func TestDumboRejectsRepeatedSlotVector(t *testing.T) {
	sched, envs := testEnvs(t, 7, 0)
	first := commonPermutation("dumbo-pi", envs[0].Session, 0, len(envs))[0]
	insts := make([]*Dumbo, len(envs))
	for i, env := range envs {
		insts[i] = newDumbo(env, Options{Coin: CoinSig}).(*Dumbo)
		insts[i].Start(bytes.Repeat([]byte{byte('a' + i)}, 64))
	}
	byz := insts[first]
	byz.valueSent = true // the test sends its vector, below
	forged := false
	allDone := func() bool {
		for _, d := range insts {
			if !d.Done() {
				return false
			}
		}
		return true
	}
	for sched.Now() < time.Hour && !allDone() && sched.Step() {
		if !forged && len(byz.proofs) > 0 {
			forged = true
			slot := sortedKeys(byz.proofs)[0]
			h := component.HashValue(byz.prbc.RBC().Value(slot))
			var w []byte
			for i := 0; i < byz.env.Quorum(); i++ {
				w = append(w, byte(slot))
				w = append(w, h[:]...)
				w = binary.BigEndian.AppendUint16(w, uint16(len(byz.proofs[slot])))
				w = append(w, byz.proofs[slot]...)
			}
			byz.cbcValue.Propose(first, w)
		}
	}
	var honest []Instance
	for i, d := range insts {
		if !d.Done() {
			t.Fatalf("node %d undecided at %v", i, sched.Now())
		}
		if i == first {
			continue
		}
		honest = append(honest, d)
		if r := envs[i].T.Stats().Rejected; r != 1 {
			t.Errorf("node %d counted %d rejections, want 1: the forged vector", i, r)
		}
		if d.selected == first {
			t.Errorf("node %d output the forged candidate's vector", i)
		}
		filled := 0
		for _, out := range d.Outputs() {
			if out != nil {
				filled++
			}
		}
		if filled < envs[i].Quorum() {
			t.Errorf("node %d decided %d proposals, want at least 2f+1 = %d", i, filled, envs[i].Quorum())
		}
	}
	if err := AgreementCheck(honest); err != nil {
		t.Error(err)
	}
}
