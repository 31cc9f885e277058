package protocol

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

// TestDebugHoneyBadgerTrace is a diagnostic harness: it runs HB-SC with
// direct access to component internals and dumps progress when stuck.
func TestDebugHoneyBadgerTrace(t *testing.T) {
	sched, envs := testEnvs(t, 1, 0)
	done := make([]bool, len(envs))
	insts := make([]*ACS, len(envs))
	for i, env := range envs {
		i := i
		insts[i] = newACS(env, Options{Coin: CoinSig, Encrypt: true,
			OnDecide: func() { done[i] = true }}).(*ACS)
		prop := make([]byte, 64)
		binary.BigEndian.PutUint32(prop, uint32(i))
		insts[i].Start(prop)
	}
	allDone := func() bool {
		for _, d := range done {
			if !d {
				return false
			}
		}
		return true
	}
	deadline := 30 * time.Minute
	for sched.Now() < deadline && !allDone() {
		if !sched.Step() {
			break
		}
	}
	if allDone() {
		t.Logf("completed at %v", sched.Now())
		return
	}
	for i, a := range insts {
		decs, plains := "", 0
		for s, sl := range a.slots {
			if d := a.aba.Decided(s); d != nil {
				decs += fmt.Sprintf("%d:%v ", s, *d)
			} else {
				decs += fmt.Sprintf("%d:? ", s)
			}
			if sl.opened {
				plains++
			}
		}
		t.Logf("node %d: rbcDelivered=%d abaStarted=%v decisions=[%s] plains=%d outputs=%v done=%v",
			i, a.rbc.DeliveredCount(), a.abaStarted, decs, plains, a.outputs != nil, done[i])
	}
	t.Fatalf("stuck at %v", sched.Now())
}
