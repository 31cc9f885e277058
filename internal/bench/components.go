package bench

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/component"
	"repro/internal/crypto"
	"repro/internal/packet"
	"repro/internal/wireless"
)

// This file holds the single-cell executors of the Fig. 11/12 component
// grids: each function runs one rig to completion and returns one
// latency sample. The grids in fig11_13.go fan these out across
// variants, counts, and averaging seeds on the sweep engine; nothing
// here loops.

// BroadcastKind names a broadcast protocol variant from Fig. 11.
type BroadcastKind string

// The five broadcast variants the paper measures.
const (
	BRBC      BroadcastKind = "RBC"
	BRBCSmall BroadcastKind = "RBC-small"
	BPRBC     BroadcastKind = "PRBC"
	BCBC      BroadcastKind = "CBC"
	BCBCSmall BroadcastKind = "CBC-small"
)

// AllBroadcastKinds returns the Fig. 11a ordering.
func AllBroadcastKinds() []BroadcastKind {
	return []BroadcastKind{BRBC, BRBCSmall, BPRBC, BCBC, BCBCSmall}
}

// BroadcastLatency runs `parallel` instances of a broadcast protocol with
// proposals of `proposalPackets` radio frames each and returns the virtual
// time until every node delivers every started instance (Fig. 11a/11b
// point). Small variants carry a fixed tiny payload.
func BroadcastLatency(kind BroadcastKind, parallel, proposalPackets int, batched bool, seed int64) (time.Duration, error) {
	rig, err := NewComponentRig(seed, batched, crypto.LightConfig(), wireless.DefaultConfig())
	if err != nil {
		return 0, err
	}
	const fragSize = 160
	value := func(i int) []byte {
		if kind == BRBCSmall {
			return []byte{byte(i)}
		}
		if kind == BCBCSmall {
			s := packet.NewBitSet(4)
			s.Set(i)
			return s
		}
		return bytes.Repeat([]byte{byte(i + 1)}, fragSize*proposalPackets)
	}

	var done func() bool
	switch kind {
	case BRBC, BRBCSmall:
		rbcs := make([]*component.RBC, 4)
		for i, env := range rig.Envs {
			rbcs[i] = component.NewRBC(env, component.RBCOptions{
				Slots: 4, Small: kind == BRBCSmall, FragSize: fragSize,
			})
		}
		for i := 0; i < parallel; i++ {
			rbcs[i].Propose(i, value(i))
		}
		done = func() bool {
			for _, r := range rbcs {
				for s := 0; s < parallel; s++ {
					if !r.Delivered(s) {
						return false
					}
				}
			}
			return true
		}
	case BPRBC:
		prbcs := make([]*component.PRBC, 4)
		for i, env := range rig.Envs {
			prbcs[i] = component.NewPRBC(env, component.PRBCOptions{Slots: 4, FragSize: fragSize})
		}
		for i := 0; i < parallel; i++ {
			prbcs[i].Propose(i, value(i))
		}
		done = func() bool {
			for _, p := range prbcs {
				for s := 0; s < parallel; s++ {
					if p.Proof(s) == nil {
						return false
					}
				}
			}
			return true
		}
	case BCBC, BCBCSmall:
		cbcs := make([]*component.CBC, 4)
		for i, env := range rig.Envs {
			cbcs[i] = component.NewCBC(env, component.CBCOptions{
				Kind: packet.KindCBCValue, Slots: 4, Small: kind == BCBCSmall, FragSize: fragSize,
			})
		}
		for i := 0; i < parallel; i++ {
			cbcs[i].Propose(i, value(i))
		}
		done = func() bool {
			for _, c := range cbcs {
				for s := 0; s < parallel; s++ {
					if !c.Delivered(s) {
						return false
					}
				}
			}
			return true
		}
	default:
		return 0, fmt.Errorf("bench: unknown broadcast kind %q", kind)
	}
	return rig.RunUntil(4*time.Hour, done)
}

// ABAVariant names an ABA implementation from Fig. 12.
type ABAVariant string

// The three ABA variants.
const (
	ABALC ABAVariant = "ABA-LC" // Bracha, local coin
	ABASC ABAVariant = "ABA-SC" // Cachin, threshold-signature coin
	ABACP ABAVariant = "ABA-CP" // BEAT, threshold coin flipping
)

// AllABAVariants returns the Fig. 12a ordering.
func AllABAVariants() []ABAVariant { return []ABAVariant{ABALC, ABASC, ABACP} }

func newBenchABA(env *component.Env, v ABAVariant, slots int, shared bool) interface {
	Input(int, bool)
	DecidedCount() int
	Decided(int) *bool
} {
	switch v {
	case ABALC:
		return component.NewBrachaABA(env, component.BrachaOptions{Slots: slots})
	case ABASC:
		return component.NewCachinABA(env, component.CachinOptions{
			Slots: slots, SharedCoin: shared,
			Coin: component.SigCoin(env),
		})
	case ABACP:
		return component.NewCachinABA(env, component.CachinOptions{
			Slots: slots, SharedCoin: shared,
			Coin: component.FlipCoin(env),
		})
	default:
		panic(fmt.Sprintf("bench: unknown ABA variant %q", v))
	}
}

// ABAParallelLatency measures the time for `parallel` simultaneous ABA
// instances to decide everywhere (Fig. 12a point). Inputs are mixed
// (slot parity) to exercise coin rounds.
func ABAParallelLatency(v ABAVariant, parallel int, seed int64) (time.Duration, error) {
	rig, err := NewComponentRig(seed, true, crypto.LightConfig(), wireless.DefaultConfig())
	if err != nil {
		return 0, err
	}
	abas := make([]interface {
		Input(int, bool)
		DecidedCount() int
		Decided(int) *bool
	}, 4)
	for i, env := range rig.Envs {
		abas[i] = newBenchABA(env, v, 4, v != ABALC)
	}
	for i := range rig.Envs {
		for s := 0; s < parallel; s++ {
			abas[i].Input(s, s%2 == 0)
		}
	}
	return rig.RunUntil(8*time.Hour, func() bool {
		for _, a := range abas {
			for s := 0; s < parallel; s++ {
				if a.Decided(s) == nil {
					return false
				}
			}
		}
		return true
	})
}

// ABASerialLatency measures `serial` consecutive ABA executions, each
// started only after the previous decided everywhere (Fig. 12b point).
func ABASerialLatency(v ABAVariant, serial int, seed int64) (time.Duration, error) {
	rig, err := NewComponentRig(seed, true, crypto.LightConfig(), wireless.DefaultConfig())
	if err != nil {
		return 0, err
	}
	abas := make([]interface {
		Input(int, bool)
		DecidedCount() int
		Decided(int) *bool
	}, 4)
	for i, env := range rig.Envs {
		abas[i] = newBenchABA(env, v, serial, false)
	}
	current := 0
	for i := range rig.Envs {
		abas[i].Input(0, true)
	}
	return rig.RunUntil(8*time.Hour, func() bool {
		decidedAll := true
		for _, a := range abas {
			if a.Decided(current) == nil {
				decidedAll = false
				break
			}
		}
		if decidedAll {
			current++
			if current >= serial {
				return true
			}
			for i := range rig.Envs {
				abas[i].Input(current, current%2 == 0)
			}
		}
		return false
	})
}
