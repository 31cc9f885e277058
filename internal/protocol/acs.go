// Package protocol assembles the paper's five asynchronous BFT consensus
// protocols from the batched components:
//
//   - HoneyBadgerBFT-LC / HoneyBadgerBFT-SC: N parallel RBC + N parallel
//     ABA (Bracha local-coin or Cachin shared-coin), Fig. 7a;
//   - BEAT (BEAT0): HoneyBadgerBFT with threshold coin flipping and
//     threshold encryption;
//   - Dumbo-LC / Dumbo-SC (Dumbo2): N parallel PRBC, two sets of N parallel
//     CBC, serial ABA, Fig. 7b;
//
// in both ConsensusBatcher and baseline transport modes, single-hop and
// multi-hop (clustered) deployments.
package protocol

import (
	"fmt"

	"repro/internal/component"
)

// Instance is one node's consensus engine for one epoch. Outputs is nil
// until the epoch decides; afterwards it holds the accepted proposals
// sorted by proposer slot.
type Instance interface {
	// Start submits this node's proposal for the epoch.
	Start(proposal []byte)
	// Outputs returns the accepted proposals (by slot; nil entries for
	// rejected slots) once the epoch has decided locally, nil before.
	Outputs() [][]byte
}

// CoinKind selects the ABA randomness implementation.
type CoinKind string

// The paper's three ABA variants.
const (
	CoinLocal CoinKind = "LC" // Bracha's ABA, local coin
	CoinSig   CoinKind = "SC" // Cachin's ABA, threshold-signature coin
	CoinFlip  CoinKind = "CP" // BEAT's ABA, threshold coin flipping
)

// Coins lists the coin kinds, in the paper's order.
func Coins() []CoinKind { return []CoinKind{CoinLocal, CoinSig, CoinFlip} }

// binaryAgreement abstracts the two ABA components behind one interface.
type binaryAgreement interface {
	Input(slot int, v bool)
	Decided(slot int) *bool
	DecidedCount() int
}

// newABA builds the ABA matching the coin kind; shared is one coin per
// round across the parallel instances.
func newABA(env *component.Env, slots int, coin CoinKind, shared bool, onDecide func(int, bool)) binaryAgreement {
	cachin := component.CachinOptions{Slots: slots, SharedCoin: shared, OnDecide: onDecide}
	switch coin {
	case CoinLocal:
		return component.NewBrachaABA(env, component.BrachaOptions{Slots: slots, OnDecide: onDecide})
	case CoinSig:
		return component.NewCachinABA(env, component.SigCoin(env), cachin)
	case CoinFlip:
		return component.NewCachinABA(env, component.FlipCoin(env), cachin)
	default:
		panic(fmt.Sprintf("protocol: unknown coin kind %q", coin))
	}
}

// ACS is HoneyBadgerBFT's (and BEAT's) asynchronous common subset: N
// parallel RBCs feed N parallel ABAs; the union of 1-decided slots is the
// epoch output. Optional threshold encryption adds the decryption-share
// exchange after the subset is fixed. Which slots delivered and what
// their agreements decided, it reads from the RBC and the ABA.
type ACS struct {
	env     *component.Env
	rbc     *component.RBC
	aba     binaryAgreement
	dec     *component.Decryptor
	encrypt bool

	abaStarted bool
	slots      []acsSlot // by proposer slot
	outputs    [][]byte
	onDecide   func()
}

// acsSlot is what the subset adds to one proposer's slot: whether its
// ciphertext went to the decryptor, and its decrypted proposal once opened
// (nil for a malformed ciphertext).
type acsSlot struct {
	submitted, opened bool
	plain             []byte
}

// newACS builds the instance and registers its components.
func newACS(env *component.Env, opts Options) Instance {
	a := &ACS{
		env:      env,
		encrypt:  opts.Encrypt,
		slots:    make([]acsSlot, env.N),
		onDecide: opts.OnDecide,
	}
	a.rbc = component.NewRBC(env, component.RBCOptions{
		Slots:     env.N,
		OnDeliver: a.onRBCDeliver,
	})
	// The parallel ABAs share one coin per round where the epoch's
	// transport batches them: the wireless rule of Sec. V-A.
	a.aba = newABA(env, env.N, opts.Coin, env.T.Batched(), func(int, bool) { a.maybeFinish() })
	if opts.Encrypt {
		a.dec = component.NewDecryptor(env, env.N, a.onPlain)
	}
	return a
}

var _ Instance = (*ACS)(nil)

// Start implements Instance.
func (a *ACS) Start(proposal []byte) {
	if a.encrypt {
		a.rbc.ProposeEncrypted(a.env.Me, proposal)
		return
	}
	a.rbc.Propose(a.env.Me, proposal)
}

// Outputs implements Instance.
func (a *ACS) Outputs() [][]byte { return a.outputs }

// onRBCDeliver applies the wireless ABA-start rule of Sec. V-A: once 2f+1
// RBCs complete, ALL ABA instances start simultaneously — 1 for the
// completed set, 0 for the rest — so Byzantine nodes cannot exploit early
// coin access, and the fastest 2f+1 proposals are favored.
func (a *ACS) onRBCDeliver(int, []byte) {
	if !a.abaStarted && a.rbc.DeliveredCount() >= a.env.Quorum() {
		a.abaStarted = true
		for s := range a.slots {
			a.aba.Input(s, a.rbc.Delivered(s))
		}
	}
	a.maybeFinish()
}

func (a *ACS) onPlain(slot int, plain []byte) {
	a.slots[slot].plain, a.slots[slot].opened = plain, true
	a.maybeFinish()
}

// maybeFinish assembles the epoch output once every ABA has decided, every
// accepted slot's RBC has delivered (totality guarantees it will), and —
// with encryption — every accepted ciphertext has been decrypted. Every
// delivered ciphertext goes to the decryptor as soon as the subset is
// fixed, so the accepted slots' decryption shares travel together.
func (a *ACS) maybeFinish() {
	if a.outputs != nil || a.aba.DecidedCount() < a.env.N {
		return
	}
	ready := true
	for slot := range a.slots {
		s := &a.slots[slot]
		switch {
		case !*a.aba.Decided(slot) || s.opened:
		case !a.rbc.Delivered(slot):
			ready = false // RBC totality will deliver it; NACK repair is running
		case !a.encrypt:
		case s.submitted:
			ready = false
		default:
			ct, err := component.DecodeCiphertext(a.rbc.Value(slot))
			if err != nil {
				// Malformed ciphertext from a Byzantine proposer: the
				// slot contributes nothing.
				a.env.Reject()
				s.opened = true
				continue
			}
			s.submitted = true
			a.dec.Submit(slot, ct)
			ready = false
		}
	}
	if !ready {
		return
	}
	outputs := make([][]byte, a.env.N)
	for slot, s := range a.slots {
		if !*a.aba.Decided(slot) {
			continue
		}
		if a.encrypt {
			outputs[slot] = s.plain
		} else {
			outputs[slot] = a.rbc.Value(slot)
		}
	}
	a.outputs = outputs
	if a.onDecide != nil {
		a.onDecide()
	}
}
