package protocol

import (
	"fmt"
	"sync"

	"repro/internal/component"
)

// This file is the protocol-variant surface shared by every deployment
// driver: the engine registry and the epoch-instance factory. The drivers
// themselves — chain SMR on either topology, of which a one-shot run is a
// depth-1 case — live in internal/run behind the unified run.Spec API.

// Kind names a consensus protocol family.
type Kind string

// The registered protocol families: the three the paper adapts plus the
// beyond-the-paper Alea-BFT pipeline.
const (
	HoneyBadger Kind = "honeybadger"
	BEAT        Kind = "beat"
	DumboKind   Kind = "dumbo"
	AleaKind    Kind = "alea"
)

// Options is everything a driver tells an engine about one epoch beyond
// its environment. One type serves every family, so a driver never names
// the engine it is building.
type Options struct {
	// Coin is the ABA randomness ("": the family's own, Engine.Coin).
	Coin CoinKind
	// Encrypt threshold-encrypts the proposals (the families that
	// disseminate by RBC: HoneyBadger and BEAT).
	Encrypt bool
	// OnDecide, if set, fires when the epoch decides locally.
	OnDecide func()
}

// Engine is one registry entry: everything that tells a protocol family
// from the others. What is downstream — run.Spec validation, the Encrypt
// default, the drivers of all four matrix cells and the global tier of the
// clustered ones, the wbft CLI vocabulary, and the cross-engine
// conformance suite — reads the registry instead of naming families, so
// adding an engine is one Register (or one slice entry) and zero call-site
// changes.
type Engine struct {
	Kind Kind
	// DefaultEncrypt is whether the family has the threshold-encrypted
	// proposal path: run.Defaults turns it on, and run refuses Encrypt for
	// a family without it.
	DefaultEncrypt bool
	// Coin is the coin the family runs when the Spec names none ("": the
	// Spec must name one).
	Coin CoinKind
	// New builds one epoch's consensus instance.
	New func(env *component.Env, opts Options) Instance
}

func builtinEngines() []Engine {
	return []Engine{
		{Kind: HoneyBadger, DefaultEncrypt: true, New: newACS},
		{Kind: BEAT, DefaultEncrypt: true, Coin: CoinFlip, New: newACS},
		{Kind: DumboKind, New: newDumbo},
		{Kind: AleaKind, New: newAlea},
	}
}

var (
	engineMu sync.RWMutex
	engines  = builtinEngines()
)

// Engines returns the registry in registration order.
func Engines() []Engine {
	engineMu.RLock()
	defer engineMu.RUnlock()
	return append([]Engine(nil), engines...)
}

// Kinds returns the registered family names in registration order.
func Kinds() []Kind {
	engineMu.RLock()
	defer engineMu.RUnlock()
	out := make([]Kind, len(engines))
	for i, e := range engines {
		out[i] = e.Kind
	}
	return out
}

// Lookup finds a registered engine by family name.
func Lookup(k Kind) (Engine, bool) {
	engineMu.RLock()
	defer engineMu.RUnlock()
	for _, e := range engines {
		if e.Kind == k {
			return e, true
		}
	}
	return Engine{}, false
}

// DefaultEncrypt reports run.Defaults' Encrypt setting for a family
// (false for unregistered names).
func DefaultEncrypt(k Kind) bool {
	e, ok := Lookup(k)
	return ok && e.DefaultEncrypt
}

// Register adds an engine to the registry (replacing any same-Kind entry
// — latest wins) and returns a restore function that reinstates the
// prior registry. The conformance suite uses it to run intentionally
// broken engine stubs through the real drivers.
func Register(e Engine) (restore func()) {
	engineMu.Lock()
	defer engineMu.Unlock()
	prev := append([]Engine(nil), engines...)
	replaced := false
	for i := range engines {
		if engines[i].Kind == e.Kind {
			engines[i] = e
			replaced = true
			break
		}
	}
	if !replaced {
		engines = append(engines, e)
	}
	return func() {
		engineMu.Lock()
		defer engineMu.Unlock()
		engines = prev
	}
}

// NewInstance builds one epoch's consensus engine for a protocol family.
// Every driver constructs every instance — each epoch of every chain, the
// global tier's included — through this factory.
func NewInstance(env *component.Env, p Kind, opts Options) Instance {
	e, ok := Lookup(p)
	if !ok {
		panic(fmt.Sprintf("protocol: unknown protocol %q", p))
	}
	if opts.Coin == "" {
		opts.Coin = e.Coin
	}
	return e.New(env, opts)
}
