// Package group provides Schnorr groups: prime-order subgroups of Z_p^* with
// a 256-bit group order q, in several modulus sizes. They are the algebraic
// substrate for the threshold coin (package threshcoin) and threshold
// encryption (package threshenc) schemes.
//
// The paper evaluates six pairing-curve parameter sets (BN158 … FP512BN)
// from the MIRACL library; the Go standard library has no pairings, so the
// reproduction substitutes classic discrete-log groups whose modulus size
// ladder (512 … 3072 bits) plays the same role: lighter parameters give
// smaller group elements and faster exponentiations, heavier parameters the
// opposite. The mapping is recorded in DESIGN.md and surfaced by the
// benchmarks.
//
// Parameters are embedded constants (generated offline with crypto/rand;
// see fixtures.go) so simulations start instantly and deterministically.
package group

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"sync"

	"repro/internal/crypto/memo"
	"repro/internal/crypto/mont"
)

// Group describes a prime-order subgroup of Z_p^*. The embedded parameter
// sets are process-wide singletons shared by every concurrently running
// simulation, so the memo fields below are mutex-guarded. Groups must not
// be copied by value.
type Group struct {
	Name string   // e.g. "SG-1024"
	Bits int      // modulus size in bits
	P    *big.Int // modulus (prime)
	Q    *big.Int // subgroup order (256-bit prime)
	G    *big.Int // generator of the order-q subgroup

	mu       sync.Mutex
	cofactor *big.Int                // (P-1)/Q, computed on first HashToGroup
	members  memo.Memo[string, bool] // IsElement verdicts for recurring values

	engineOnce sync.Once
	mod        *mont.Modulus // exponentiation engine mod P
	gTable     *mont.Table   // comb of G, built on the first ExpG
}

// engine returns the group's exponentiation engine, set up on first use
// (groups are built as plain struct literals).
func (g *Group) engine() *mont.Modulus {
	g.engineOnce.Do(func() {
		g.mod = mont.NewModulus(g.P)
		g.gTable = g.mod.NewTable(g.G, g.Q.BitLen(), mont.TeethLong)
	})
	return g.mod
}

// ElementLen returns the byte length of a serialized group element.
func (g *Group) ElementLen() int { return (g.P.BitLen() + 7) / 8 }

// Exp returns base^e mod P.
func (g *Group) Exp(base, e *big.Int) *big.Int { return g.engine().Exp(base, e) }

// ExpG returns G^e mod P, through G's comb table.
func (g *Group) ExpG(e *big.Int) *big.Int { return g.GTable().Exp(e) }

// GTable returns the comb table of the generator.
func (g *Group) GTable() *mont.Table {
	g.engine()
	return g.gTable
}

// Table prepares base for repeated exponentiation by scalars: Exp on the
// result equals g.Exp(base, e). The comb is built on the table's first
// use, with mont.TeethLong for a base that lives as long as a key and
// mont.TeethShort for one used a handful of times.
func (g *Group) Table(base *big.Int, teeth int) *mont.Table {
	return g.engine().NewTable(base, g.Q.BitLen(), teeth)
}

// MulExp returns the product of bases[i]^exps[i] mod P on one squaring
// chain.
func (g *Group) MulExp(bases, exps []*big.Int) *big.Int {
	return g.engine().MulExp(bases, exps)
}

// Mul returns a*b mod P.
func (g *Group) Mul(a, b *big.Int) *big.Int {
	out := new(big.Int).Mul(a, b)
	return out.Mod(out, g.P)
}

// HashToGroup maps a message into the order-q subgroup via
// H(domain || msg) expanded to a field element and raised to the cofactor.
func (g *Group) HashToGroup(domain string, msg []byte) *big.Int {
	// Expand enough hash output to cover the modulus.
	need := g.ElementLen() + 16
	buf := make([]byte, 0, need)
	var ctr uint32
	for len(buf) < need {
		h := sha256.New()
		h.Write([]byte(domain))
		var cb [4]byte
		binary.BigEndian.PutUint32(cb[:], ctr)
		h.Write(cb[:])
		h.Write(msg)
		buf = h.Sum(buf)
		ctr++
	}
	x := new(big.Int).SetBytes(buf)
	x.Mod(x, g.P)
	// Raise to cofactor (P-1)/Q to land in the order-q subgroup.
	y := g.Exp(x, g.cofactorVal())
	if y.Sign() == 0 || y.Cmp(big.NewInt(1)) == 0 {
		// Degenerate with negligible probability; perturb deterministically.
		return g.HashToGroup(domain+"#", msg)
	}
	return y
}

// HashToScalar maps bytes to an exponent in [0, Q).
func (g *Group) HashToScalar(domain string, parts ...[]byte) *big.Int {
	h := sha256.New()
	h.Write([]byte(domain))
	for _, p := range parts {
		var lb [4]byte
		binary.BigEndian.PutUint32(lb[:], uint32(len(p)))
		h.Write(lb[:])
		h.Write(p)
	}
	d := h.Sum(nil)
	x := new(big.Int).SetBytes(d)
	return x.Mod(x, g.Q)
}

// IsElement reports whether v is a valid element of the order-q subgroup.
func (g *Group) IsElement(v *big.Int) bool {
	if v == nil || v.Sign() <= 0 || v.Cmp(g.P) >= 0 {
		return false
	}
	return g.Exp(v, g.Q).Cmp(big.NewInt(1)) == 0
}

// IsTableElement is IsElement of a table's base, with the membership
// power taken through the table — for a value about to be raised to
// another exponent as well.
func (g *Group) IsTableElement(t *mont.Table) bool {
	v := t.Base()
	if v == nil || v.Sign() <= 0 || v.Cmp(g.P) >= 0 {
		return false
	}
	return t.Exp(g.Q).Cmp(big.NewInt(1)) == 0
}

// IsElementCached is IsElement with a per-group verdict memo. Use it for
// values expected to recur across many checks — verification keys, public
// commitments — not for attacker-controlled one-shot values, which would
// only churn the (bounded) memo. The verdict is a pure function of the
// value, so a hit is exact.
func (g *Group) IsElementCached(v *big.Int) bool {
	if v == nil || v.Sign() <= 0 || v.Cmp(g.P) >= 0 {
		return false
	}
	return g.members.Get(memberKey(v), func() bool { return g.Exp(v, g.Q).Cmp(big.NewInt(1)) == 0 })
}

// memberKey is v's key in the verdict memo, its big-endian bytes. They
// are laid out in a stack buffer, so the key's string is the one
// allocation. v is in (0, P).
func memberKey(v *big.Int) string {
	var stack [512]byte
	return string(v.FillBytes(stack[:(v.BitLen()+7)/8]))
}

// cofactorVal returns (P-1)/Q, computed once per group.
func (g *Group) cofactorVal() *big.Int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cofactor == nil {
		c := new(big.Int).Sub(g.P, big.NewInt(1))
		g.cofactor = c.Div(c, g.Q)
	}
	return g.cofactor
}

// ByName returns the embedded group with the given name.
func ByName(name string) (*Group, error) {
	for _, g := range All() {
		if g.Name == name {
			return g, nil
		}
	}
	return nil, fmt.Errorf("group: unknown parameter set %q", name)
}

// All returns the embedded parameter sets, lightest first.
func All() []*Group { return fixtures() }

// Default returns the lightest parameter set (the analogue of the paper's
// BN158 recommendation).
func Default() *Group { return All()[0] }
