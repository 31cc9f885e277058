package dlthresh

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/crypto/dleq"
	"repro/internal/crypto/group"
	"repro/internal/crypto/memo"
	"repro/internal/crypto/mont"
	"repro/internal/crypto/shamir"
)

func testKey(t testing.TB, k, l int) *Key {
	t.Helper()
	key, err := Deal(group.Default(), k, l, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// testBase is a use whose element is a fixed power of the generator.
func testBase(g *group.Group, tag string) Base {
	return Base{Tag: []byte(tag), Element: func() *big.Int {
		return g.ExpG(g.HashToScalar("dlthresh-test", []byte(tag)))
	}}
}

// refVerify is the share check with no memo and no kept table: the
// structural checks, then the proof against throwaway combs.
func refVerify(pk *PublicKey, b Base, sh *Share) bool {
	if sh == nil || sh.Index < 1 || sh.Index > pk.L || sh.V == nil || sh.Proof == nil {
		return false
	}
	g := pk.Group
	tab := func(v *big.Int) *mont.Table { return g.Table(v, mont.TeethShort) }
	return dleq.Verify(g, g.GTable(), tab(b.Element()), tab(pk.VKs[sh.Index-1]), sh.V, sh.Proof) == nil
}

func sharesOf(t testing.TB, key *Key, b Base, seed int64) []*Share {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Share, key.Public.L)
	for i := range out {
		sh, err := key.Public.Share(b, key.Shares[i], rng)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sh
	}
	return out
}

// TestVerifyShareMatrix runs every rejection class the fault-injection
// (byz) tests feed the protocol through VerifyShare: the verdict is the
// expected one, it is the memo-free reference's, and it is the same when
// replayed from the memo.
func TestVerifyShareMatrix(t *testing.T) {
	key := testKey(t, 2, 4)
	pk := &key.Public
	g := pk.Group
	use := testBase(g, "matrix use")
	honest := sharesOf(t, key, use, 33)
	other := sharesOf(t, key, testBase(g, "other use"), 34)
	sh := honest[0]
	neg := func(v *big.Int) *big.Int { return new(big.Int).Neg(v) }
	plus := func(v, d *big.Int) *big.Int { return new(big.Int).Add(v, d) }
	matrix := []struct {
		name string
		sh   *Share
		ok   bool
	}{
		{"honest 1", honest[0], true},
		{"honest 2", honest[1], true},
		{"honest 3", honest[2], true},
		{"tampered value", &Share{Index: sh.Index, V: plus(sh.V, big.NewInt(1)), Proof: sh.Proof}, false},
		{"wrong index", &Share{Index: 2, V: sh.V, Proof: sh.Proof}, false},
		{"swapped proof", &Share{Index: sh.Index, V: sh.V, Proof: honest[1].Proof}, false},
		{"garbage proof", &Share{Index: sh.Index, V: sh.V, Proof: &dleq.Proof{C: big.NewInt(7), Z: big.NewInt(9)}}, false},
		{"share of another use", other[0], false},
		{"nil share", nil, false},
		{"nil value", &Share{Index: sh.Index, Proof: sh.Proof}, false},
		{"nil proof", &Share{Index: sh.Index, V: sh.V}, false},
		{"nil challenge", &Share{Index: sh.Index, V: sh.V, Proof: &dleq.Proof{Z: sh.Proof.Z}}, false},
		{"nil response", &Share{Index: sh.Index, V: sh.V, Proof: &dleq.Proof{C: sh.Proof.C}}, false},
		{"index underflow", &Share{Index: 0, V: sh.V, Proof: sh.Proof}, false},
		{"index overflow", &Share{Index: 99, V: sh.V, Proof: sh.Proof}, false},
		{"value outside the subgroup", &Share{Index: sh.Index, V: big.NewInt(2), Proof: sh.Proof}, false},
		{"zero value", &Share{Index: sh.Index, V: new(big.Int), Proof: sh.Proof}, false},
		{"value + P", &Share{Index: sh.Index, V: plus(sh.V, g.P), Proof: sh.Proof}, false},
		{"negated value", &Share{Index: sh.Index, V: neg(sh.V), Proof: sh.Proof}, false},
		{"negated challenge", &Share{Index: sh.Index, V: sh.V, Proof: &dleq.Proof{C: neg(sh.Proof.C), Z: sh.Proof.Z}}, false},
		{"negated response", &Share{Index: sh.Index, V: sh.V, Proof: &dleq.Proof{C: sh.Proof.C, Z: neg(sh.Proof.Z)}}, false},
		{"response + Q", &Share{Index: sh.Index, V: sh.V, Proof: &dleq.Proof{C: sh.Proof.C, Z: plus(sh.Proof.Z, g.Q)}}, false},
	}
	for _, c := range matrix {
		for _, pass := range []string{"first", "memoized"} {
			if got := pk.VerifyShare(use, c.sh) == nil; got != c.ok {
				t.Errorf("%s (%s): accepted = %v, want %v", c.name, pass, got, c.ok)
			}
		}
		// The reference knows nothing of the range rule: it may accept a
		// malleated response, never reject what the kernel accepts.
		if ref := refVerify(pk, use, c.sh); c.ok && !ref {
			t.Errorf("%s: kernel accepts what the memo-free reference rejects", c.name)
		} else if ref && !c.ok && c.name != "response + Q" {
			t.Errorf("%s: memo-free reference accepts", c.name)
		}
	}
}

// TestSignCannotReplayVerdict: the memo key hashes magnitudes, so a share
// with a negated field has the key of the share it was made from. It must
// be refused whether or not the good share's verdict is already memoized,
// and must not poison the good share's verdict either.
func TestSignCannotReplayVerdict(t *testing.T) {
	key := testKey(t, 2, 4)
	pk := &key.Public
	use := testBase(pk.Group, "sign use")
	good := sharesOf(t, key, use, 35)[0]
	neg := func(v *big.Int) *big.Int { return new(big.Int).Neg(v) }
	bad := []*Share{
		{Index: good.Index, V: neg(good.V), Proof: good.Proof},
		{Index: good.Index, V: good.V, Proof: &dleq.Proof{C: neg(good.Proof.C), Z: good.Proof.Z}},
		{Index: good.Index, V: good.V, Proof: &dleq.Proof{C: good.Proof.C, Z: neg(good.Proof.Z)}},
	}
	for i, sh := range bad {
		if shareKey(use.Tag, sh) != shareKey(use.Tag, good) {
			t.Fatalf("negated share %d has its own memo key: the test no longer tests the memo", i)
		}
	}
	check := func(when string) {
		for i, sh := range bad {
			if pk.VerifyShare(use, sh) == nil {
				t.Errorf("%s: negated share %d accepted", when, i)
			}
		}
	}
	check("cold memo")
	if err := pk.VerifyShare(use, good); err != nil {
		t.Fatalf("good share rejected after its negations were: %v", err)
	}
	check("good verdict memoized")
}

func TestCombine(t *testing.T) {
	key := testKey(t, 3, 5)
	pk := &key.Public
	use := testBase(pk.Group, "combine use")
	all := sharesOf(t, key, use, 36)
	a, err := pk.Combine([]*Share{all[0], all[1], all[2]})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pk.Combine([]*Share{all[4], all[2], all[3], all[0]}) // a spare share is ignored
	if err != nil {
		t.Fatal(err)
	}
	if a.Cmp(b) != 0 {
		t.Error("different share subsets interpolate to different elements")
	}
	// base^s by its definition: the test base is g^e, so base^s = VK^e.
	e := pk.Group.HashToScalar("dlthresh-test", use.Tag)
	if want := pk.ExpVK(e); a.Cmp(want) != 0 {
		t.Error("combined element is not base^s")
	}
	if _, err := pk.Combine(all[:2]); err == nil {
		t.Error("too few shares accepted")
	}
	if _, err := pk.Combine([]*Share{all[0], all[1], all[0]}); err == nil {
		t.Error("duplicate shares accepted")
	}
}

// TestCombineBare: 2K−1 bare shares from distinct parties interpolate to
// base^s; one share off the polynomial among them fails with
// ErrInconsistent wherever it stands, and so does a share built to steer
// the first K to another element; one outside the group gives base^s or
// fails.
func TestCombineBare(t *testing.T) {
	key := testKey(t, 3, 7)
	pk := &key.Public
	g := pk.Group
	use := testBase(g, "bare use")
	all := sharesOf(t, key, use, 37)
	want, err := pk.Combine(all[:3])
	if err != nil {
		t.Fatal(err)
	}
	if n := pk.BareQuorum(); n != 5 {
		t.Fatalf("BareQuorum = %d, want 5", n)
	}
	got, err := pk.CombineBare([]*Share{all[6], all[1], all[4], all[0], all[3]})
	if err != nil || got.Cmp(want) != 0 {
		t.Fatalf("honest bare shares: %v, equal %v", err, err == nil && got.Cmp(want) == 0)
	}
	if _, err := pk.CombineBare(all[:4]); err == nil {
		t.Error("too few bare shares accepted")
	}
	if _, err := pk.CombineBare([]*Share{all[0], all[1], all[2], all[3], all[0]}); err == nil {
		t.Error("duplicate bare shares accepted")
	}
	minusOne := new(big.Int).Sub(g.P, big.NewInt(1)) // order 2: outside the order-q subgroup
	for pos := 0; pos < 5; pos++ {
		set := append([]*Share{}, all[:5]...)
		set[pos] = &Share{Index: set[pos].Index, V: g.Mul(set[pos].V, g.G)}
		if _, err := pk.CombineBare(set); !errors.Is(err, ErrInconsistent) {
			t.Errorf("share %d off the polynomial: %v, want ErrInconsistent", pos, err)
		}
		// A share outside the group may pass where its stray component
		// cancels (an even Lagrange coefficient of −1), but never to
		// another element.
		set[pos] = &Share{Index: all[pos].Index, V: g.Mul(all[pos].V, minusOne)}
		if got, err := pk.CombineBare(set); err != nil && !errors.Is(err, ErrInconsistent) || err == nil && got.Cmp(want) != 0 {
			t.Errorf("share %d outside the group: %v, want ErrInconsistent or base^s", pos, err)
		}
	}
	// Steering: with shares 1 and 2 honest, party 3 picks V so that the
	// first K interpolate to a target of its choice. Combine takes it;
	// CombineBare, holding two more honest shares, does not.
	target := g.ExpG(big.NewInt(12345))
	pts := []shamir.Share{{X: 1}, {X: 2}, {X: 3}}
	lag := shamir.LagrangeSet(pts, g.Q)
	rest := g.Mul(g.Exp(all[0].V, new(big.Int).Sub(g.Q, lag[0])), g.Exp(all[1].V, new(big.Int).Sub(g.Q, lag[1])))
	forged := &Share{Index: 3, V: g.Exp(g.Mul(target, rest), new(big.Int).ModInverse(lag[2], g.Q))}
	if v, err := pk.Combine([]*Share{all[0], all[1], forged}); err != nil || v.Cmp(target) != 0 {
		t.Fatalf("steering construction: %v", err)
	}
	if _, err := pk.CombineBare([]*Share{all[0], all[1], forged, all[3], all[4]}); !errors.Is(err, ErrInconsistent) {
		t.Errorf("steered bare shares: %v, want ErrInconsistent", err)
	}
}

// subsets calls f with every n-element subset of set, in set's order.
func subsets(set []*Share, n int, f func([]*Share)) {
	pick := make([]*Share, 0, n)
	var walk func(from int)
	walk = func(from int) {
		if len(pick) == n {
			f(slices.Clone(pick))
			return
		}
		for i := from; i <= len(set)-(n-len(pick)); i++ {
			pick = append(pick, set[i])
			walk(i + 1)
			pick = pick[:len(pick)-1]
		}
	}
	walk(0)
}

// outcome is what a combination answers: the element, or the error's text.
func outcome(v *big.Int, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return "element: " + v.Text(16)
}

// TestCombineMemoExact: a key whose interpolation memo has seen every
// subset before answers CombineBare and Combine as a key built fresh with
// NewPublicKey does, over every 2K−1 subset of the parties in node order,
// as the collector hands them over: all honest; a wrong share in the tail,
// which is ErrInconsistent although its first K shares are a memo hit; a
// wrong share among the first K; and the first two shares' values swapped
// between their indices. CombineBare refuses all but the first; Combine
// interpolates the last two to other elements.
func TestCombineMemoExact(t *testing.T) {
	for _, kl := range [][2]int{{2, 4}, {5, 13}} {
		k, l := kl[0], kl[1]
		key := testKey(t, k, l)
		pk := &key.Public
		g := pk.Group
		all := sharesOf(t, key, testBase(g, fmt.Sprintf("exact use %d of %d", k, l)), int64(k))
		wrong := func(sh *Share) *Share { return &Share{Index: sh.Index, V: g.Mul(sh.V, g.G)} }
		n, bad := 0, 0
		subsets(all, pk.BareQuorum(), func(honest []*Share) {
			tail, head, swapped := slices.Clone(honest), slices.Clone(honest), slices.Clone(honest)
			tail[len(tail)-1] = wrong(tail[len(tail)-1])
			at := n % k
			head[at] = wrong(head[at])
			swapped[0] = &Share{Index: honest[1].Index, V: honest[0].V}
			swapped[1] = &Share{Index: honest[0].Index, V: honest[1].V}
			n++
			for _, c := range []struct {
				name string
				set  []*Share
			}{{"honest", honest}, {"wrong in the tail", tail}, {"wrong among the first K", head}, {"two values swapped", swapped}} {
				if c.name == "wrong in the tail" {
					if _, hit := pk.cc.combined.Peek(combineKey(c.set[:k])); !hit {
						t.Fatalf("(%d,%d): the tail case's first K shares are no memo hit", k, l)
					}
				}
				fresh := NewPublicKey(g, pk.VK, pk.VKs, pk.K)
				got, want := outcome(pk.CombineBare(c.set)), outcome(fresh.CombineBare(c.set))
				if got != want {
					t.Fatalf("(%d,%d) %s %v: CombineBare %s, fresh key %s", k, l, c.name, indices(c.set), got, want)
				}
				if c.name != "honest" && !strings.Contains(got, ErrInconsistent.Error()) {
					bad++
				}
				got, want = outcome(pk.Combine(c.set)), outcome(fresh.Combine(c.set))
				if got != want {
					t.Fatalf("(%d,%d) %s %v: Combine %s, fresh key %s", k, l, c.name, indices(c.set), got, want)
				}
			}
		})
		if bad != 0 {
			t.Errorf("(%d,%d): %d sets with a wrong share not ErrInconsistent", k, l, bad)
		}
		if hits := pk.cc.combined.Len(); hits >= 3*n {
			t.Errorf("(%d,%d): %d memo entries for %d subsets: the memo served nothing", k, l, hits, n)
		}
	}
}

func indices(set []*Share) []int {
	out := make([]int, len(set))
	for i, sh := range set {
		out[i] = sh.Index
	}
	return out
}

// TestCombineMemoRefusesOutOfRange: the interpolation memo's key reads
// magnitudes, so a V outside (0, P) — a good share's negated, or plus P,
// or zero — is refused before a key is made of it: it never gets the good
// share's memoized element, and never reaches the memo.
func TestCombineMemoRefusesOutOfRange(t *testing.T) {
	key := testKey(t, 2, 4)
	pk := &key.Public
	g := pk.Group
	good := sharesOf(t, key, testBase(g, "range use"), 38)[:pk.BareQuorum()]
	want, err := pk.CombineBare(good)
	if err != nil {
		t.Fatal(err)
	}
	neg := &Share{Index: good[0].Index, V: new(big.Int).Neg(good[0].V)}
	if combineKey([]*Share{neg, good[1]}) != combineKey(good[:2]) {
		t.Fatal("a negated share has its own memo key: the test no longer tests the memo")
	}
	entries := pk.cc.combined.Len()
	for _, v := range []*big.Int{neg.V, new(big.Int).Add(good[0].V, g.P), new(big.Int), new(big.Int).Set(g.P)} {
		set := append([]*Share{{Index: good[0].Index, V: v}}, good[1:]...)
		if got, err := pk.CombineBare(set); err == nil {
			t.Errorf("V = %v: CombineBare gave an element (the good one: %v)", v, got.Cmp(want) == 0)
		}
		if got, err := pk.Combine(set); err == nil {
			t.Errorf("V = %v: Combine gave an element (the good one: %v)", v, got.Cmp(want) == 0)
		}
	}
	if n := pk.cc.combined.Len(); n != entries {
		t.Errorf("memo holds %d entries after values outside (0, P), want %d", n, entries)
	}
	got, err := pk.Combine(good)
	if err != nil || got.Cmp(want) != 0 {
		t.Fatalf("the good shares after the refusals: %v", err)
	}
	got.SetInt64(1)
	if again, _ := pk.Combine(good); again.Cmp(want) != 0 {
		t.Error("a caller's change to its element reached the memo")
	}
}

// TestExpVKRecordsOnlyMembers: ExpVK records its power as a member only
// for a VK that is one. A hand-built key whose VK is outside the subgroup
// records nothing, so the verdict memo still gives every power of it its
// true verdict.
func TestExpVKRecordsOnlyMembers(t *testing.T) {
	key := testKey(t, 2, 4)
	g := key.Public.Group
	minusOne := new(big.Int).Sub(g.P, big.NewInt(1))
	pk := NewPublicKey(g, g.Mul(key.Public.VK, minusOne), key.Public.VKs, key.Public.K)
	rng := rand.New(rand.NewSource(39))
	members := 0
	for i := 0; i < 8; i++ {
		r := new(big.Int).Rand(rng, g.Q)
		v := pk.ExpVK(r)
		truth := g.IsElement(v)
		if got := g.IsElementCached(v); got != truth {
			t.Errorf("VK outside the subgroup, exponent %v: IsElementCached %v, IsElement %v", r, got, truth)
		}
		if truth {
			members++
		}
		if v := key.Public.ExpVK(r); !g.IsElementCached(v) {
			t.Error("a power of a dealt VK is not a member")
		}
	}
	if members == 0 || members == 8 {
		t.Errorf("%d of 8 powers are members: the test wants both kinds", members)
	}
}

// TestMemosOverflow: a memo that fills up is cleared and goes on giving
// the verdicts a cold one gives.
func TestMemosOverflow(t *testing.T) {
	key := testKey(t, 2, 4)
	pk := &key.Public
	use := testBase(pk.Group, "overflow use")
	good := sharesOf(t, key, use, 37)[1]
	junk := &Share{Index: 1, V: big.NewInt(2), Proof: &dleq.Proof{C: big.NewInt(1), Z: big.NewInt(1)}}
	one := big.NewInt(1)
	for i := 0; i < memo.Cap+2; i++ {
		b := Base{Tag: []byte{byte(i), byte(i >> 8)}, Element: func() *big.Int { return one }}
		if pk.VerifyShare(b, junk) == nil {
			t.Fatal("junk share accepted")
		}
	}
	if n := pk.cc.verified.Len(); n > memo.Cap {
		t.Errorf("verdict memo holds %d entries, cap %d", n, memo.Cap)
	}
	if n := pk.cc.bases.Len(); n > memo.Cap {
		t.Errorf("base memo holds %d entries, cap %d", n, memo.Cap)
	}
	if err := pk.VerifyShare(use, good); err != nil {
		t.Errorf("good share rejected after the memos overflowed: %v", err)
	}
}

// BenchmarkVerifyShare measures one share verification with a cold
// verdict memo (the base's and the verification key's combs stay built,
// as they are for all but a use's first verifier).
func BenchmarkVerifyShare(b *testing.B) {
	key := testKey(b, 2, 4)
	pk := &key.Public
	use := testBase(pk.Group, "bench use")
	sh := sharesOf(b, key, use, 43)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk.cc.verified = memo.Memo[[32]byte, error]{}
		if err := pk.VerifyShare(use, sh); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCombineBareRepeat measures CombineBare at (K, L) = (2, 4) on
// shares whose first K the interpolation memo holds (hit) and on a memo
// emptied before each call (miss): the difference is the interpolation's
// MulExp. The membership verdict is memoized in both.
func BenchmarkCombineBareRepeat(b *testing.B) {
	key := testKey(b, 2, 4)
	pk := &key.Public
	shares := sharesOf(b, key, testBase(pk.Group, "repeat use"), 44)[:pk.BareQuorum()]
	for _, hit := range []bool{true, false} {
		name := map[bool]string{true: "hit", false: "miss"}[hit]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !hit {
					pk.cc.combined = memo.Memo[[32]byte, *big.Int]{}
				}
				if _, err := pk.CombineBare(shares); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
