package threshsig

import (
	"crypto/sha256"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// withHash has msg hash to x on pk, by putting its context in the key's
// memo: the one way to give a test message a hash that is 0 mod a prime.
func withHash(pk *PublicKey, msg []byte, x *big.Int) {
	pk.cc.msgs.Get(sha256.Sum256(msg), func() *msgCtx { return pk.ctxOf(x) })
}

// errText is an error's text, "" for none.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameInt treats two nils (no inverse, as big.Int.Exp reports it) as equal.
func sameInt(a, b *big.Int) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Cmp(b) == 0
}

// TestWordPathMatchesPlain: at TS-512 and TS-1024, whose halves run on
// the 4- and 8-word kernels in words from input to output, and at TS-768,
// whose 6-word halves take math/big behind the same calls, a dealt key and
// the same key on plain math/big (slowKey, given a memo so that a message
// can be given any hash) agree on every output: SignBare's X, Prove's C
// and Z, VerifyShare's verdict, and Combine's and Verify's outcomes. The
// inputs take every edge of the word path:
//   - message hashes x that are 0 mod p and 0 mod q, and x = N-1;
//   - every dealt share, whose X equals the plain key's x^{2*delta*s_i};
//   - private shares that are not the dealt ones: of exponent 0, p-1, a
//     multiple of both p-1 and q-1, s_i+1 and -s_i (an inverse power, none
//     when the message base is not a unit);
//   - shares X = N-1 and X = p, and signatures 1, N-1 and p.
func TestWordPathMatchesPlain(t *testing.T) {
	for _, set := range []string{"TS-512", "TS-768", "TS-1024"} {
		fix, err := FixtureByName(set)
		if err != nil {
			t.Fatal(err)
		}
		key, err := Deal(fix.Name, fix.P, fix.Q, 2, 4, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		fast := &key.Public
		plain := slowKey(key.Public)
		plain.cc = &pkCache{}
		n, p, q := fast.N, fix.P, fix.Q
		pm1 := new(big.Int).Sub(p, one)
		both := new(big.Int).Mul(pm1, new(big.Int).Sub(q, one))
		nm1 := new(big.Int).Sub(n, one)
		s1, s2 := key.Shares[0].S, key.Shares[1].S
		// Every dealt share, then shares that are not the dealt ones.
		privs := append(append([]PrivateShare(nil), key.Shares...),
			PrivateShare{Index: 1, S: new(big.Int)},
			PrivateShare{Index: 2, S: pm1},
			PrivateShare{Index: 3, S: new(big.Int).Lsh(both, 3)},
			PrivateShare{Index: 1, S: new(big.Int).Add(s1, one)},
			PrivateShare{Index: 2, S: new(big.Int).Neg(s2)},
		)
		hashes := map[string]*big.Int{
			"natural": nil,
			"0 mod p": new(big.Int).Mul(p, big.NewInt(12345)),
			"0 mod q": new(big.Int).Lsh(q, 7),
			"N-1":     nm1,
		}
		for name, x := range hashes {
			msg := []byte(fmt.Sprintf("%s word path, hash %s", set, name))
			if x != nil {
				withHash(fast, msg, x)
				withHash(plain, msg, x)
			}
			what := fmt.Sprintf("%s, hash %s", set, name)
			rf, rp := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
			var made []*SigShare
			for i, priv := range privs {
				f, err := fast.SignBare(priv, msg, rf)
				if err != nil {
					t.Fatal(err)
				}
				g, err := plain.SignBare(priv, msg, rp)
				if err != nil {
					t.Fatal(err)
				}
				if !sameInt(f.X, g.X) {
					t.Fatalf("%s, share %d: X %v on the dealt key, %v on the plain one", what, i, f.X, g.X)
				}
				if f.X == nil {
					continue
				}
				f.Prove()
				g.Prove()
				if f.C.Cmp(g.C) != 0 || f.Z.Cmp(g.Z) != 0 {
					t.Fatalf("%s, share %d: the proofs differ", what, i)
				}
				if a, b := errText(fast.VerifyShare(msg, f)), errText(plain.VerifyShare(msg, f)); a != b {
					t.Fatalf("%s, share %d: VerifyShare %q on the dealt key, %q on the plain one", what, i, a, b)
				}
				made = append(made, f)
			}
			honest := made[0]
			planted := []*SigShare{
				{Index: 3, X: nm1, C: honest.C, Z: honest.Z},
				{Index: 4, X: new(big.Int).Set(p), C: honest.C, Z: honest.Z},
			}
			for i, sh := range planted {
				if a, b := errText(fast.VerifyShare(msg, sh)), errText(plain.VerifyShare(msg, sh)); a != b {
					t.Fatalf("%s, planted share %d: VerifyShare %q on the dealt key, %q on the plain one", what, i, a, b)
				}
			}
			pool := append(made, planted...)
			var sigs []*Signature
			for i := range pool {
				for j := range pool {
					use := []*SigShare{pool[i], pool[j]}
					if i == j || use[0].Index == use[1].Index {
						continue
					}
					if a, b := combineOutcome(fast, msg, use), combineOutcome(plain, msg, use); a != b {
						t.Fatalf("%s, shares %d and %d: Combine %s on the dealt key, %s on the plain one", what, i, j, a, b)
					}
					if sig, err := fast.Combine(msg, use); err == nil {
						sigs = append(sigs, sig)
					}
				}
			}
			if name == "natural" && len(sigs) == 0 {
				t.Fatalf("%s: no pair of shares combined", what)
			}
			sigs = append(sigs, &Signature{S: big.NewInt(1)}, &Signature{S: nm1}, &Signature{S: new(big.Int).Set(p)})
			for i, sig := range sigs {
				if a, b := errText(fast.Verify(msg, sig)), errText(plain.Verify(msg, sig)); a != b {
					t.Fatalf("%s, signature %d: Verify %q on the dealt key, %q on the plain one", what, i, a, b)
				}
			}
		}
	}
}
