package component

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/crypto"
	"repro/internal/crypto/dlthresh"
	"repro/internal/crypto/threshenc"
	"repro/internal/crypto/threshsig"
)

// The differential scheme test: the ideal suite a run uses (crypto.Deal's
// Suite.Ops) and the real keys behind the same seams, fed the same share
// streams, must agree on every verdict, error class and output, count the
// same rejections, and read the same bytes from every node's randomness.
// A stream is a recipe, not bytes: an honest share is each suite's own,
// and a Byzantine one is made from it the same way in both (byz.Garbage's
// scrambling, a value at the modulus, a duplicated index), or is the same
// bytes in both (a steered decryption share).

// diffOp is one step of a stream, taken by the observing node 0.
type diffOp byte

const (
	diffBare        diffOp = iota // node from's honest share, bare (full under a scheme without a bare form)
	diffFull                      // node from's honest share with its proof
	diffGarbage                   // its bare bytes after the index and length, scrambled as byz.Garbage does
	diffGarbageFull               // its full bytes, scrambled alike
	diffRange                     // a bare share of node from whose value is the modulus
	diffRaw                       // raw, bare
	diffCombine                   // combine what is held, in node order: bare unless a full share came
	diffCombineDup                // combine node 0's share twice over, then the rest
	diffCheck                     // check the last certificate, then it with a leading zero byte
	diffOps
)

type diffStep struct {
	op   diffOp
	from int
	raw  []byte
}

// realOps are a suite's own keys in the place of its ideal ones.
func realOps(s *crypto.Suite) crypto.Ops {
	return crypto.Ops{Low: s.TSLow, High: s.TSHigh, Coin: s.TC, Dec: s.TE}
}

// diffEnvs returns tn's envs with the ideal Ops, or the real, each node
// with a fresh randomness of the same seed in both.
func diffEnvs(tn *testNet, real bool) []*Env {
	out := make([]*Env, len(tn.envs))
	for i, e := range tn.envs {
		env, suite := *e, *e.Suite
		if real {
			suite.Ops = realOps(&suite)
		}
		env.Suite, env.Rand = &suite, rand.New(rand.NewSource(int64(1000+i)))
		out[i] = &env
	}
	return out
}

// errClass names what the collector and the opening read of an error.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, threshenc.ErrCommitment):
		return "commitment"
	case errors.Is(err, dlthresh.ErrInconsistent):
		return "inconsistent"
	default:
		return "refused"
	}
}

// diffTrace runs steps on node 0 of envs under the scheme mk makes and
// returns what it saw: every verdict, error class, value and
// certificate, the rejections counted, and the next draw of every node's
// randomness.
func diffTrace[X, S, V any](envs []*Env, mk func(*Env) scheme[X, S, V], x X, modulus *big.Int, width int, steps []diffStep) []string {
	n := len(envs)
	schemes := make([]scheme[X, S, V], n)
	for i, e := range envs {
		schemes[i] = mk(e)
	}
	obs := schemes[0]
	shares, made := make([]S, n), make([]bool, n)
	share := func(w int) (S, error) {
		var err error
		if !made[w] {
			shares[w], err = schemes[w].share(x)
			made[w] = err == nil
		}
		return shares[w], err
	}
	held, have := make([]S, n), make([]bool, n)
	proofs := obs.bare == nil
	var cert []byte
	var out []string
	rejected := envs[0].T.Stats().Rejected
	note := func(step int, what string, err error, extra ...any) {
		out = append(out, fmt.Sprintf("%d %s: %s %x", step, what, errClass(err), extra))
	}
	// keepOwn drops the peers' shares, as the collector does when a
	// combination fails or the tally turns to proofs.
	keepOwn := func() {
		for v := 1; v < n; v++ {
			have[v] = false
		}
	}
	offer := func(step, w int, raw []byte, full bool) {
		if obs.bare != nil && full && !proofs {
			proofs = true
			keepOwn()
		}
		if obs.bare != nil && !full && proofs {
			return // the collector ignores a bare share once it counts proofs
		}
		var sh S
		var err error
		if full || obs.bare == nil {
			if sh, err = obs.decode(raw); err == nil {
				err = obs.verify(x, sh)
			}
		} else {
			sh, err = obs.decodeBare(raw)
		}
		note(step, "offer", err)
		if err == nil {
			held[w], have[w] = sh, true
		}
	}
	for i, st := range steps {
		w := st.from % n
		var raw []byte
		switch st.op {
		case diffBare, diffGarbage, diffRange:
			sh, err := share(w)
			if err != nil {
				note(i, "share", err)
				continue
			}
			if raw = schemes[w].encode(sh); obs.bare != nil {
				raw = schemes[w].bare(sh)
			}
		case diffFull, diffGarbageFull:
			sh, err := share(w)
			if err != nil {
				note(i, "share", err)
				continue
			}
			raw = schemes[w].encode(sh)
		}
		switch st.op {
		case diffBare:
			offer(i, w, raw, false)
		case diffFull:
			offer(i, w, raw, true)
		case diffGarbage, diffGarbageFull:
			buf := make([]byte, len(raw))
			rand.New(rand.NewSource(int64(i))).Read(buf)
			copy(buf, raw[:min(3, len(raw))])
			offer(i, w, buf, st.op == diffGarbageFull)
		case diffRange:
			offer(i, w, appendBig([]byte{byte(w + 1)}, modulus, width), false)
		case diffRaw:
			offer(i, w, st.raw, false)
		case diffCombine, diffCombineDup:
			var use []S
			if st.op == diffCombineDup && have[0] {
				use = append(use, held[0])
			}
			for v := range held {
				if have[v] {
					use = append(use, held[v])
				}
			}
			combine := obs.combine
			if !proofs && obs.combineBare != nil {
				combine = obs.combineBare
			}
			value, c, err := combine(x, use)
			note(i, "combine", err, value, c)
			switch {
			case err != nil:
				keepOwn()
				proofs = obs.bare != nil
			case c != nil:
				cert = c
			}
		case diffCheck:
			if obs.check == nil || cert == nil {
				continue
			}
			value, err := obs.check(x, cert)
			note(i, "check", err, value)
			_, err = obs.check(x, append([]byte{0}, cert...))
			note(i, "check non-canonical", err)
		}
	}
	draws := make([]uint64, n)
	for i, e := range envs {
		draws[i] = e.Rand.Uint64()
	}
	return append(out, fmt.Sprintf("rejected %d, next draws %x", envs[0].T.Stats().Rejected-rejected, draws))
}

// diffCase is one scheme and its subject, and the streams it is fed.
type diffCase struct {
	name    string
	trace   func(envs []*Env, steps []diffStep) []string
	streams [][]diffStep
}

func s(op diffOp, from int) diffStep { return diffStep{op: op, from: from} }

// diffCases are the four schemes of a run with their streams: honest bare
// and full shares, byz.Garbage's bytes, values out of range, a duplicate
// index, a steered decryption share, an uncommitted ciphertext and a
// non-canonical certificate.
func diffCases(tb testing.TB, tn *testNet) []diffCase {
	e0 := tn.envs[0]
	n := new(big.Int).Set(e0.Suite.TSLow.N)
	g := e0.Suite.TE.Group
	sigW, dlW := sigWidths(e0.Suite.TSLow)[0], dlWidths(g)[0]
	msg := []byte("differential subject")
	coin := coinName(e0.Session, e0.Epoch, sharedSlot, 1)
	ct, err := e0.Suite.TE.Encrypt([]byte("a proposal under the deployment's key"), rand.New(rand.NewSource(5)))
	if err != nil {
		tb.Fatal(err)
	}
	foreign, x := foreignCiphertext(tb, tn, []byte("a proposal under another key"), 6)
	steered := steeredShare(tb, tn, foreign, x, 0, 1)
	sigStreams := [][]diffStep{
		{s(diffBare, 0), s(diffBare, 1), s(diffBare, 2), s(diffCombine, 0), s(diffCheck, 0)},
		{s(diffBare, 0), s(diffGarbage, 1), s(diffGarbage, 2), s(diffCombine, 0), s(diffFull, 1), s(diffFull, 2), s(diffCombine, 0), s(diffCheck, 0)},
		{s(diffBare, 0), s(diffRange, 1), s(diffBare, 3), s(diffBare, 2), s(diffCombine, 0), s(diffCheck, 0)},
		{s(diffBare, 0), s(diffBare, 1), s(diffBare, 2), s(diffCombineDup, 0)},
		{s(diffBare, 0), s(diffGarbageFull, 1), s(diffGarbageFull, 2), s(diffFull, 3), s(diffFull, 2), s(diffCombine, 0)},
	}
	sig := func(high bool) func([]*Env, []diffStep) []string {
		return func(envs []*Env, steps []diffStep) []string {
			return diffTrace(envs, func(e *Env) scheme[[]byte, *threshsig.SigShare, []byte] { return sigScheme(e, high) }, msg, n, sigW, steps)
		}
	}
	decTrace := func(c *threshenc.Ciphertext) func([]*Env, []diffStep) []string {
		return func(envs []*Env, steps []diffStep) []string {
			return diffTrace(envs, decScheme, c, g.P, dlW, steps)
		}
	}
	return []diffCase{
		{"sig-low", sig(false), sigStreams},
		{"sig-high", sig(true), sigStreams},
		{"flip", func(envs []*Env, steps []diffStep) []string {
			return diffTrace(envs, flipScheme, coin, g.P, dlW, steps)
		}, [][]diffStep{
			{s(diffBare, 0), s(diffFull, 1), s(diffCombine, 0)},
			{s(diffBare, 0), s(diffGarbageFull, 1), s(diffRange, 2), s(diffFull, 3), s(diffCombine, 0)},
			{s(diffBare, 0), s(diffFull, 2), s(diffCombineDup, 0)},
		}},
		{"dec", decTrace(ct), [][]diffStep{
			{s(diffBare, 0), s(diffBare, 1), s(diffBare, 2), s(diffCombine, 0)},
			{s(diffBare, 0), s(diffGarbage, 1), s(diffBare, 2), s(diffBare, 3), s(diffCombine, 0), s(diffFull, 1), s(diffFull, 2), s(diffCombine, 0)},
			{s(diffBare, 0), s(diffRange, 1), s(diffBare, 2), s(diffBare, 3), s(diffCombine, 0)},
			{s(diffBare, 0), {op: diffRaw, from: 1, raw: steered}, s(diffBare, 2), s(diffCombine, 0), s(diffGarbageFull, 1), s(diffFull, 3), s(diffCombine, 0)},
			{s(diffBare, 0), s(diffBare, 1), s(diffBare, 2), s(diffCombineDup, 0)},
		}},
		{"dec-uncommitted", decTrace(foreign), [][]diffStep{
			{s(diffBare, 0), s(diffBare, 1), s(diffBare, 2), s(diffCombine, 0)},
			{s(diffBare, 0), {op: diffRaw, from: 1, raw: steered}, s(diffBare, 2), s(diffCombine, 0), s(diffFull, 2), s(diffFull, 3), s(diffCombine, 0)},
		}},
	}
}

// TestIdealSchemesMatchReal runs every stream of every case under both
// suites.
func TestIdealSchemesMatchReal(t *testing.T) {
	tn := newTestNet(t, 61, 0, true)
	for _, c := range diffCases(t, tn) {
		for i, steps := range c.streams {
			ideal, real := c.trace(diffEnvs(tn, false), steps), c.trace(diffEnvs(tn, true), steps)
			if !slices.Equal(ideal, real) {
				t.Errorf("%s, stream %d:\n ideal %q\n real  %q", c.name, i, ideal, real)
			}
		}
	}
}

// FuzzIdealSchemes feeds arbitrary streams to both suites: the input's
// first byte picks the case, and each later byte is a step, its op in the
// low nibble and its node in the high one. It is seeded from
// TestIdealSchemesMatchReal's table.
func FuzzIdealSchemes(f *testing.F) {
	tn := newTestNet(f, 61, 0, true)
	cases := diffCases(f, tn)
	for ci, c := range cases {
		for _, steps := range c.streams {
			in := []byte{byte(ci)}
			for _, st := range steps {
				if st.op != diffRaw {
					in = append(in, byte(st.op)|byte(st.from)<<4)
				}
			}
			f.Add(in)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 24 {
			return
		}
		c := cases[int(in[0])%len(cases)]
		var steps []diffStep
		for _, b := range in[1:] {
			if op := diffOp(b & 0xF); op < diffOps && op != diffRaw {
				steps = append(steps, diffStep{op: op, from: int(b >> 4)})
			}
		}
		ideal, real := c.trace(diffEnvs(tn, false), steps), c.trace(diffEnvs(tn, true), steps)
		if !slices.Equal(ideal, real) {
			t.Fatalf("%s:\n ideal %q\n real  %q", c.name, ideal, real)
		}
	})
}
