package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/crypto"
	"repro/internal/crypto/group"
	"repro/internal/crypto/threshcoin"
	"repro/internal/crypto/threshsig"
	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/sweep"
)

// CryptoOpRow is one (parameter set, operation) measurement for
// Fig. 10a/10b: the real wall-clock latency of our implementations on this
// machine. The paper measures MIRACL on an STM32F767; the *ordering* of
// parameter sets and of operations is the reproducible shape.
type CryptoOpRow struct {
	Set     string
	PaperEq string
	Op      string
	Latency time.Duration
}

// Fig. 10a/10b run on the sweep engine like every other experiment, with
// one cell per parameter set — but they are registered Serial.
//
// Every rep of an op works on its own message or coin name (repNames), and
// the shares it reads are made before its timed call: a rep on a message
// an earlier rep touched would find its answer in the key's memos (a
// combination's, an interpolation's) and time a lookup. What a rep does
// find is what a run's parties find: the message's context or the coin's
// base comb, built by the sign rep, and what a key builds once — the comb
// of a verification key, the exponents of a share set — built by the
// untimed rep 0 (measure).

// repNames returns reps+1 distinct messages, one per rep.
func repNames(prefix string, reps int) [][]byte {
	out := make([][]byte, reps+1)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("%s/%d", prefix, i))
	}
	return out
}

// measureFig10aSet runs the threshold-signature op ladder for one
// parameter set.
func measureFig10aSet(fix threshsig.ModulusFixture, reps int, paperEq map[string]string) ([]CryptoOpRow, error) {
	rng := rand.New(rand.NewSource(7))
	var key *threshsig.Key
	dealT := measure(reps, func(int) {
		var err error
		key, err = threshsig.Deal(fix.Name, fix.P, fix.Q, 2, 4, rng)
		if err != nil {
			panic(err)
		}
	})
	pk := &key.Public
	msgs := repNames("fig10a", reps)
	shares := make([][]*threshsig.SigShare, len(msgs))
	signT := measure(reps, func(i int) {
		sh, err := pk.Sign(key.Shares[0], msgs[i], rng)
		if err != nil {
			panic(err)
		}
		shares[i] = []*threshsig.SigShare{sh}
	})
	verifyShareT := measure(reps, func(i int) {
		if err := pk.VerifyShare(msgs[i], shares[i][0]); err != nil {
			panic(err)
		}
	})
	for i, msg := range msgs { // Combine reads no proof
		sh, err := pk.SignBare(key.Shares[1], msg, rng)
		if err != nil {
			return nil, err
		}
		shares[i] = append(shares[i], sh)
	}
	sigs := make([]*threshsig.Signature, len(msgs))
	combineT := measure(reps, func(i int) {
		var err error
		sigs[i], err = pk.Combine(msgs[i], shares[i])
		if err != nil {
			panic(err)
		}
	})
	verifyT := measure(reps, func(i int) {
		if err := pk.Verify(msgs[i], sigs[i]); err != nil {
			panic(err)
		}
	})
	var rows []CryptoOpRow
	for _, p := range []struct {
		op string
		d  time.Duration
	}{
		{"dealer", dealT}, {"sign", signT}, {"verifyshare", verifyShareT},
		{"combineshare", combineT}, {"verifysignature", verifyT},
	} {
		rows = append(rows, CryptoOpRow{Set: fix.Name, PaperEq: paperEq[fix.Name], Op: p.op, Latency: p.d})
	}
	return rows, nil
}

// fig10aRows measures dealer/sign/verify-share/combine/verify for every
// embedded parameter set.
func fig10aRows(ctx *Context) ([]CryptoOpRow, error) {
	return cryptoLadder(ctx, "set", threshsig.Fixtures(),
		func(f threshsig.ModulusFixture) string { return f.Name }, measureFig10aSet)
}

// measureFig10bGroup runs the coin op ladder for one DH group.
func measureFig10bGroup(g *group.Group, reps int, paperEq map[string]string) ([]CryptoOpRow, error) {
	groupToSig := map[string]string{
		"SG-512": "TS-512", "SG-768": "TS-768", "SG-1024": "TS-1024",
		"SG-1536": "TS-1536", "SG-2048": "TS-2048", "SG-3072": "TS-3072",
	}
	rng := rand.New(rand.NewSource(7))
	var key *threshcoin.Key
	dealT := measure(reps, func(int) {
		var err error
		key, err = threshcoin.Deal(g, 2, 4, rng)
		if err != nil {
			panic(err)
		}
	})
	pk := &key.Public
	names := repNames("fig10b", reps)
	shares := make([][]*threshcoin.CoinShare, len(names))
	signT := measure(reps, func(i int) {
		sh, err := pk.Share(key.Shares[0], names[i], rng)
		if err != nil {
			panic(err)
		}
		shares[i] = []*threshcoin.CoinShare{sh}
	})
	verifyT := measure(reps, func(i int) {
		if err := pk.VerifyShare(names[i], shares[i][0]); err != nil {
			panic(err)
		}
	})
	for i, name := range names {
		sh, err := pk.Share(key.Shares[1], name, rng)
		if err != nil {
			return nil, err
		}
		shares[i] = append(shares[i], sh)
	}
	combineT := measure(reps, func(i int) {
		if _, err := pk.Combine(names[i], shares[i]); err != nil {
			panic(err)
		}
	})
	var rows []CryptoOpRow
	for _, p := range []struct {
		op string
		d  time.Duration
	}{
		{"dealer", dealT}, {"sign", signT}, {"verifyshare", verifyT}, {"combineshare", combineT},
	} {
		rows = append(rows, CryptoOpRow{Set: g.Name, PaperEq: paperEq[groupToSig[g.Name]], Op: p.op, Latency: p.d})
	}
	return rows, nil
}

// fig10bRows measures dealer/sign/verify-share/combine for the DH-based
// coin across group sizes.
func fig10bRows(ctx *Context) ([]CryptoOpRow, error) {
	return cryptoLadder(ctx, "group", group.All(),
		func(g *group.Group) string { return g.Name }, measureFig10bGroup)
}

// cryptoLadder runs one op ladder per parameter set — a sweep cell each,
// ctx.Reps repetitions per op, mean reported — and concatenates the rows.
func cryptoLadder[S any](ctx *Context, axis string, sets []S, name func(S) string,
	measure func(S, int, map[string]string) ([]CryptoOpRow, error)) ([]CryptoOpRow, error) {
	reps := ctx.Reps
	if reps <= 0 {
		reps = 3
	}
	paperEq := paperNames()
	grid := sweep.Grid[S]{Axes: []sweep.Axis[S]{sweep.Over(axis, sets, name, func(c *S, s S) { *c = s })}}
	results, err := sweep.Run(grid, ctx.sweepOpts(), func(c sweep.Cell[S]) ([]CryptoOpRow, error) {
		return measure(c.Config, reps, paperEq)
	})
	if err != nil {
		return nil, err
	}
	var rows []CryptoOpRow
	for _, r := range results {
		rows = append(rows, r.Value...)
	}
	return rows, nil
}

func paperNames() map[string]string {
	out := map[string]string{}
	for _, r := range crypto.ParamSetNames() {
		out[r.Ours] = r.Paper
	}
	return out
}

// measure calls fn(0) untimed, then returns fn's mean time over reps
// calls, fn(1) to fn(reps).
func measure(reps int, fn func(i int)) time.Duration {
	fn(0)
	start := time.Now()
	for i := 1; i <= reps; i++ {
		fn(i)
	}
	return time.Since(start) / time.Duration(reps)
}

// SizeRow is a Fig. 10c bar: signature size per scheme.
type SizeRow struct {
	Name  string
	Kind  string // "public-key" or "threshold"
	Bytes int
}

// fig10cRows reports the signature-size bars.
func fig10cRows(*Context) ([]SizeRow, error) {
	pk, thr := crypto.SignatureSizes()
	var rows []SizeRow
	for _, p := range pk {
		rows = append(rows, SizeRow{Name: p.Name, Kind: "public-key", Bytes: p.Size})
	}
	for _, t := range thr {
		rows = append(rows, SizeRow{Name: t.Name, Kind: "threshold", Bytes: t.Size})
	}
	return rows, nil
}

// Fig10dPoint is one (throughput, latency) point of the crypto-impact plot.
type Fig10dPoint struct {
	Config    string
	BatchSize int
	Latency   time.Duration
	TPM       float64
}

// fig10dRows runs HoneyBadgerBFT-SC with the light and heavy crypto
// configurations over a batch-size sweep (Fig. 10d: lighter curves give
// lower latency and higher throughput).
func fig10dRows(ctx *Context) ([]Fig10dPoint, error) {
	base := run.Defaults(protocol.HoneyBadger, protocol.CoinSig)
	base.Seed = ctx.Seed
	base.Workload = run.OneShot(ctx.Epochs)
	grid := sweep.Grid[run.Spec]{Base: base, Axes: []sweep.Axis[run.Spec]{
		{Name: "config", Points: []sweep.Point[run.Spec]{
			{Label: "light(BN158-eq)", Apply: func(s *run.Spec) { s.Crypto = crypto.LightConfig() }},
			{Label: "heavy(BN254-eq)", Apply: func(s *run.Spec) { s.Crypto = crypto.HeavyConfig() }},
		}},
		sweep.Over("batch", []int{2, 4, 8, 16}, nil, func(s *run.Spec, b int) { s.Workload.BatchSize = b }),
	}}
	results, err := sweep.Run(grid, ctx.sweepOpts(), func(c sweep.Cell[run.Spec]) (Fig10dPoint, error) {
		res, err := run.Run(c.Config)
		if err != nil {
			return Fig10dPoint{}, fmt.Errorf("bench: fig10d %s: %w", c.Name(), err)
		}
		return Fig10dPoint{
			Config: c.Labels[0], BatchSize: c.Config.Workload.BatchSize,
			Latency: res.OneShot.MeanLatency, TPM: res.OneShot.TPM,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return sweep.Values(results), nil
}

// printCryptoOps renders Fig. 10a/10b rows.
func printCryptoOps(w io.Writer, title string, rows []CryptoOpRow) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-9s %-9s %-16s %12s\n", "set", "paper-eq", "op", "latency")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %-9s %-16s %12s\n", r.Set, r.PaperEq, r.Op, r.Latency.Round(time.Microsecond))
	}
}

// printSizes renders Fig. 10c rows.
func printSizes(w io.Writer, title string, rows []SizeRow) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-12s %-11s %6s\n", "scheme", "kind", "bytes")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-11s %6d\n", r.Name, r.Kind, r.Bytes)
	}
}

// printFig10d renders the crypto-impact points.
func printFig10d(w io.Writer, title string, rows []Fig10dPoint) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-16s %6s %12s %10s\n", "config", "batch", "latency", "TPM")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %6d %12s %10.1f\n", r.Config, r.BatchSize, r.Latency.Round(time.Millisecond), r.TPM)
	}
}
