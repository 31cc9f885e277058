// Package crypto bundles the threshold-cryptography substrates into a
// per-node Suite and provides the virtual-time cost model that charges
// cryptographic work against protocol latency.
//
// Inside a run, real threshold arithmetic decides only which shares and
// certificates are valid, what a combination yields (unique: a
// signature, a coin, a plaintext), how long each encoding is and how many
// bytes each operation reads from the node's randomness; virtual time
// reads none of it (CostModel). So a run makes, checks and combines shares
// through each key's ideal functionality (Suite.Ops): tags keyed by the
// dealer's secret, checked by recomputing them after the real decode and
// range checks, and combined to the output the dealer's secret gives,
// with the real nonce draws. It decides all four the same way at a
// fraction of the host time. The real share arithmetic runs in the crypto
// packages' tests, in Fig. 10's microbenchmarks and, through RealSuites,
// in the one test that compares whole runs under both.
package crypto

import "time"

// CostModel holds per-operation virtual compute times. Protocol simulations
// charge these against each node's single-core CPU (sim.CPU), reproducing
// the paper's observation that cryptographic processing time — not just
// message complexity — gates consensus latency on embedded hardware.
//
// Defaults are calibrated to the magnitudes of the paper's Fig. 10a/10b
// (STM32F767 with MIRACL): light parameter sets sit in the tens of
// milliseconds per operation, the heaviest near a second. Our x86
// implementations are orders of magnitude faster in wall time; the
// microbenchmarks (Fig. 10 repro) measure those real times separately,
// while simulations use this model so crypto/airtime ratios match the
// paper's hardware. See EXPERIMENTS.md. The modeled STM32 has one core:
// n operations are charged n times the per-operation cost, and neither
// the ideal suite a run uses nor the host-side memos and comb tables of
// the real keys discount virtual time.
type CostModel struct {
	PKSign   time.Duration // public-key digital signature over a frame
	PKVerify time.Duration // verification of a frame signature

	TSSign        time.Duration // threshold signature share generation
	TSVerifyShare time.Duration
	TSCombine     time.Duration
	TSVerify      time.Duration // combined-signature verification

	TCShare       time.Duration // threshold coin share generation
	TCVerifyShare time.Duration
	TCCombine     time.Duration

	TEEncrypt     time.Duration
	TEDecShare    time.Duration
	TEVerifyShare time.Duration
	TECombine     time.Duration
}

// scale multiplies every field of the base model.
func (m CostModel) scale(f float64) CostModel {
	s := func(d time.Duration) time.Duration { return time.Duration(float64(d) * f) }
	return CostModel{
		PKSign: s(m.PKSign), PKVerify: s(m.PKVerify),
		TSSign: s(m.TSSign), TSVerifyShare: s(m.TSVerifyShare),
		TSCombine: s(m.TSCombine), TSVerify: s(m.TSVerify),
		TCShare: s(m.TCShare), TCVerifyShare: s(m.TCVerifyShare), TCCombine: s(m.TCCombine),
		TEEncrypt: s(m.TEEncrypt), TEDecShare: s(m.TEDecShare),
		TEVerifyShare: s(m.TEVerifyShare), TECombine: s(m.TECombine),
	}
}

// baseCost is the lightest parameter set's model (the paper's BN158 +
// secp160r1 pairing, our TS-512 + P-224).
var baseCost = CostModel{
	PKSign:   15 * time.Millisecond,
	PKVerify: 30 * time.Millisecond,

	TSSign:        45 * time.Millisecond,
	TSVerifyShare: 80 * time.Millisecond,
	TSCombine:     60 * time.Millisecond,
	TSVerify:      70 * time.Millisecond,

	// Coin flipping is cheaper than threshold signing (paper Fig. 10b).
	TCShare:       30 * time.Millisecond,
	TCVerifyShare: 55 * time.Millisecond,
	TCCombine:     40 * time.Millisecond,

	TEEncrypt:     50 * time.Millisecond,
	TEDecShare:    35 * time.Millisecond,
	TEVerifyShare: 60 * time.Millisecond,
	TECombine:     45 * time.Millisecond,
}

// costScale maps threshold parameter-set names to multipliers over the
// base model, following the ordering of the paper's six curves.
var costScale = map[string]float64{
	"TS-512":  1.0,  // ~ BN158
	"TS-768":  2.1,  // ~ BN254
	"TS-1024": 4.4,  // ~ BLS12383
	"TS-1536": 5.6,  // ~ BLS12381
	"TS-2048": 8.5,  // ~ FP256BN
	"TS-3072": 22.0, // ~ FP512BN
}

// CostFor returns the calibrated cost model for a threshold parameter set.
// Unknown names fall back to the base model.
func CostFor(thresholdSet string) CostModel {
	if f, ok := costScale[thresholdSet]; ok {
		return baseCost.scale(f)
	}
	return baseCost
}

// ParamSetNames returns the threshold parameter-set names in ascending
// weight, alongside the paper curve each stands in for.
func ParamSetNames() []struct{ Ours, Paper string } {
	return []struct{ Ours, Paper string }{
		{"TS-512", "BN158"},
		{"TS-768", "BN254"},
		{"TS-1024", "BLS12383"},
		{"TS-1536", "BLS12381"},
		{"TS-2048", "FP256BN"},
		{"TS-3072", "FP512BN"},
	}
}
