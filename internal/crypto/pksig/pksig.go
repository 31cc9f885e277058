// Package pksig names the public-key signature schemes a frame can be
// signed under and their fixed signature widths.
//
// Every frame a node transmits is signed (the paper: "each message requires
// a public-key digital signature"), so signature size directly consumes
// packet space that batching could otherwise use — the trade-off the
// paper's Fig. 10c quantifies across five micro-ecc curves. The stdlib has
// no secp160r1/secp192r1, so the reproduction offers five stdlib schemes
// (Ed25519 and ECDSA over P-224/P-256/P-384/P-521) spanning the same
// size/cost ladder; the mapping is documented in DESIGN.md. Frames carry
// the ideal signature of the scheme's width (core.SizedAuth), so no key is
// generated and nothing is signed here.
package pksig

import "crypto/ed25519"

// Scheme identifies a signature scheme.
type Scheme string

// Supported schemes, lightest signature first.
const (
	SchemeEd25519   Scheme = "ed25519"
	SchemeECDSAP224 Scheme = "ecdsa-p224"
	SchemeECDSAP256 Scheme = "ecdsa-p256"
	SchemeECDSAP384 Scheme = "ecdsa-p384"
	SchemeECDSAP521 Scheme = "ecdsa-p521"
)

// AllSchemes returns the supported schemes in increasing signature size.
func AllSchemes() []Scheme {
	return []Scheme{SchemeECDSAP224, SchemeECDSAP256, SchemeEd25519, SchemeECDSAP384, SchemeECDSAP521}
}

// SignatureLen returns the fixed signature length of a scheme in bytes.
func (s Scheme) SignatureLen() int {
	switch s {
	case SchemeEd25519:
		return ed25519.SignatureSize
	case SchemeECDSAP224:
		return 2 * 28
	case SchemeECDSAP256:
		return 2 * 32
	case SchemeECDSAP384:
		return 2 * 48
	case SchemeECDSAP521:
		return 2 * 66
	default:
		return 0
	}
}
