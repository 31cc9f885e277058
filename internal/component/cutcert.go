package component

import (
	"repro/internal/core"
	"repro/internal/crypto/threshsig"
	"repro/internal/packet"
)

// CutCert is one cluster cut's certificate in the making (the clustered
// deployment of Sec. V-B): f+1 shares of the cluster's low-threshold key
// over one message, collected on the cluster's own channel exactly as
// PRBC collects its DONE proof, and transferable once combined. The tally
// opens at Begin, when this member commits the epoch the cut digests;
// shares that come earlier park. Entries are KindGlobal/PhaseDone, Sub =
// member, under a one-slot NACK row, and once the certificate exists it
// takes this member's share's place on the air.
type CutCert struct {
	env    *Env
	sigs   collector[[]byte, *threshsig.SigShare, []byte]
	cert   tally[[]byte, *threshsig.SigShare, []byte]
	done   packet.BitSet
	onCert func(cert []byte)
}

// NewCutCert makes the tally on env's epoch transport; onCert runs once,
// with the certificate, when it is combined here or taken from a peer.
func NewCutCert(env *Env, onCert func(cert []byte)) *CutCert {
	c := &CutCert{env: env, done: packet.NewBitSet(1), onCert: onCert}
	c.sigs = collector[[]byte, *threshsig.SigShare, []byte]{
		scheme: sigScheme(env, env.Suite.TSLow, env.Suite.TSLowShare), env: env, combined: c.certified,
	}
	return c
}

// Begin fixes the message the cut's shares sign, installs the NACK row
// that asks peers for theirs, and releases this member's share.
func (c *CutCert) Begin(msg []byte) {
	c.env.T.SetNack(packet.KindGlobal, packet.PhaseDone, c.done)
	c.sigs.begin(&c.cert, 0, msg, core.IntentKey{Kind: packet.KindGlobal, Phase: packet.PhaseDone, Sub: uint8(c.env.Me)})
}

// Cert returns the combined certificate, or nil.
func (c *CutCert) Cert() []byte { return c.cert.value }

// HandleSection takes a KindGlobal/PhaseDone section: peers' shares of
// the cut, or its certificate.
func (c *CutCert) HandleSection(from uint16, sec packet.Section) {
	w, ok := c.env.peer(from)
	if !ok {
		return
	}
	for _, e := range sec.Entries {
		if e.Slot == 0 {
			c.sigs.offer(&c.cert, 0, w, e.Flags, e.Data)
		}
	}
}

// certified runs once the certificate exists; the share intent stays live
// with the certificate in its place until every peer's row shows it.
func (c *CutCert) certified(_ int, cert []byte) {
	c.done.Set(0)
	c.env.T.SetNack(packet.KindGlobal, packet.PhaseDone, c.done)
	c.onCert(cert)
}
