package protocol

import (
	"strings"
	"testing"

	"repro/internal/component"
)

// TestMaxProposalBytesIsTheComponentCap ties the constant run.Spec
// validation uses to the limit the broadcast components enforce: a
// proposal of exactly MaxProposalBytes is accepted, one byte more is
// refused at propose time.
func TestMaxProposalBytesIsTheComponentCap(t *testing.T) {
	_, envs := testEnvs(t, 1, 0)
	rbc := component.NewRBC(envs[0], component.RBCOptions{Slots: 8})
	rbc.Propose(0, make([]byte, MaxProposalBytes))
	defer func() {
		if r := recover(); r == nil {
			t.Errorf("%d B proposal accepted", MaxProposalBytes+1)
		}
	}()
	rbc.Propose(4, make([]byte, MaxProposalBytes+1))
}

func TestCheckProposalSize(t *testing.T) {
	cfg := ChainConfig{Encrypt: true}
	if err := cfg.CheckProposalSize(64); err != nil {
		t.Fatalf("default config refused: %v", err)
	}
	// The batch alone fits the broadcast; its framing does not.
	cfg.Mempool.MaxBatchBytes = MaxProposalBytes
	err := cfg.CheckProposalSize(64)
	if err == nil || !strings.Contains(err.Error(), "255 fragments of 160 B") {
		t.Fatalf("MaxBatchBytes %d: %v", MaxProposalBytes, err)
	}
	// The largest cap whose framed, encrypted worst case still fits.
	fits := (MaxProposalBytes - 2 - ciphertextEnvelope()) * 64 / 66
	cfg.Mempool.MaxBatchBytes = fits
	if err := cfg.CheckProposalSize(64); err != nil {
		t.Errorf("MaxBatchBytes %d refused: %v", fits, err)
	}
	cfg.Mempool.MaxBatchBytes = fits + 64
	if cfg.CheckProposalSize(64) == nil {
		t.Errorf("MaxBatchBytes %d accepted", fits+64)
	}
}
