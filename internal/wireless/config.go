// Package wireless models a shared-medium wireless channel (LoRa-class) on
// top of the discrete-event scheduler in internal/sim.
//
// The model captures the properties the paper's design targets:
//
//   - a single shared channel per cluster: at most one frame on the air at a
//     time, all attached stations receive every successful transmission
//     (broadcast advantage);
//   - CSMA-style contention: stations with pending frames draw a random
//     backoff slot after a DIFS gap; the minimum draw transmits, ties collide
//     and retry with a doubled contention window;
//   - frames bound at channel access: a station's Source builds its frames
//     when the station wins the medium, and the station holds the medium
//     from the win until the frame's not-before time (its signature);
//   - one logical packet, one access: the frames a station queues to follow
//     one another (Station.Follow) go out back-to-back, SlotTime apart —
//     shorter than DIFS, so no contender gets in between — once the first
//     has gone out without collision;
//   - airtime proportional to frame size (preamble + bytes/bitrate), so
//     batching N messages into one frame pays once for channel access;
//   - half-duplex radios: a station transmitting during a frame's airtime
//     misses that frame;
//   - independent per-receiver loss, repaired by the NACK machinery in
//     internal/core;
//   - an optional adversarial delivery hook that can delay or drop frames on
//     specific (src, dst) pairs, used to exercise the asynchronous adversary.
package wireless

import "time"

// NodeID identifies a station on a channel. IDs are assigned by the caller
// and must be unique per channel.
type NodeID uint16

// Config holds the physical and MAC parameters of a channel. The defaults
// (DefaultConfig) approximate a LoRa SF7/125kHz link, the class of radio the
// paper's testbed uses, which is why simulated consensus latencies land in
// the same tens-of-seconds regime the paper reports.
type Config struct {
	// BitRate is the on-air data rate in bits per second.
	BitRate float64
	// Preamble is the fixed per-frame radio preamble duration.
	Preamble time.Duration
	// FrameOverhead is the PHY+MAC header size in bytes added to every frame.
	FrameOverhead int
	// SlotTime is the duration of one contention backoff slot.
	SlotTime time.Duration
	// DIFS is the idle gap a station must observe before contending.
	DIFS time.Duration
	// CWMin and CWMax bound the contention window (in slots). The window
	// doubles after a collision and resets after a successful transmission.
	CWMin, CWMax int
	// LossProb is the independent probability that a given receiver misses a
	// successfully transmitted frame (fading/interference).
	LossProb float64
	// MaxFrame is the maximum payload bytes per frame (MTU). Larger logical
	// packets are fragmented by the transport layer.
	MaxFrame int
}

// DefaultConfig returns LoRa-class channel parameters.
func DefaultConfig() Config {
	return Config{
		BitRate:       5470, // ~LoRa SF7 / 125 kHz
		Preamble:      25 * time.Millisecond,
		FrameOverhead: 13,
		SlotTime:      10 * time.Millisecond,
		DIFS:          30 * time.Millisecond,
		CWMin:         8,
		CWMax:         128,
		LossProb:      0.02,
		MaxFrame:      240,
	}
}

// Airtime returns the on-air duration of a frame with the given payload
// size under this configuration.
func (c Config) Airtime(payloadBytes int) time.Duration {
	bits := float64(payloadBytes+c.FrameOverhead) * 8
	return c.Preamble + time.Duration(bits/c.BitRate*float64(time.Second))
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.BitRate <= 0:
		return errBadConfig("BitRate must be positive")
	case c.CWMin < 1 || c.CWMax < c.CWMin:
		return errBadConfig("contention window bounds invalid")
	case c.LossProb < 0 || c.LossProb >= 1:
		return errBadConfig("LossProb must be in [0,1)")
	case c.MaxFrame < 16:
		return errBadConfig("MaxFrame too small")
	}
	return nil
}

type errBadConfig string

func (e errBadConfig) Error() string { return "wireless: bad config: " + string(e) }
