package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/crypto/threshcoin"
	"repro/internal/crypto/threshenc"
	"repro/internal/crypto/threshsig"
	"repro/internal/packet"
	"repro/internal/protocol"
	"repro/internal/run"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/wireless"
)

// The layer rigs time calls into one internal package's exported functions
// from outside, on fixed inputs that do not depend on the workload. Every
// rig is a fixed amount of work (RigScale times a base iteration count);
// times are medians over batches or over single operations.

type rigs struct {
	scale float64
	seed  int64
	tr    *tracer
	m     Metrics
}

// n scales a base iteration count, with one iteration as the floor.
func (r *rigs) n(base int) int {
	if v := int(float64(base) * r.scale); v > 1 {
		return v
	}
	return 1
}

// runAll runs every rig, one span per layer.
func (r *rigs) runAll() error {
	for _, layer := range []struct {
		name string
		fn   func() error
	}{
		{"sim", r.simRig},
		{"wireless", r.wirelessRig},
		{"packet", r.packetRig},
		{"core", r.coreRig},
		{"crypto", r.cryptoRig},
		{"component", r.componentRig},
		{"protocol", r.protocolRig},
		{"traffic", r.trafficRig},
		{"scenario", r.scenarioRig},
	} {
		end := r.tr.begin("rig:" + layer.name)
		err := layer.fn()
		end()
		if err != nil {
			return fmt.Errorf("%s rig: %w", layer.name, err)
		}
	}
	return nil
}

// perCall runs fn in batches and returns the median batch's nanoseconds per
// call and the mean heap allocations per call.
func perCall(batches, iters int, fn func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	per := make([]float64, batches)
	for b := range per {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	runtime.ReadMemStats(&after)
	return median(per), float64(after.Mallocs-before.Mallocs) / float64(batches*iters)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// stopwatch collects single-operation timings.
type stopwatch []float64

// time runs fn once and records its duration in nanoseconds.
func (s *stopwatch) time(fn func()) {
	start := time.Now()
	fn()
	*s = append(*s, float64(time.Since(start).Nanoseconds()))
}

func (s stopwatch) medianUs() float64 { return median(s) / 1e3 }

// --- sim ---

// simRig churns the scheduler with the event mix the transports produce:
// handle-carrying After timers with random delays, handle-free fixed-delay
// lane posts (the flush poll), and about 10 % cancellations (retransmit
// timers).
func (r *rigs) simRig() error {
	events := uint64(r.n(1_000_000))
	const batches = 3
	ns := make([]float64, batches)
	var allocs float64
	for b := range ns {
		s := sim.New(r.seed + int64(b))
		rng := rand.New(rand.NewSource(r.seed))
		ring := make([]*sim.Event, 256)
		count := 0
		delay := func() time.Duration { return time.Duration(1+rng.Intn(4000)) * time.Millisecond }
		var fire func()
		fire = func() {
			count++
			if count%4 == 0 {
				s.PostAfterFixed(120*time.Millisecond, fire)
				return
			}
			i := count % len(ring)
			if old := ring[i]; count%5 == 0 && !old.Cancelled() && old.At() > s.Now() {
				// Cancel a still-pending timer and replace its chain.
				old.Cancel()
				s.After(delay(), fire)
			}
			ring[i] = s.After(delay(), fire)
		}
		for i := 0; i < 1024; i++ {
			s.After(delay(), fire)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for s.Fired() < events && s.Step() {
		}
		el := time.Since(start)
		runtime.ReadMemStats(&after)
		ns[b] = float64(el.Nanoseconds()) / float64(s.Fired())
		allocs = float64(after.Mallocs-before.Mallocs) / float64(s.Fired())
	}
	r.m.set("sim.ns_per_event", median(ns))
	r.m.set("sim.allocs_per_event", allocs)

	s := sim.New(r.seed)
	cpu := sim.NewCPU(s)
	noop := func() {}
	exec, _ := perCall(5, r.n(100_000), func() {
		cpu.Exec(30*time.Millisecond, noop)
		s.Step()
	})
	r.m.set("sim.cpu_exec_ns", exec)
	return nil
}

// --- wireless ---

type nullReceiver struct{}

func (nullReceiver) ReceiveFrame(wireless.NodeID, []byte) {}

// wirelessRig drains 4 stations x 64 queued 200 B frames through CSMA
// arbitration to receivers that discard them.
func (r *rigs) wirelessRig() error {
	frame := make([]byte, 200)
	var accesses uint64
	round := func() {
		s := sim.New(r.seed)
		ch := wireless.NewChannel(s, wireless.DefaultConfig())
		for id := 0; id < 4; id++ {
			st := ch.Attach(wireless.NodeID(id), nullReceiver{})
			for i := 0; i < 64; i++ {
				st.Broadcast(frame)
			}
		}
		s.Run()
		accesses = ch.Stats().Accesses
	}
	ns, allocs := perCall(5, r.n(16), round)
	if accesses == 0 {
		return fmt.Errorf("no channel access was won")
	}
	r.m.set("wireless.ns_per_access", ns/float64(accesses))
	r.m.set("wireless.allocs_per_access", allocs/float64(accesses))
	return nil
}

// --- packet ---

// batchedFrame is a 6-section ConsensusBatcher frame of about 200 B: the
// shape a mid-epoch HoneyBadger node has on the air.
func batchedFrame() *packet.Frame {
	sec := func(k packet.Kind, p packet.Phase, entries, size int) packet.Section {
		s := packet.Section{Kind: k, Phase: p, Nack: packet.NewBitSet(4)}
		for i := 0; i < entries; i++ {
			data := make([]byte, size)
			for j := range data {
				data[j] = byte(i*31 + j)
			}
			s.Entries = append(s.Entries, packet.Entry{Slot: uint8(i), Round: 1, Data: data})
		}
		return s
	}
	return &packet.Frame{
		Sender: 2, Session: 7, Epoch: 3,
		Sections: []packet.Section{
			sec(packet.KindRBC, packet.PhaseEcho, 4, 8),
			sec(packet.KindRBC, packet.PhaseReady, 4, 8),
			sec(packet.KindABA, packet.PhaseBval, 4, 1),
			sec(packet.KindABA, packet.PhaseAux, 4, 1),
			sec(packet.KindABA, packet.PhaseShare, 1, 12),
			sec(packet.KindDec, packet.PhaseDecShare, 1, 12),
		},
		Sig: make([]byte, 56),
	}
}

// baselineFrame is the per-instance transport's frame: one section, one
// entry.
func baselineFrame() *packet.Frame {
	return &packet.Frame{
		Sender: 2, Session: 7, Epoch: 3,
		Sections: []packet.Section{{
			Kind: packet.KindRBC, Phase: packet.PhaseEcho, Nack: packet.NewBitSet(4),
			Entries: []packet.Entry{{Slot: 1, Data: make([]byte, 8)}},
		}},
		Sig: make([]byte, 56),
	}
}

func (r *rigs) packetRig() error {
	iters := r.n(100_000)
	for _, c := range []struct {
		suffix string
		frame  *packet.Frame
	}{{"", batchedFrame()}, {"_small", baselineFrame()}} {
		raw, err := c.frame.Encode()
		if err != nil {
			return err
		}
		enc, encAllocs := perCall(5, iters, func() {
			if _, err := c.frame.Encode(); err != nil {
				panic(err) // encoded once above
			}
		})
		dec, decAllocs := perCall(5, iters, func() {
			if _, _, err := packet.Decode(raw); err != nil {
				panic(err) // round-trips the encoding above
			}
		})
		r.m.set("packet.encode_ns"+c.suffix, enc)
		r.m.set("packet.decode_ns"+c.suffix, dec)
		if c.suffix == "" {
			r.m.set("packet.allocs_per_roundtrip", encAllocs+decAllocs)
		}
	}
	return nil
}

// --- core ---

// capture keeps a copy of every radio frame it hears.
type capture struct{ frames [][]byte }

func (c *capture) ReceiveFrame(_ wireless.NodeID, payload []byte) {
	c.frames = append(c.frames, append([]byte(nil), payload...))
}

func sizedAuth() *core.SizedAuth {
	return &core.SizedAuth{Len: 56, CostSign: 15 * time.Millisecond, CostVerify: 30 * time.Millisecond}
}

// standingIntents is 32 intents over 4 (kind, phase) pairs: what one node
// of a 4-node group holds mid-epoch.
func standingIntents() []core.Intent {
	pairs := []struct {
		k packet.Kind
		p packet.Phase
	}{{packet.KindRBC, packet.PhaseEcho}, {packet.KindRBC, packet.PhaseReady},
		{packet.KindABA, packet.PhaseBval}, {packet.KindDec, packet.PhaseDecShare}}
	var out []core.Intent
	for _, pr := range pairs {
		for i := 0; i < 8; i++ {
			out = append(out, core.Intent{
				IntentKey: core.IntentKey{Kind: pr.k, Phase: pr.p, Slot: uint8(i % 4), Sub: uint8(i / 4)},
				Data:      []byte{byte(i), 1, 2, 3},
			})
		}
	}
	return out
}

func transportConfig(batched bool) core.Config {
	cfg := core.DefaultConfig(batched)
	cfg.Session = 7
	cfg.RetxInterval = 0 // the rigs time one flush, not the retransmit timer
	return cfg
}

func (r *rigs) coreRig() error {
	intents := standingIntents()
	// Flush: refresh all 32 standing intents, then drain the scheduler —
	// assembly, virtual signing, fragmentation, and the frames' airtime.
	// Batched sends one logical packet per refresh, baseline 32.
	for _, mode := range []struct {
		name    string
		batched bool
	}{{"core.flush_us_batched", true}, {"core.flush_us_baseline", false}} {
		s := sim.New(r.seed)
		ch := wireless.NewChannel(s, wireless.DefaultConfig())
		tr := core.New(s, sim.NewCPU(s), nil, sizedAuth(), transportConfig(mode.batched))
		tr.BindStation(ch.Attach(0, tr))
		ns, _ := perCall(5, r.n(400), func() {
			for _, in := range intents {
				tr.Update(in)
			}
			s.Run()
		})
		if tr.Stats().LogicalSent == 0 {
			return fmt.Errorf("%s: nothing was sent", mode.name)
		}
		r.m.set(mode.name, ns/1e3)
	}

	// Receive: replay one captured single-fragment radio frame of the
	// batched shape into a transport whose handlers discard the sections.
	onAir, err := captureFrames(r.seed, 1)
	if err != nil {
		return err
	}
	s := sim.New(r.seed)
	rx := core.New(s, sim.NewCPU(s), nil, sizedAuth(), transportConfig(true))
	discard := core.HandlerFunc(func(uint16, packet.Section) {})
	for _, k := range []packet.Kind{packet.KindRBC, packet.KindABA, packet.KindDec} {
		rx.Register(k, discard)
	}
	ns, _ := perCall(5, r.n(50_000), func() {
		rx.ReceiveFrame(0, onAir[0])
		s.Run()
	})
	if rx.Stats().LogicalRecv == 0 {
		return fmt.Errorf("core.receive_us: the replayed frame was not accepted")
	}
	r.m.set("core.receive_us", ns/1e3)

	// Mux: the same receive path behind the epoch demultiplexer with four
	// epochs open; the difference to core.receive_us is the routing.
	const openEpochs = 4
	onAir, err = captureFrames(r.seed, openEpochs)
	if err != nil {
		return err
	}
	s = sim.New(r.seed)
	mux := core.NewMux(s, sim.NewCPU(s), sizedAuth(), transportConfig(true))
	for e := 0; e < openEpochs; e++ {
		t := mux.Open(uint16(e))
		for _, k := range []packet.Kind{packet.KindRBC, packet.KindABA, packet.KindDec} {
			t.Register(k, discard)
		}
	}
	next := 0
	ns, _ = perCall(5, r.n(50_000), func() {
		mux.ReceiveFrame(0, onAir[next%openEpochs])
		next++
		s.Run()
	})
	if mux.Stats().LogicalRecv == 0 {
		return fmt.Errorf("core.mux_route_ns: no replayed frame was routed")
	}
	r.m.set("core.mux_route_ns", ns)
	return nil
}

// captureFrames has a Mux sender flush the standing intents once on each
// of the first `epochs` epochs and returns the radio frames as heard on
// the air, one per epoch. The fragment header is private to core, so
// hearing a real transmission is how a frame is obtained from outside.
func captureFrames(seed int64, epochs int) ([][]byte, error) {
	s := sim.New(seed)
	cfg := wireless.DefaultConfig()
	cfg.LossProb = 0
	ch := wireless.NewChannel(s, cfg)
	mux := core.NewMux(s, sim.NewCPU(s), sizedAuth(), transportConfig(true))
	mux.BindStation(ch.Attach(0, mux))
	ear := &capture{}
	ch.Attach(1, ear)
	// Every fourth standing intent (8 over the 4 pairs) keeps the logical
	// packet inside one 240 B radio frame.
	var intents []core.Intent
	for i, in := range standingIntents() {
		if i%4 == 0 {
			intents = append(intents, in)
		}
	}
	for e := 0; e < epochs; e++ {
		t := mux.Open(uint16(e))
		for _, in := range intents {
			t.Update(in)
		}
		s.Run()
	}
	if len(ear.frames) != epochs {
		return nil, fmt.Errorf("captured %d radio frames for %d logical packets (fragmented?)", len(ear.frames), epochs)
	}
	return ear.frames, nil
}

// --- crypto ---

// cryptoRig times every threshold operation of the light suite at N=4 on
// fresh messages, so neither the per-message context of the first signer
// nor the share-verdict memo is warm unless the protocol would find it
// warm too (the second signer of a message does).
func (r *rigs) cryptoRig() error {
	var deals stopwatch
	var suites []*crypto.Suite
	for i := 0; i < r.n(5); i++ {
		var err error
		deals.time(func() {
			suites, err = crypto.Deal(4, 1, crypto.LightConfig(), rand.New(rand.NewSource(r.seed+int64(i))))
		})
		if err != nil {
			return err
		}
	}
	r.m.set("crypto.deal_ms", median(deals)/1e6)

	a, b := suites[0], suites[1]
	rng := rand.New(rand.NewSource(r.seed ^ 0xc0ffee))
	var tsSign, tsVS, tsComb, tsVer, tcShare, tcVS, tcComb, teEnc, teDS, teVS, teComb stopwatch
	var err error
	fail := func(op string) error { return fmt.Errorf("%s: %w", op, err) }
	for i := 0; i < r.n(48); i++ {
		msg := []byte(fmt.Sprintf("benchmark/%d/%d", r.seed, i))

		var s0, s1 *threshsig.SigShare
		tsSign.time(func() { s0, err = a.TSLow.Sign(a.TSLowShare, msg, rng) })
		if err != nil {
			return fail("ts sign")
		}
		tsSign.time(func() { s1, err = a.TSLow.Sign(b.TSLowShare, msg, rng) })
		if err != nil {
			return fail("ts sign")
		}
		tsVS.time(func() { err = a.TSLow.VerifyShare(msg, s1) })
		if err != nil {
			return fail("ts verify share")
		}
		var sig *threshsig.Signature
		tsComb.time(func() { sig, err = a.TSLow.Combine(msg, []*threshsig.SigShare{s0, s1}) })
		if err != nil {
			return fail("ts combine")
		}
		tsVer.time(func() { err = a.TSLow.Verify(msg, sig) })
		if err != nil {
			return fail("ts verify")
		}

		var c0, c1 *threshcoin.CoinShare
		tcShare.time(func() { c0, err = a.TC.Share(a.TCShare, msg, rng) })
		if err != nil {
			return fail("tc share")
		}
		tcShare.time(func() { c1, err = a.TC.Share(b.TCShare, msg, rng) })
		if err != nil {
			return fail("tc share")
		}
		tcVS.time(func() { err = a.TC.VerifyShare(msg, c1) })
		if err != nil {
			return fail("tc verify share")
		}
		tcComb.time(func() { _, err = a.TC.Combine(msg, []*threshcoin.CoinShare{c0, c1}) })
		if err != nil {
			return fail("tc combine")
		}

		plain := make([]byte, 256)
		rng.Read(plain)
		var ct *threshenc.Ciphertext
		teEnc.time(func() { ct, err = a.TE.Encrypt(plain, rng) })
		if err != nil {
			return fail("te encrypt")
		}
		var d0, d1 *threshenc.DecShare
		teDS.time(func() { d0, err = a.TE.DecryptShare(a.TEShare, ct, rng) })
		if err != nil {
			return fail("te decrypt share")
		}
		teDS.time(func() { d1, err = a.TE.DecryptShare(b.TEShare, ct, rng) })
		if err != nil {
			return fail("te decrypt share")
		}
		teVS.time(func() { err = a.TE.VerifyShare(ct, d1) })
		if err != nil {
			return fail("te verify share")
		}
		teComb.time(func() { _, err = a.TE.Combine(ct, []*threshenc.DecShare{d0, d1}) })
		if err != nil {
			return fail("te combine")
		}
	}
	for name, sw := range map[string]stopwatch{
		"crypto.ts_sign_us": tsSign, "crypto.ts_verify_share_us": tsVS,
		"crypto.ts_combine_us": tsComb, "crypto.ts_verify_us": tsVer,
		"crypto.tc_share_us": tcShare, "crypto.tc_verify_share_us": tcVS, "crypto.tc_combine_us": tcComb,
		"crypto.te_encrypt_us": teEnc, "crypto.te_dec_share_us": teDS,
		"crypto.te_verify_share_us": teVS, "crypto.te_combine_us": teComb,
	} {
		r.m.set(name, sw.medianUs())
	}
	return nil
}

// --- component ---

// componentRig runs 4 parallel instances of each broadcast / agreement /
// decryption component to completion on bench.NewComponentRig's 4-node
// network, over ConsensusBatcher, and reports the host time and the
// virtual completion time (medians over rig seeds).
func (r *rigs) componentRig() error {
	const parallel = 4
	kinds := map[string]func(seed int64) (time.Duration, error){
		"rbc": func(s int64) (time.Duration, error) {
			return bench.BroadcastLatency(bench.BRBC, parallel, 1, true, s)
		},
		"prbc": func(s int64) (time.Duration, error) {
			return bench.BroadcastLatency(bench.BPRBC, parallel, 1, true, s)
		},
		"cbc": func(s int64) (time.Duration, error) {
			return bench.BroadcastLatency(bench.BCBC, parallel, 1, true, s)
		},
		"vcbc":    vcbcLatency,
		"aba_lc":  func(s int64) (time.Duration, error) { return bench.ABAParallelLatency(bench.ABALC, parallel, s) },
		"aba_sc":  func(s int64) (time.Duration, error) { return bench.ABAParallelLatency(bench.ABASC, parallel, s) },
		"aba_cp":  func(s int64) (time.Duration, error) { return bench.ABAParallelLatency(bench.ABACP, parallel, s) },
		"decrypt": decryptLatency,
	}
	for _, kind := range componentKinds {
		var host, virt []float64
		for i := 0; i < r.n(5); i++ {
			start := time.Now()
			lat, err := kinds[kind](r.seed + int64(i))
			if err != nil {
				return fmt.Errorf("%s: %w", kind, err)
			}
			host = append(host, float64(time.Since(start).Nanoseconds())/1e6)
			virt = append(virt, lat.Seconds())
		}
		r.m.set("component."+kind+".host_ms", median(host))
		r.m.set("component."+kind+".virt_s", median(virt))
	}
	return nil
}

// vcbcLatency has every node broadcast one 160 B value on its own VCBC
// queue and waits until all four deliver everywhere.
func vcbcLatency(seed int64) (time.Duration, error) {
	rig, err := bench.NewComponentRig(seed, true, crypto.LightConfig(), wireless.DefaultConfig())
	if err != nil {
		return 0, err
	}
	vs := make([]*component.VCBC, len(rig.Envs))
	for i, env := range rig.Envs {
		vs[i] = component.NewVCBC(env, component.VCBCOptions{Slots: len(rig.Envs), FragSize: 160})
	}
	for i, v := range vs {
		value := make([]byte, 160)
		for j := range value {
			value[j] = byte(i + 1)
		}
		v.Broadcast(i, value)
	}
	return rig.RunUntil(4*time.Hour, func() bool {
		for _, v := range vs {
			if v.DeliveredCount() < len(vs) {
				return false
			}
		}
		return true
	})
}

// decryptLatency has every node release its decryption share for four
// accepted ciphertexts and waits until all plaintexts are recovered
// everywhere.
func decryptLatency(seed int64) (time.Duration, error) {
	rig, err := bench.NewComponentRig(seed, true, crypto.LightConfig(), wireless.DefaultConfig())
	if err != nil {
		return 0, err
	}
	n := len(rig.Envs)
	rng := rand.New(rand.NewSource(seed))
	cts := make([]*threshenc.Ciphertext, n)
	for i := range cts {
		plain := make([]byte, 256)
		rng.Read(plain)
		if cts[i], err = rig.Envs[0].Suite.TE.Encrypt(plain, rng); err != nil {
			return 0, err
		}
	}
	ds := make([]*component.Decryptor, n)
	for i, env := range rig.Envs {
		ds[i] = component.NewDecryptor(env, n, nil)
		for slot, ct := range cts {
			ds[i].Submit(slot, ct)
		}
	}
	return rig.RunUntil(4*time.Hour, func() bool {
		for _, d := range ds {
			for slot := range cts {
				if d.Plaintext(slot) == nil {
					return false
				}
			}
		}
		return true
	})
}

// --- protocol ---

func (r *rigs) protocolRig() error {
	// Mempool at a working-set-sized pool and at a backlog-sized one. The
	// commit path (MarkCommitted) takes an unexported key type and is seen
	// only through the workloads.
	for _, c := range []struct {
		suffix string
		pool   int
	}{{"", 256}, {"_100k", 100_000}} {
		mp := protocol.NewMempool(protocol.MempoolConfig{Shard: 1, Shards: 4})
		seq := 0
		add := func() {
			mp.Add(protocol.MakeClientTx(seq, 64), time.Duration(seq)*time.Millisecond)
			seq++
		}
		for seq < c.pool {
			add()
		}
		adds := r.n(2000)
		var addT stopwatch
		addT.time(func() {
			for i := 0; i < adds; i++ {
				add()
			}
		})
		now := time.Duration(seq) * time.Millisecond
		var cutT stopwatch
		for e := 0; e < r.n(50); e++ {
			cutT.time(func() { mp.Cut(e, now) })
			mp.Requeue(e)
		}
		r.m.set("protocol.mempool.add_ns"+c.suffix, addT[0]/float64(adds))
		r.m.set("protocol.mempool.cut_us"+c.suffix, cutT.medianUs())
	}

	txs := make([][]byte, 8)
	for i := range txs {
		txs[i] = protocol.MakeClientTx(i, 64)
	}
	codec, _ := perCall(5, r.n(100_000), func() {
		if _, err := protocol.DecodeBatch(protocol.EncodeBatch(txs)); err != nil {
			panic(err) // decodes its own encoding
		}
	})
	r.m.set("protocol.batch_codec_ns", codec)

	// One-shot epochs per engine family (the paper's Fig. 13a in numbers).
	engines := map[string]struct {
		kind protocol.Kind
		coin protocol.CoinKind
	}{
		"hb_sc":    {protocol.HoneyBadger, protocol.CoinSig},
		"beat_cp":  {protocol.BEAT, protocol.CoinFlip},
		"dumbo_sc": {protocol.DumboKind, protocol.CoinSig},
		"alea_sc":  {protocol.AleaKind, protocol.CoinSig},
	}
	for _, name := range engineNames {
		e := engines[name]
		spec := run.Defaults(e.kind, e.coin)
		spec.Workload = run.OneShot(r.n(10))
		spec.Seed = r.seed
		start := time.Now()
		rep, err := run.Run(spec)
		if err != nil {
			return fmt.Errorf("%s one-shot: %w", name, err)
		}
		epochs := float64(spec.Workload.Epochs)
		r.m.set("protocol."+name+".epoch_host_ms", float64(time.Since(start).Nanoseconds())/1e6/epochs)
		r.m.set("protocol."+name+".epoch_virt_s", rep.OneShot.MeanLatency.Seconds())
	}
	return nil
}

// --- traffic ---

// trafficRig drives the bare arrival generators against a no-op submit.
func (r *rigs) trafficRig() error {
	arrivals := r.n(1_000_000)
	for _, c := range []struct {
		name string
		pat  traffic.Pattern
	}{
		{"traffic.ns_per_arrival", traffic.Pattern{Kind: traffic.Poisson, Clients: 1000, Rate: 50}},
		{"traffic.ns_per_arrival_onoff", traffic.Pattern{Kind: traffic.OnOff, Clients: 1000, Rate: 50,
			OnMean: 2 * time.Minute, OffMean: 8 * time.Minute}},
	} {
		s := sim.New(r.seed)
		gen := traffic.New(s, c.pat, r.seed, func(seq int) bool { return seq < arrivals })
		gen.Start()
		start := time.Now()
		for gen.Submitted() < arrivals && s.Step() {
		}
		r.m.set(c.name, float64(time.Since(start).Nanoseconds())/float64(arrivals))
	}
	return nil
}

// --- scenario ---

// dslExample is the twelve-event example of the scenario grammar, one
// event of every kind.
const dslExample = "crash@30m:3;recover@55m:3;partition@10m:0,1/2,3;heal@20m;loss@5m+90s:0.5;" +
	"jam@5m+60s;delay:0.25,10s;delay@1h+30m:0.25,10s;byz@0s:3:equivocate;" +
	"mobility@0s+2h:25,800;dutycycle@0s:0.6,90s;churn@10m+2h:20m,5m"

func (r *rigs) scenarioRig() error {
	if _, err := scenario.Parse(dslExample); err != nil {
		return err
	}
	ns, _ := perCall(5, r.n(5000), func() {
		if _, err := scenario.Parse(dslExample); err != nil {
			panic(err) // parsed once above
		}
	})
	r.m.set("scenario.parse_us", ns/1e3)
	return nil
}
