package protocol

import (
	"testing"
	"time"
)

// --- Mempool unit tests -------------------------------------------------

func TestMempoolDedupAndPolicy(t *testing.T) {
	cfg := MempoolConfig{TargetBatchBytes: 100, MaxBatchBytes: 120}
	m := NewMempool(cfg)
	tx := func(b byte) []byte { tx := make([]byte, 40); tx[0] = b; return tx }

	if !m.Add(tx(1), 0) || !m.Add(tx(2), time.Second) {
		t.Fatal("fresh adds rejected")
	}
	if m.Add(tx(1), 2*time.Second) {
		t.Error("pending duplicate accepted")
	}
	if m.Ready(2 * time.Second) {
		t.Error("ready below size target and age limit")
	}
	if !m.Ready(maxTxAge) {
		t.Error("not ready past maxTxAge")
	}
	m.Add(tx(3), 2*time.Second)
	if !m.Ready(3 * time.Second) {
		t.Error("not ready past TargetBatchBytes")
	}

	cut := m.Cut(0, 3*time.Second)
	if len(cut) != 3 {
		t.Fatalf("cut %d txs, want 3 (120B cap)", len(cut))
	}
	if m.Ready(3 * time.Second) {
		t.Error("ready while everything is in flight")
	}
	// In-flight txs are skipped by later cuts.
	if got := m.Cut(1, 3*time.Second); len(got) != 0 {
		t.Fatalf("second cut got %d txs, want 0", len(got))
	}

	// Epoch 0 commits txs 1 and 2 (say tx 3's slot lost the subset).
	m.MarkCommitted([]txKey{txDigest(tx(1)), txDigest(tx(2))}, 0)
	m.Requeue(0)
	if m.Len() != 1 || m.PendingBytes() != 40 {
		t.Fatalf("after requeue: len=%d pending=%dB, want 1/40", m.Len(), m.PendingBytes())
	}
	if m.Add(tx(1), 4*time.Second) {
		t.Error("committed duplicate accepted")
	}
	if got := m.Cut(1, 5*time.Second); len(got) != 1 {
		t.Fatalf("requeued tx not cuttable: got %d", len(got))
	}
}

func TestMempoolSharding(t *testing.T) {
	cfg := MempoolConfig{
		TargetBatchBytes: 40, MaxBatchBytes: 400,
		Shard: 0, Shards: 2,
	}
	m := NewMempool(cfg)
	mine := func(i byte) []byte { return []byte{2 * i, i, 10, 11, 12, 13, 14, 15, 16, 17} }    // key[0] even
	other := func(i byte) []byte { return []byte{2*i + 1, i, 20, 21, 22, 23, 24, 25, 26, 27} } // key[0] odd
	// Transaction assignment follows the digest, not the payload: find
	// payloads that land on each shard.
	var ours, theirs [][]byte
	for i := byte(0); i < 40 && (len(ours) < 4 || len(theirs) < 4); i++ {
		for _, tx := range [][]byte{mine(i), other(i)} {
			if int(txDigest(tx)[0])%2 == 0 {
				ours = append(ours, tx)
			} else {
				theirs = append(theirs, tx)
			}
		}
	}
	for _, tx := range theirs[:4] {
		m.Add(tx, 0)
	}
	if m.Ready(5 * time.Second) {
		t.Error("ready on unassigned traffic alone")
	}
	for _, tx := range ours[:4] {
		m.Add(tx, time.Second)
	}
	if !m.Ready(5 * time.Second) {
		t.Error("not ready with assigned bytes past target")
	}
	cut := m.Cut(0, 5*time.Second)
	for _, tx := range cut {
		if int(txDigest(tx)[0])%2 != 0 {
			t.Fatalf("cut took unassigned tx %v before reproposeAge", tx)
		}
	}
	if len(cut) != 4 {
		t.Fatalf("cut %d assigned txs, want 4", len(cut))
	}
	// Past reproposeAge the crash fallback opens the rest to everyone.
	if got := m.Cut(1, reproposeAge); len(got) != 4 {
		t.Fatalf("fallback cut %d txs, want 4 unassigned", len(got))
	}
}

func TestMempoolReproposeAgeFallback(t *testing.T) {
	// A transaction assigned to another shard is untouchable until
	// reproposeAge, then becomes proposable by everyone — the crash
	// fallback that keeps a dead shard's traffic from queueing forever.
	cfg := MempoolConfig{
		TargetBatchBytes: 40, MaxBatchBytes: 400,
		Shard: 0, Shards: 2,
	}
	m := NewMempool(cfg)
	var other []byte
	for i := byte(0); ; i++ {
		tx := []byte{i, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		if int(txDigest(tx)[0])%2 == 1 {
			other = tx
			break
		}
	}
	if !m.Add(other, 0) {
		t.Fatal("fresh add rejected")
	}
	if m.Ready(reproposeAge - time.Second) {
		t.Error("ready on unassigned traffic before reproposeAge")
	}
	if got := m.Cut(0, reproposeAge-time.Second); len(got) != 0 {
		t.Fatalf("cut took %d unassigned txs before reproposeAge", len(got))
	}
	// The age deadline for the unassigned class is enq + reproposeAge.
	if at, ok := m.AgeDeadline(); !ok || at != reproposeAge {
		t.Fatalf("AgeDeadline = %v/%v, want %v/true", at, ok, reproposeAge)
	}
	if !m.Ready(reproposeAge) {
		t.Error("not ready at reproposeAge")
	}
	if got := m.Cut(1, reproposeAge); len(got) != 1 {
		t.Fatalf("fallback cut %d txs, want 1", len(got))
	}
}

func TestMempoolShardOverlapCommitDedup(t *testing.T) {
	// Two shards repropose the same aged transaction; when one copy
	// commits, the other shard's pool must drop its pooled (even
	// in-flight) copy and refuse re-admission — the dedup that makes the
	// reproposeAge overlap harmless.
	cfg := MempoolConfig{
		TargetBatchBytes: 40, MaxBatchBytes: 400,
		Shard: 1, Shards: 2,
	}
	m := NewMempool(cfg)
	var other []byte // assigned to shard 0, i.e. NOT ours
	for i := byte(0); ; i++ {
		tx := []byte{i, 9, 8, 7, 6, 5, 4, 3, 2, 1}
		if int(txDigest(tx)[0])%2 == 0 {
			other = tx
			break
		}
	}
	m.Add(other, 0)
	// Our shard reproposes it after the fallback age...
	if got := m.Cut(5, reproposeAge); len(got) != 1 {
		t.Fatalf("fallback cut %d txs, want 1", len(got))
	}
	// ...but shard 0's copy commits first, in epoch 4.
	m.MarkCommitted([]txKey{txDigest(other)}, 4)
	if m.Len() != 0 || m.PoolBytes() != 0 {
		t.Fatalf("in-flight copy survived the commit: len=%d pool=%dB", m.Len(), m.PoolBytes())
	}
	// Requeue of our epoch must not resurrect it.
	m.Requeue(5)
	if m.PendingBytes() != 0 {
		t.Fatalf("requeue resurrected a committed tx: %dB pending", m.PendingBytes())
	}
	if m.Add(other, reproposeAge+time.Minute) {
		t.Error("committed duplicate re-admitted")
	}
}

func TestMempoolAdmissionCap(t *testing.T) {
	cfg := MempoolConfig{
		TargetBatchBytes: 40, MaxBatchBytes: 80, MaxPendingBytes: 100,
	}
	m := NewMempool(cfg)
	tx := func(b byte) []byte { tx := make([]byte, 40); tx[0] = b; return tx }

	if !m.Add(tx(1), 0) || !m.Add(tx(2), 0) {
		t.Fatal("adds under the cap rejected")
	}
	// 80/100 bytes pooled: a 40-byte add must be refused and counted.
	if m.Add(tx(3), time.Second) {
		t.Error("add past MaxPendingBytes accepted")
	}
	if m.RejectedFull() != 1 {
		t.Fatalf("RejectedFull = %d, want 1", m.RejectedFull())
	}
	// A duplicate of a pooled tx is a duplicate, not a cap rejection.
	if m.Add(tx(1), time.Second) || m.RejectedFull() != 1 || m.Duplicates() != 1 {
		t.Fatalf("duplicate misclassified: rejectedFull=%d duplicates=%d", m.RejectedFull(), m.Duplicates())
	}
	// In-flight bytes still count against the cap: cutting frees nothing.
	if got := m.Cut(0, 2*time.Second); len(got) != 2 {
		t.Fatalf("cut %d txs, want 2", len(got))
	}
	if m.PoolBytes() != 80 {
		t.Fatalf("PoolBytes = %d after cut, want 80 (in-flight still pooled)", m.PoolBytes())
	}
	if m.Add(tx(4), 3*time.Second) {
		t.Error("cap ignored in-flight bytes")
	}
	if m.RejectedFull() != 2 {
		t.Fatalf("RejectedFull = %d, want 2", m.RejectedFull())
	}
	// Commit frees the space; admission resumes.
	m.MarkCommitted([]txKey{txDigest(tx(1)), txDigest(tx(2))}, 0)
	m.Requeue(0)
	if m.PoolBytes() != 0 {
		t.Fatalf("PoolBytes = %d after commit, want 0", m.PoolBytes())
	}
	if !m.Add(tx(5), 4*time.Second) {
		t.Error("add rejected after commit freed the pool")
	}
	if m.PeakPoolBytes() != 80 {
		t.Fatalf("PeakPoolBytes = %d, want 80", m.PeakPoolBytes())
	}
	// The cap is opt-in: a zero-cap pool admits the same sequence freely.
	free := NewMempool(MempoolConfig{TargetBatchBytes: 40, MaxBatchBytes: 80})
	for i := byte(0); i < 10; i++ {
		if !free.Add(tx(i), 0) {
			t.Fatal("unbounded pool refused an admission")
		}
	}
	if free.RejectedFull() != 0 {
		t.Errorf("unbounded pool counted %d cap rejections", free.RejectedFull())
	}
}

func TestMempoolGCHorizon(t *testing.T) {
	m := NewMempool(MempoolConfig{})
	tx := []byte("gc-me")
	m.MarkCommitted([]txKey{txDigest(tx)}, 0)
	m.GC(dedupHorizon - 1)
	if !m.WasCommitted(txDigest(tx)) {
		t.Fatal("digest dropped inside horizon")
	}
	if m.Add(tx, 0) {
		t.Error("duplicate accepted inside horizon")
	}
	m.GC(dedupHorizon)
	if m.WasCommitted(txDigest(tx)) {
		t.Fatal("digest survived past horizon")
	}
	if !m.Add(tx, 0) {
		t.Error("re-add rejected after horizon GC")
	}
	if m.CommittedSize() != 0 {
		t.Errorf("committed memory %d, want 0", m.CommittedSize())
	}
}

func TestBatchCodecRoundtrip(t *testing.T) {
	for _, txs := range [][][]byte{nil, {[]byte("a")}, {[]byte("one"), []byte(""), []byte("three")}} {
		enc := EncodeBatch(txs)
		got, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("decode(%q): %v", enc, err)
		}
		if len(got) != len(txs) {
			t.Fatalf("roundtrip count %d != %d", len(got), len(txs))
		}
		for i := range txs {
			if string(got[i]) != string(txs[i]) {
				t.Fatalf("tx %d mismatch", i)
			}
		}
	}
	for _, bad := range [][]byte{{}, {0}, {0, 1}, {0, 1, 0, 5, 'x'}, {0xFF, 0xFF, 0, 0}, append(EncodeBatch([][]byte{[]byte("t")}), 0)} {
		if _, err := DecodeBatch(bad); err == nil {
			t.Errorf("malformed batch %v accepted", bad)
		}
	}
	// A count the body cannot hold must not size the result: four bytes
	// claiming 65 535 transactions used to reserve 1.5 MB before failing.
	greedy := []byte{0xFF, 0xFF, 0, 0}
	if allocs := testing.AllocsPerRun(10, func() { DecodeBatch(greedy) }); allocs != 0 {
		t.Errorf("refusing an oversized count allocated %v times", allocs)
	}
}

// TestSealRefusesAMixedBatch: a plaintext proposal reassembled from the
// original and an equivocating proposer's XOR variant of its last fragment
// still parses as a batch when that fragment holds only transaction bytes,
// but it fails its seal. So does a batch whose seal is scrambled or cut.
func TestSealRefusesAMixedBatch(t *testing.T) {
	txs := [][]byte{MakeClientTx(1, 64), MakeClientTx(2, 64), MakeClientTx(3, 64)}
	sealed := SealBatch(EncodeBatch(txs))
	if len(sealed) != len(EncodeBatch(txs))+SealLen {
		t.Fatalf("sealed batch is %d B, want %d", len(sealed), len(EncodeBatch(txs))+SealLen)
	}
	got, err := OpenBatch(sealed)
	if err != nil || len(got) != len(txs) || string(got[2]) != string(txs[2]) {
		t.Fatalf("OpenBatch(SealBatch(b)) = %d txs, %v", len(got), err)
	}
	body := len(sealed) - SealLen
	mixed := append([]byte(nil), sealed...)
	for i := body - 40; i < body; i++ {
		mixed[i] ^= 0xA5 // the last transaction's tail, as the variant carries it
	}
	if _, err := DecodeBatch(mixed[:body]); err != nil {
		t.Fatalf("the mix no longer parses, so it tests nothing: %v", err)
	}
	if _, err := OpenBatch(mixed); err == nil {
		t.Error("a mixed batch passed its seal")
	}
	// The empty batch goes unsealed; its variant, or any mix of the two
	// bytes, does not open.
	if empty := SealBatch(EncodeBatch(nil)); len(empty) != 2 {
		t.Errorf("the empty batch sealed to %d B, want its 2", len(empty))
	} else if got, err := OpenBatch(empty); err != nil || len(got) != 0 {
		t.Errorf("OpenBatch(empty) = %d txs, %v", len(got), err)
	}
	for _, bad := range [][]byte{{0xA5, 0xA5}, {0, 0xA5}, {0xA5, 0}} {
		if _, err := OpenBatch(bad); err == nil {
			t.Errorf("OpenBatch accepted the empty batch's variant %x", bad)
		}
	}
	scrambled := append([]byte(nil), sealed...)
	scrambled[len(scrambled)-1] ^= 0xA5
	for _, bad := range [][]byte{scrambled, sealed[:body], sealed[:SealLen-1], EncodeBatch(txs)} {
		if _, err := OpenBatch(bad); err == nil {
			t.Errorf("OpenBatch accepted a %d B batch with no valid seal", len(bad))
		}
	}
}
