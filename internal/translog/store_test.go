package translog

import (
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// mixedEntries builds n deterministic entries across every type; every
// 7th serial-bearing credential is later revoked.
func mixedEntries(n int) []Entry {
	rng := mrand.New(mrand.NewSource(7))
	out := make([]Entry, 0, n)
	types := []EntryType{EntryEnroll, EntryAttestOK, EntryAttestFail, EntryProvision}
	var issued []string
	for len(out) < n {
		typ := types[rng.Intn(len(types))]
		e := Entry{
			Type:      typ,
			Timestamp: int64(1700000000000 + len(out)),
			Actor:     fmt.Sprintf("fw-%d", rng.Intn(64)),
			Host:      fmt.Sprintf("host-%d", rng.Intn(4)),
			Detail:    "OK",
		}
		switch typ {
		case EntryEnroll, EntryProvision:
			e.Serial = fmt.Sprint(100000 + len(out))
			issued = append(issued, e.Serial)
		case EntryAttestFail:
			e.Detail = "measurement mismatch"
			e.Measurement = []byte{byte(len(out)), 0xAB}
		}
		out = append(out, e)
		if len(issued) > 0 && len(issued)%7 == 0 && len(out) < n {
			out = append(out, Entry{
				Type: EntryRevoke, Timestamp: int64(1700000000000 + len(out)),
				Actor: "vm", Serial: issued[len(issued)-1], Detail: "trust withdrawn",
			})
			issued = issued[:len(issued)-1]
		}
	}
	return out[:n]
}

// appendAll commits entries in pseudo-random batch sizes, exercising the
// batch boundaries segment rotation has to respect.
func appendAll(t *testing.T, l *Log, entries []Entry) {
	t.Helper()
	rng := mrand.New(mrand.NewSource(11))
	for len(entries) > 0 {
		n := 1 + rng.Intn(97)
		if n > len(entries) {
			n = len(entries)
		}
		if _, err := l.AppendBatch(entries[:n]); err != nil {
			t.Fatal(err)
		}
		entries = entries[n:]
	}
}

// smallSegments forces frequent rotation so recovery replays many files.
func smallSegments() StoreConfig { return StoreConfig{SegmentMaxBytes: 2048} }

// TestDurableRoundTrip is the headline property: a log with ≥1000 mixed
// entries (revocations included) survives close/reopen with an identical
// root hash, tree head, entry sequence, serial index and revocation set.
func TestDurableRoundTrip(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	entries := mixedEntries(1200)

	l, err := OpenDurableLog(key, dir, smallSegments())
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries)
	sthBefore := l.STH()
	rootBefore := l.STH().RootHash
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurableLog(key, dir, smallSegments())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Size(); got != uint64(len(entries)) {
		t.Fatalf("reopened size %d, want %d", got, len(entries))
	}
	rootAfter := re.STH().RootHash
	if rootAfter != rootBefore {
		t.Fatal("root hash changed across restart")
	}
	sthAfter := re.STH()
	if sthAfter.Size != sthBefore.Size || sthAfter.RootHash != sthBefore.RootHash {
		t.Fatalf("tree head changed across restart: %d/%x vs %d/%x",
			sthBefore.Size, sthBefore.RootHash[:4], sthAfter.Size, sthAfter.RootHash[:4])
	}
	if err := sthAfter.Verify(&key.PublicKey); err != nil {
		t.Fatal(err)
	}
	if got := mustEntries(t, re, 0, re.Size()); !reflect.DeepEqual(got, entries) {
		t.Fatal("entry sequence changed across restart")
	}

	// Serial index and revocation set were rebuilt from the replay:
	// every serial proves or refuses exactly as before.
	for _, e := range entries {
		if e.Serial == "" {
			continue
		}
		pbWant, errWant := logProofs(l).ProveSerial(e.Serial)
		pbGot, errGot := logProofs(re).ProveSerial(e.Serial)
		if !errors.Is(errGot, errWant) && (errWant == nil) != (errGot == nil) {
			t.Fatalf("serial %s: reopened err %v, want %v", e.Serial, errGot, errWant)
		}
		if re.SerialRevoked(e.Serial) != l.SerialRevoked(e.Serial) {
			t.Fatalf("serial %s: revocation flag diverged", e.Serial)
		}
		if pbWant == nil {
			continue
		}
		if pbGot.Index != pbWant.Index {
			t.Fatalf("serial %s: index %d, want %d", e.Serial, pbGot.Index, pbWant.Index)
		}
		if err := pbGot.Verify(&key.PublicKey); err != nil {
			t.Fatalf("serial %s: reopened proof: %v", e.Serial, err)
		}
	}
}

// TestDurableProofSurvivesRestart shows the guarantee the example acts
// out: a proof bundle issued before a restart still verifies afterwards,
// and the post-restart head is a consistency-proven extension of the
// pre-restart one.
func TestDurableProofSurvivesRestart(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, smallSegments())
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(300))
	var serial string
	for _, e := range mustEntries(t, l, 0, l.Size()) {
		if (e.Type == EntryEnroll || e.Type == EntryProvision) && e.Serial != "" && !l.SerialRevoked(e.Serial) {
			serial = e.Serial
			break
		}
	}
	if serial == "" {
		t.Fatal("no provable serial in fixture")
	}
	pb, err := logProofs(l).ProveSerial(serial)
	if err != nil {
		t.Fatal(err)
	}
	preSTH := l.STH()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurableLog(key, dir, smallSegments())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := pb.Verify(&key.PublicKey); err != nil {
		t.Fatalf("pre-restart proof no longer verifies: %v", err)
	}
	if _, err := re.AppendBatch(mixedEntries(50)); err != nil {
		t.Fatal(err)
	}
	postSTH := re.STH()
	proof, err := logProofs(re).ConsistencyProof(preSTH.Size, postSTH.Size)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyConsistency(preSTH.Size, postSTH.Size, preSTH.RootHash, postSTH.RootHash, proof); err != nil {
		t.Fatalf("post-restart head not consistent with pre-restart head: %v", err)
	}
}

// TestTornTailTruncated simulates a crash mid-record: trailing garbage
// that parses as an incomplete record is cut, everything intact survives.
func TestTornTailTruncated(t *testing.T) {
	for _, tail := range [][]byte{
		{0x00, 0x00, 0x01},         // partial header
		append(make([]byte, 8), 1), // header claiming more payload than present
	} {
		key := testSigner(t)
		dir := t.TempDir()
		l, err := OpenDurableLog(key, dir, StoreConfig{})
		if err != nil {
			t.Fatal(err)
		}
		entries := mixedEntries(40)
		appendAll(t, l, entries)
		root := l.STH().RootHash
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// A torn write: set a plausible length in the claimed-payload case.
		if len(tail) > 8 {
			binary.BigEndian.PutUint32(tail[:4], 64)
		}
		seg := filepath.Join(dir, shardSegmentName(0, 0))
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()

		re, err := OpenDurableLog(key, dir, StoreConfig{})
		if err != nil {
			t.Fatalf("torn tail not recovered: %v", err)
		}
		if re.Size() != uint64(len(entries)) {
			t.Fatalf("size %d after torn-tail recovery, want %d", re.Size(), len(entries))
		}
		if got := re.STH().RootHash; got != root {
			t.Fatal("root changed after torn-tail recovery")
		}
		// The truncation is physical: appends resume on a clean boundary
		// and a further reopen sees them.
		if _, err := re.Append(Entry{Type: EntryAttestOK, Actor: "fw-new", Detail: "OK"}); err != nil {
			t.Fatal(err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := OpenDurableLog(key, dir, StoreConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if again.Size() != uint64(len(entries))+1 {
			t.Fatalf("size %d after post-truncation append, want %d", again.Size(), len(entries)+1)
		}
		again.Close()
	}
}

// TestRecoverEntriesBeyondHead simulates the other crash window: records
// durably written but the process died before the tree head was
// replaced. The extra entries are kept and a fresh head signed over them.
func TestRecoverEntriesBeyondHead(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(20))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	extra := Entry{Type: EntryAttestOK, Timestamp: 42, Actor: "fw-crash", Host: "host-0", Detail: "OK"}
	f, err := os.OpenFile(filepath.Join(dir, shardSegmentName(0, 0)), os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(appendIndexedRecord(nil, 20, extra.Marshal())); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenDurableLog(key, dir, StoreConfig{})
	if err != nil {
		t.Fatalf("entries beyond head rejected: %v", err)
	}
	defer re.Close()
	if re.Size() != 21 {
		t.Fatalf("size %d, want 21", re.Size())
	}
	got, err := re.Entry(20)
	if err != nil || !reflect.DeepEqual(got, extra) {
		t.Fatalf("recovered tail entry %+v (%v), want %+v", got, err, extra)
	}
	sth := re.STH()
	if sth.Size != 21 {
		t.Fatalf("re-signed head covers %d, want 21", sth.Size)
	}
	if err := sth.Verify(&key.PublicKey); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptChecksumRejected flips one payload byte mid-segment: the
// record's checksum no longer matches and the open must refuse with
// ErrStateCorrupt — never truncate away committed interior history.
func TestCorruptChecksumRejected(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(60))
	l.Close()

	seg := filepath.Join(dir, shardSegmentName(0, 0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(seg, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurableLog(key, dir, StoreConfig{}); !errors.Is(err, ErrStateCorrupt) {
		t.Fatalf("corrupted record: got %v, want ErrStateCorrupt", err)
	}
}

// TestRollbackDetected deletes the newest segment: the replayed state is
// shorter than the persisted signed head — the on-disk analogue of the
// split-view rollback the witness catches remotely — and the open must
// fail with the distinct rollback error.
func TestRollbackDetected(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, smallSegments())
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(400))
	l.Close()

	shardFirsts, err := listStreams(dir)
	if err != nil {
		t.Fatal(err)
	}
	firsts := shardFirsts[0]
	if len(firsts) < 2 {
		t.Fatalf("want multiple segments, got %d", len(firsts))
	}
	if err := os.Remove(filepath.Join(dir, shardSegmentName(0, firsts[len(firsts)-1]))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurableLog(key, dir, smallSegments()); !errors.Is(err, ErrStateRollback) {
		t.Fatalf("rolled-back store: got %v, want ErrStateRollback", err)
	}
}

// TestTamperDetected rewrites one entry in place with valid framing (the
// checksum is fixed up): only the Merkle root comparison against the
// persisted signed head can catch this, and it must.
func TestTamperDetected(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(30))
	l.Close()

	seg := filepath.Join(dir, shardSegmentName(0, 0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	payloads, err := segmentPayloads(data)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite entry 3's actor and re-frame the whole segment with
	// correct checksums.
	index, body, err := splitIndexedRecord(payloads[3])
	if err != nil {
		t.Fatal(err)
	}
	victim, err := unmarshalEntry(body)
	if err != nil {
		t.Fatal(err)
	}
	victim.Actor = "ghost"
	payloads[3] = indexedPayload(index, victim.Marshal())
	var rewritten []byte
	for _, p := range payloads {
		rewritten = appendRecord(rewritten, p)
	}
	if err := os.WriteFile(seg, rewritten, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurableLog(key, dir, StoreConfig{}); !errors.Is(err, ErrStateTampered) {
		t.Fatalf("tampered store: got %v, want ErrStateTampered", err)
	}
}

// TestMissingHeadDetected deletes sth.json while segments remain: data
// without its signed commitment is treated as tampering, not a fresh log.
func TestMissingHeadDetected(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(10))
	l.Close()
	if err := os.Remove(filepath.Join(dir, sthFileName)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurableLog(key, dir, StoreConfig{}); !errors.Is(err, ErrStateTampered) {
		t.Fatalf("headless store: got %v, want ErrStateTampered", err)
	}
}

// TestForeignHeadDetected swaps in a head signed by a different key: the
// signature check refuses before any root comparison.
func TestForeignHeadDetected(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(10))
	l.Close()
	if _, err := OpenDurableLog(testSigner(t), dir, StoreConfig{}); !errors.Is(err, ErrStateTampered) {
		t.Fatalf("foreign-key head: got %v, want ErrStateTampered", err)
	}
}

// TestDurableAppenderConcurrent exercises the batched appender over a
// durable log under -race: concurrent producers, a flusher and head
// readers, then a reopen confirming every acknowledged entry is on disk.
func TestDurableAppenderConcurrent(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{SegmentMaxBytes: 4096, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	a := NewShardedAppender(l, ShardedAppenderConfig{Shards: 1, MaxBatch: 64})

	const producers, perProducer = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				e := Entry{Type: EntryAttestOK, Timestamp: int64(i), Actor: fmt.Sprintf("fw-%d-%d", p, i), Detail: "OK"}
				if err := a.Append(e); err != nil {
					t.Error(err)
					return
				}
				if i%50 == 0 {
					if err := a.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(p)
	}
	done := make(chan struct{})
	proofs := logProofs(l)
	go func() { // concurrent head and proof reader
		for {
			select {
			case <-done:
				return
			default:
				_, _ = proofs.ConsistencyProof(1, l.STH().Size)
			}
		}
	}()
	wg.Wait()
	close(done)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurableLog(key, dir, StoreConfig{SegmentMaxBytes: 4096, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Size(); got != producers*perProducer {
		t.Fatalf("reopened size %d, want %d", got, producers*perProducer)
	}
}

// TestSegmentFraming fuzzes the record decoder the same way the secchan
// codec test fuzzes Open: random mutation of a valid segment must never
// panic and must surface as a decode/checksum/recovery error — a mutated
// store never opens cleanly, because the persisted head covers every bit.
func TestSegmentFraming(t *testing.T) {
	key := testSigner(t)
	src := t.TempDir()
	l, err := OpenDurableLog(key, src, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(50))
	l.Close()
	segData, err := os.ReadFile(filepath.Join(src, shardSegmentName(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	sthData, err := os.ReadFile(filepath.Join(src, sthFileName))
	if err != nil {
		t.Fatal(err)
	}

	rng := mrand.New(mrand.NewSource(42))
	for i := 0; i < 250; i++ {
		mutated := append([]byte(nil), segData...)
		mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, shardSegmentName(0, 0)), mutated, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sthFileName), sthData, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDurableLog(key, dir, StoreConfig{}); err == nil {
			t.Fatalf("mutation %d: store opened cleanly", i)
		}
	}

	// The raw scanner itself survives arbitrary junk.
	for i := 0; i < 500; i++ {
		junk := make([]byte, rng.Intn(512))
		rng.Read(junk)
		clean, err := scanSegment(junk, func([]byte) error { return nil })
		if err == nil && clean != len(junk) {
			t.Fatalf("junk %d: clean scan stopped early", i)
		}
	}
}

// TestSegmentNameRoundTrip pins the retired single-stream file names
// (seg-<20-digit first index>.wal) that open refuses a store by: every
// such name is recognised, and nothing else is.
func TestSegmentNameRoundTrip(t *testing.T) {
	for _, n := range []uint64{0, 1, 255, 1 << 40} {
		if name := segmentPrefix + zeroPadded(n, 20) + segmentSuffix; !isLegacySegmentName(name) {
			t.Fatalf("%q not recognised as a single-stream segment", name)
		}
	}
	for _, bad := range []string{"seg-.wal", "seg-123.wal", "sth.json", "seg-0000000000000000000x.wal", shardSegmentName(0, 0)} {
		if isLegacySegmentName(bad) {
			t.Fatalf("%q taken for a single-stream segment", bad)
		}
	}
}

// TestDurableStoreFailsClosed latches the store after a write failure:
// the log must refuse further appends rather than diverge from disk.
func TestDurableStoreFailsClosed(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(5))
	sizeBefore := l.Size()
	// Close the store out from under the log: the next append's write
	// fails, and the in-memory state must roll back.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Entry{Type: EntryAttestOK, Actor: "fw-x", Detail: "OK"}); err == nil {
		t.Fatal("append after store close succeeded")
	}
	if l.Size() != sizeBefore {
		t.Fatalf("in-memory size %d diverged from disk %d", l.Size(), sizeBefore)
	}
	if _, err := l.Append(Entry{Type: EntryAttestOK, Actor: "fw-y", Detail: "OK"}); err == nil {
		t.Fatal("store did not latch failed")
	}
}

// TestOversizeEntryRefusedAtWrite pins review fix: an entry whose
// encoding exceeds the record frame limit is refused before any byte is
// written — committing it would brick every future open — and the log
// stays usable and reopenable afterwards.
func TestOversizeEntryRefusedAtWrite(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(3))
	huge := Entry{Type: EntryAttestFail, Actor: "fw-big", Detail: string(make([]byte, maxRecordBytes+1))}
	if _, err := l.Append(huge); err == nil {
		t.Fatal("oversize entry committed")
	}
	if l.Size() != 3 {
		t.Fatalf("size %d after refused append, want 3", l.Size())
	}
	// The store did not latch failed: normal appends continue.
	if _, err := l.Append(Entry{Type: EntryAttestOK, Actor: "fw-ok", Detail: "OK"}); err != nil {
		t.Fatalf("append after refused oversize: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurableLog(key, dir, StoreConfig{})
	if err != nil {
		t.Fatalf("reopen after refused oversize: %v", err)
	}
	defer re.Close()
	if re.Size() != 4 {
		t.Fatalf("reopened size %d, want 4", re.Size())
	}
}

// TestRefusedOpenDoesNotTruncate pins review fix: a store that fails
// verification (here: tampered prefix plus a torn tail) is refused
// without being modified — it is incident evidence, and the torn bytes
// must survive repeated open attempts.
func TestRefusedOpenDoesNotTruncate(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(20))
	l.Close()

	seg := filepath.Join(dir, shardSegmentName(0, 0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper an interior payload byte with a fixed-up checksum...
	payloads, err := segmentPayloads(data)
	if err != nil {
		t.Fatal(err)
	}
	index, body, err := splitIndexedRecord(payloads[1])
	if err != nil {
		t.Fatal(err)
	}
	victim, err := unmarshalEntry(body)
	if err != nil {
		t.Fatal(err)
	}
	victim.Actor = "ghost"
	payloads[1] = indexedPayload(index, victim.Marshal())
	var rewritten []byte
	for _, p := range payloads {
		rewritten = appendRecord(rewritten, p)
	}
	// ...and add a torn tail on top.
	rewritten = append(rewritten, 0xDE, 0xAD)
	if err := os.WriteFile(seg, rewritten, 0o600); err != nil {
		t.Fatal(err)
	}

	for attempt := 0; attempt < 2; attempt++ {
		if _, err := OpenDurableLog(key, dir, StoreConfig{}); !errors.Is(err, ErrStateTampered) {
			t.Fatalf("attempt %d: got %v, want ErrStateTampered", attempt, err)
		}
		after, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(rewritten) {
			t.Fatalf("attempt %d: refused open modified the store (%d -> %d bytes)", attempt, len(rewritten), len(after))
		}
	}
}

// TestLegacySingleStreamRefused: a store in the retired single-stream
// layout (seg-<first>.wal segments whose records carry no index prefix,
// no shard-count pin, a checkpoint without per-stream counts) is refused
// with ErrLegacyLayout — bare, beside its signed head, and beside a
// checkpoint — and the refused open changes no file: nothing is
// trimmed, re-signed or pinned.
func TestLegacySingleStreamRefused(t *testing.T) {
	key := testSigner(t)
	entries := mixedEntries(30)
	ref, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	size := ref.Size()
	// Two single-stream segments, the second torn at its tail — a trim a
	// lenient open would perform.
	var segs [2][]byte
	for i, e := range entries {
		segs[i/20] = appendRecord(segs[i/20], e.Marshal())
	}
	segs[1] = append(segs[1], 0x00, 0x01)
	legacy := func(t *testing.T, withHead, withCkpt bool) string {
		dir := t.TempDir()
		for i, first := range []uint64{0, 20} {
			name := segmentPrefix + zeroPadded(first, 20) + segmentSuffix
			if err := os.WriteFile(filepath.Join(dir, name), segs[i], 0o600); err != nil {
				t.Fatal(err)
			}
		}
		if withHead {
			if err := newSTHAnchor(dir, &key.PublicKey).CommitHead(ref.STH()); err != nil {
				t.Fatal(err)
			}
		}
		if withCkpt {
			ck := &checkpoint{size: size, issuance: ref.issuance, revoked: ref.revoked}
			if _, err := writeCheckpointFile(dir, ck, key, true); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	for _, tc := range []struct {
		name               string
		withHead, withCkpt bool
	}{{"bare", false, false}, {"head", true, false}, {"checkpoint", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := legacy(t, tc.withHead, tc.withCkpt)
			before := snapshotDir(t, dir)
			for _, shards := range []int{0, 4} {
				if _, err := OpenDurableLog(key, dir, StoreConfig{Shards: shards}); !errors.Is(err, ErrLegacyLayout) {
					t.Fatalf("Shards=%d: got %v, want ErrLegacyLayout", shards, err)
				}
				if after := snapshotDir(t, dir); !reflect.DeepEqual(after, before) {
					t.Fatalf("Shards=%d: refused open changed the store: %d files before, %d after", shards, len(before), len(after))
				}
			}
		})
	}

	// A single-stream checkpoint is refused on its own too, beside a
	// stream segment whose records it would misread.
	dir := legacy(t, true, true)
	for _, first := range []uint64{0, 20} {
		if err := os.Remove(filepath.Join(dir, segmentPrefix+zeroPadded(first, 20)+segmentSuffix)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, shardSegmentName(0, 0)),
		appendIndexedRecord(nil, size, testEntry(99).Marshal()), 0o600); err != nil {
		t.Fatal(err)
	}
	before := snapshotDir(t, dir)
	if _, err := OpenDurableLog(key, dir, StoreConfig{}); !errors.Is(err, ErrLegacyLayout) {
		t.Fatalf("single-stream checkpoint: got %v, want ErrLegacyLayout", err)
	}
	if after := snapshotDir(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("refused open changed the store")
	}
}
