package translog

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// segmentsBelow lists the WAL segments in dir that start below their
// stream's count in counts: the segments a checkpoint with those counts
// covers.
func segmentsBelow(t *testing.T, dir string, counts []uint64) []string {
	t.Helper()
	shardFirsts, err := listStreams(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for shard, firsts := range shardFirsts {
		for _, first := range firsts {
			if first < counts[shard] {
				out = append(out, shardSegmentName(shard, first))
			}
		}
	}
	return out
}

// checkpointCounts reads the per-stream counts of the store's checkpoint.
func checkpointCounts(t *testing.T, l *Log) []uint64 {
	t.Helper()
	return l.store.ckpt.Load().counts
}

// requireEntries checks a reopened log holds exactly entries, cold
// prefix included.
func requireEntries(t *testing.T, l *Log, entries []Entry) {
	t.Helper()
	if l.Size() != uint64(len(entries)) {
		t.Fatalf("recovered %d entries, want %d", l.Size(), len(entries))
	}
	if got := mustEntries(t, l, 0, l.Size()); !reflect.DeepEqual(got, entries) {
		t.Fatal("recovered entries differ from the originals")
	}
}

// TestReopenReadsOnlySuffix: after a checkpoint and one suffix batch, a
// reopen reads the bytes of the suffix records and nothing else — the
// checkpoint rolled every stream, so every segment holding a
// checkpointed record starts below its stream's count and is skipped,
// though it stays on disk.
func TestReopenReadsOnlySuffix(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	cfg := StoreConfig{Shards: 2, NoSync: true}
	entries := mixedEntries(320)
	l, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries[:300])
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if cold := segmentsBelow(t, dir, checkpointCounts(t, l)); len(cold) == 0 {
		t.Fatal("checkpoint left no cold segment on disk")
	}
	if _, err := l.AppendBatch(entries[300:]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, e := range entries[300:] {
		want += recordHeaderLen + shardIndexLen + len(e.Marshal())
	}

	before := mRecoverWALBytes.Value()
	re, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := mRecoverWALBytes.Value() - before; got != uint64(want) {
		t.Fatalf("reopen read %d WAL bytes, want the suffix's %d", got, want)
	}
	requireEntries(t, re, entries)
}

// TestRollWithoutCheckpointRecovers: a crash between the roll and the
// write of checkpoint.bin leaves rolled segments and no new checkpoint.
// The store still recovers every entry, with or without an older
// checkpoint, and keeps doing so across the next checkpoint.
func TestRollWithoutCheckpointRecovers(t *testing.T) {
	for _, older := range []bool{false, true} {
		name := "no-checkpoint"
		if older {
			name = "older-checkpoint"
		}
		t.Run(name, func(t *testing.T) {
			key := testSigner(t)
			dir := t.TempDir()
			cfg := StoreConfig{Shards: 3, NoSync: true, SegmentMaxBytes: 2048}
			entries := mixedEntries(400)
			l, err := OpenDurableLog(key, dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, entries[:150])
			if older {
				if err := l.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			appendAll(t, l, entries[150:300])
			// The roll half of a checkpoint; the crash takes the rest.
			l.mu.RLock()
			_, retired := l.store.rollStreams()
			l.mu.RUnlock()
			for _, f := range retired {
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
			appendAll(t, l, entries[300:350])
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := OpenDurableLog(key, dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireEntries(t, re, entries[:350])
			appendAll(t, re, entries[350:])
			if err := re.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := OpenDurableLog(key, dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			requireEntries(t, again, entries)
		})
	}
}

// TestArchiveStoreRefused: a store holding an archive of the retired
// cold-archive layout is refused with ErrLegacyLayout, and the refused
// open changes no file — not even the torn stream tail a lenient open
// would trim. The residue of an interrupted archive write alone is not
// an archive, and the store opens.
func TestArchiveStoreRefused(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	cfg := StoreConfig{Shards: 2, NoSync: true, SegmentMaxBytes: 1024}
	entries := mixedEntries(60)
	l, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries[:40])
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries[40:])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	appendToStreamTail(t, dir, 0, []byte{0x00, 0x00, 0x00, 0x7F, 0xAA})
	residue := filepath.Join(dir, "arc-00000000000000000000-0000000040.arc.tmp-89")
	if err := os.WriteFile(residue, []byte("torn"), 0o600); err != nil {
		t.Fatal(err)
	}
	archive := filepath.Join(dir, "arc-00000000000000000000-0000000040.arc")
	if err := os.WriteFile(archive, []byte("VNFGARC1"), 0o600); err != nil {
		t.Fatal(err)
	}
	before := snapshotDir(t, dir)
	if _, err := OpenDurableLog(key, dir, cfg); !errors.Is(err, ErrLegacyLayout) {
		t.Fatalf("store with an archive: got %v, want ErrLegacyLayout", err)
	}
	if after := snapshotDir(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("refused open changed the store")
	}

	if err := os.Remove(archive); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatalf("store with archive residue only: %v", err)
	}
	defer re.Close()
	requireEntries(t, re, entries)
}

// TestOlderCheckpointReopens: an older checkpoint.bin swapped in over a
// complete WAL reopens to the same head, entries and serial index — a
// stale summary only lengthens the replay.
func TestOlderCheckpointReopens(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	cfg := StoreConfig{Shards: 3, NoSync: true, SegmentMaxBytes: 2048}
	entries := hostEntries(600, 5)
	l, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries[:200])
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	older, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries[200:500])
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries[500:])
	head := l.STH()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointFileName), older, 0o600); err != nil {
		t.Fatal(err)
	}

	ref, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, ref, entries)
	suffixBefore := mRecoverSuffixEntries.Value()
	re, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := mRecoverSuffixEntries.Value() - suffixBefore; got != 400 {
		t.Fatalf("replayed %d entries past the older checkpoint, want 400", got)
	}
	if got := re.STH(); !got.equal(head) {
		t.Fatalf("reopened head at size %d, want the head at %d", got.Size, head.Size)
	}
	re.mu.RLock()
	issuance, revoked := re.issuance, re.revoked
	re.mu.RUnlock()
	if !reflect.DeepEqual(issuance, ref.issuance) || !reflect.DeepEqual(revoked, ref.revoked) {
		t.Fatal("serial index differs from a full replay's")
	}
	requireEntries(t, re, entries)
}

// TestIdleStreamReadsNothing: a stream that got no append since the
// checkpoint contributes no byte to the reopen, and its next append
// opens a fresh segment at the stream's checkpointed count.
func TestIdleStreamReadsNothing(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	cfg := StoreConfig{Shards: 2, NoSync: true, SegmentMaxBytes: 512}
	hostA, hostB := hostForShard(t, 2, 0), hostForShard(t, 2, 1)
	var entries []Entry
	for i := 0; i < 51; i++ {
		host := hostA
		if i < 40 && i%2 == 1 || i == 50 {
			host = hostB
		}
		entries = append(entries, Entry{Type: EntryAttestOK, Timestamp: int64(1700000000000 + i), Actor: "fw", Host: host, Detail: "OK"})
	}
	l, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries[:40])
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries[40:50])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, e := range entries[40:50] {
		want += recordHeaderLen + shardIndexLen + len(e.Marshal())
	}

	before := mRecoverWALBytes.Value()
	re, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := mRecoverWALBytes.Value() - before; got != uint64(want) {
		t.Fatalf("reopen read %d WAL bytes, want stream 0's suffix of %d", got, want)
	}
	idle := checkpointCounts(t, re)[1]
	cold := snapshotDir(t, dir)
	appendAll(t, re, entries[50:])
	fresh, err := os.ReadFile(filepath.Join(dir, shardSegmentName(1, idle)))
	if err != nil {
		t.Fatalf("append to the idle stream opened no segment at its count %d: %v", idle, err)
	}
	if len(fresh) != recordHeaderLen+shardIndexLen+len(entries[50].Marshal()) {
		t.Fatalf("fresh segment holds %d bytes, want the one record", len(fresh))
	}
	for _, name := range segmentsBelow(t, dir, checkpointCounts(t, re)) {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, cold[name]) {
			t.Fatalf("cold segment %s changed after the append", name)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	requireEntries(t, again, entries)
}

// TestLaggingWitnessRecommitted: a witness anchor left one head behind
// sth.json — a crash between anchors — is still brought up to the
// recovered head at open.
func TestLaggingWitnessRecommitted(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	witnessDir := testStatedir(t)
	anchors := func() []TrustAnchor {
		return []TrustAnchor{NewWitnessAnchor(witnessDir, "w0", &key.PublicKey)}
	}
	l, err := OpenDurableLog(key, dir, StoreConfig{NoSync: true, Anchors: anchors()})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(4))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	crashed, err := OpenDurableLog(key, dir, StoreConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, crashed, mixedEntries(6)[4:])
	head := crashed.STH()
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurableLog(key, dir, StoreConfig{NoSync: true, Anchors: anchors()})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var got SignedTreeHead
	data, err := os.ReadFile(witnessDir.Path(witnessHeadFile("w0")))
	if err != nil {
		t.Fatal(err)
	}
	mustUnmarshal(t, data, &got)
	if !got.equal(head) {
		t.Fatalf("lagging witness holds size %d after open, want the recovered head at %d", got.Size, head.Size)
	}
}

// TestCurrentAnchorsWriteNothing: a reopen whose every anchor already
// holds the recovered head replaces no head file — sth.json and the
// witness head keep their inode and bytes.
func TestCurrentAnchorsWriteNothing(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	witnessDir := testStatedir(t)
	cfg := func() StoreConfig {
		return StoreConfig{Anchors: []TrustAnchor{NewWitnessAnchor(witnessDir, "w0", &key.PublicKey)}}
	}
	l, err := OpenDurableLog(key, dir, cfg())
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(20))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	paths := []string{filepath.Join(dir, sthFileName), witnessDir.Path(witnessHeadFile("w0"))}
	stat := func() ([]os.FileInfo, [][]byte) {
		var infos []os.FileInfo
		var data [][]byte
		for _, p := range paths {
			info, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			infos, data = append(infos, info), append(data, b)
		}
		return infos, data
	}
	infos, data := stat()
	for i := 0; i < 2; i++ {
		re, err := OpenDurableLog(key, dir, cfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
	gotInfos, gotData := stat()
	for i, p := range paths {
		if !os.SameFile(infos[i], gotInfos[i]) || !bytes.Equal(data[i], gotData[i]) {
			t.Errorf("reopen with current anchors replaced %s", filepath.Base(p))
		}
	}
}

// sealedCounter reads the platform counter a sealed anchor bumps,
// through a probe anchor bound to the same log key.
func sealedCounter(t *testing.T, mk func() *SealedHeadAnchor) uint64 {
	t.Helper()
	probe := mk()
	defer probe.Close()
	raw, err := probe.enclave.ECall(ecallSealedOpen, mustJSON(sealedOpenArgs{Counter: probe.counter, AAD: probe.aad}))
	if err != nil {
		t.Fatal(err)
	}
	var rep sealedOpenReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	return rep.CounterVal
}

// TestSealedReopenKeepsCounter: reopening a store whose sealed anchor
// already pins the recovered head bumps no counter, while a sealed
// anchor one head behind is still bumped at open.
func TestSealedReopenKeepsCounter(t *testing.T) {
	key := testSigner(t)
	platform := testPlatform(t)
	vendor := testSigner(t)
	dir := t.TempDir()
	mk := func() *SealedHeadAnchor {
		a, err := NewSealedHeadAnchor(platform, vendor, filepath.Join(dir, SealedHeadFileName), &key.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	open := func(anchors ...TrustAnchor) *Log {
		t.Helper()
		l, err := OpenDurableLog(key, dir, StoreConfig{NoSync: true, Anchors: anchors})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l := open(mk())
	appendAll(t, l, mixedEntries(8))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	pinned := sealedCounter(t, mk)
	for i := 0; i < 3; i++ {
		if err := open(mk()).Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := sealedCounter(t, mk); got != pinned {
		t.Fatalf("three reopens moved the sealed counter from %d to %d", pinned, got)
	}

	crashed := open()
	appendAll(t, crashed, mixedEntries(10)[8:])
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}
	snap := snapshotDir(t, dir)
	if err := open(mk()).Close(); err != nil {
		t.Fatal(err)
	}
	if got := sealedCounter(t, mk); got != pinned+1 {
		t.Fatalf("open behind a lagging sealed pin left the counter at %d, want %d", got, pinned+1)
	}
	restoreDir(t, dir, snap)
	if _, err := OpenDurableLog(key, dir, StoreConfig{Anchors: []TrustAnchor{mk()}}); !errors.Is(err, ErrSealedRollback) {
		t.Fatalf("rewind to the lagging pin: got %v, want ErrSealedRollback", err)
	}
}
