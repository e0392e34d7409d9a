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
	l.store.compactMu.Lock()
	defer l.store.compactMu.Unlock()
	return l.store.coldCounts
}

// requireEntries checks a reopened log holds exactly entries, cold
// prefix included.
func requireEntries(t *testing.T, l *Log, entries []Entry) {
	t.Helper()
	if l.Size() != uint64(len(entries)) {
		t.Fatalf("recovered %d entries, want %d", l.Size(), len(entries))
	}
	if got := l.Entries(0, l.Size()); !reflect.DeepEqual(got, entries) {
		t.Fatal("recovered entries differ from the originals")
	}
}

// TestReopenReadsOnlySuffix: after a checkpoint and one suffix batch, a
// reopen reads the bytes of the suffix records and nothing else — the
// checkpoint rolled every stream, so its compaction archived every
// segment holding a checkpointed record, stream tails included.
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
	if cold := segmentsBelow(t, dir, checkpointCounts(t, l)); len(cold) > 0 {
		t.Fatalf("checkpoint left cold segments %v", cold)
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
// checkpoint, and the next checkpoint archives everything it covers.
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
			if cold := segmentsBelow(t, dir, checkpointCounts(t, re)); len(cold) > 0 {
				t.Fatalf("checkpoint left cold segments %v", cold)
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

// parentCheckpoint writes a checkpoint for the committed head without
// rolling the streams, the way stores were checkpointed before the roll,
// commits more on top — into the active tail, across the checkpoint —
// and compacts below the checkpoint.
func parentCheckpoint(t *testing.T, l *Log, more []Entry) {
	t.Helper()
	l.mu.RLock()
	size := l.entries.count()
	blocks, err := l.tree.blocks(size)
	if err != nil {
		t.Fatal(err)
	}
	ck := &checkpoint{size: size, sth: l.sth, blocks: blocks,
		issuance: map[string]uint64{}, revoked: map[string]bool{}}
	for k, v := range l.issuance {
		ck.issuance[k] = v
	}
	for k := range l.revoked {
		ck.revoked[k] = true
	}
	l.store.mu.Lock()
	for _, st := range l.store.streams {
		ck.streamCounts = append(ck.streamCounts, st.count)
	}
	l.store.mu.Unlock()
	l.mu.RUnlock()
	if _, err := writeCheckpointFile(l.store.dir, ck, l.signer, true); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, more)
	l.store.markCheckpoint(size, ck.streamCounts)
	if err := l.store.compact(); err != nil {
		t.Fatal(err)
	}
}

// TestStraddlingTailArchived: a store whose tail segment straddles its
// checkpoint, as stores were laid out before the roll, opens with every
// entry, appends into a fresh segment instead of the straddling tail,
// and is fully archived by its next checkpoint.
func TestStraddlingTailArchived(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	cfg := StoreConfig{NoSync: true, SegmentMaxBytes: 4096}
	entries := mixedEntries(300)
	l, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries[:100])
	parentCheckpoint(t, l, entries[100:110])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	counts := checkpointCounts(t, l)
	straddling := segmentsBelow(t, dir, counts)
	if len(straddling) != 1 {
		t.Fatalf("built store has segments %v below the checkpoint, want one straddling tail", straddling)
	}
	tail := filepath.Join(dir, straddling[0])
	info, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireEntries(t, re, entries[:110])
	if _, err := re.AppendBatch(entries[110:120]); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != info.Size() {
		t.Fatalf("append grew the straddling tail from %d to %d bytes", info.Size(), after.Size())
	}
	fresh := filepath.Join(dir, shardSegmentName(0, 110))
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("append did not open a fresh segment at the stream count: %v", err)
	}
	appendAll(t, re, entries[120:])
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if cold := segmentsBelow(t, dir, checkpointCounts(t, re)); len(cold) > 0 {
		t.Fatalf("checkpoint left cold segments %v", cold)
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
