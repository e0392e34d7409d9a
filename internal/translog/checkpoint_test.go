package translog

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vnfguard/internal/wire"
)

// issuedSerial returns a serial that is issued (enroll/provision) and
// never revoked in entries — a serial ProveSerial must succeed for.
func issuedSerial(t *testing.T, entries []Entry) string {
	t.Helper()
	revoked := map[string]bool{}
	for _, e := range entries {
		if e.Type == EntryRevoke {
			revoked[e.Serial] = true
		}
	}
	for _, e := range entries {
		if (e.Type == EntryEnroll || e.Type == EntryProvision) && !revoked[e.Serial] {
			return e.Serial
		}
	}
	t.Fatal("no unrevoked issued serial in test entries")
	return ""
}

// checkpointedConfig keeps segments small (many cold segments) and
// skips fsyncs for test speed.
func checkpointedConfig(shards int) StoreConfig {
	return StoreConfig{SegmentMaxBytes: 2048, NoSync: true, Shards: shards}
}

// TestCheckpointedRoundTrip covers the tentpole end to end for both
// layouts: a log checkpointed mid-life reopens from the suffix replay
// with bit-for-bit the same root, head and entry sequence a full replay
// produced, cold reads fetch tiles from the cold segments, and the log keeps
// appending and checkpointing across generations.
func TestCheckpointedRoundTrip(t *testing.T) {
	for _, shards := range []int{0, 3} {
		name := "single"
		if shards > 0 {
			name = "sharded"
		}
		t.Run(name, func(t *testing.T) {
			key := testSigner(t)
			dir := t.TempDir()
			entries := mixedEntries(1200)

			l, err := OpenDurableLog(key, dir, checkpointedConfig(shards))
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, entries[:800])
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, entries[800:])
			rootBefore := l.STH().RootHash
			sthBefore := l.STH()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// The full-replay reference root over the same entries.
			ref, err := NewLog(key)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.AppendBatch(entries); err != nil {
				t.Fatal(err)
			}
			refRoot, err := rootAt(ref, uint64(len(entries)))
			if err != nil {
				t.Fatal(err)
			}
			if rootBefore != refRoot {
				t.Fatal("durable root disagrees with in-memory reference")
			}

			suffixBefore := mRecoverSuffixEntries.Value()
			replayedBefore := mRecoverEntries.Value()
			re, err := OpenDurableLog(key, dir, checkpointedConfig(shards))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := re.Size(); got != uint64(len(entries)) {
				t.Fatalf("reopened size %d, want %d", got, len(entries))
			}
			if got := mRecoverSuffixEntries.Value() - suffixBefore; got != 400 {
				t.Fatalf("suffix replay length %d, want 400", got)
			}
			if got := mRecoverEntries.Value() - replayedBefore; got != 400 {
				t.Fatalf("checkpointed open replayed %d entries, want only the 400-entry suffix", got)
			}
			rootAfter := re.STH().RootHash
			if rootAfter != refRoot {
				t.Fatal("checkpointed open root differs from full-replay root")
			}
			sthAfter := re.STH()
			if sthAfter.Size != sthBefore.Size || sthAfter.RootHash != sthBefore.RootHash {
				t.Fatal("tree head changed across checkpointed restart")
			}

			// Proofs against the cold range read cold tiles and verify.
			serial := issuedSerial(t, entries)
			pb, err := logProofs(re).ProveSerial(serial)
			if err != nil {
				t.Fatal(err)
			}
			if err := pb.Verify(&key.PublicKey); err != nil {
				t.Fatal(err)
			}
			proof, err := logProofs(re).InclusionProof(0, sthAfter.Size)
			if err != nil {
				t.Fatal(err)
			}
			e0, err := re.Entry(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyInclusion(LeafHash(e0.Marshal()), 0, sthAfter.Size, proof, sthAfter.RootHash); err != nil {
				t.Fatal(err)
			}
			cons, err := logProofs(re).ConsistencyProof(700, sthAfter.Size)
			if err != nil {
				t.Fatal(err)
			}
			root700, err := rootAt(re, 700)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyConsistency(700, sthAfter.Size, root700, sthAfter.RootHash, cons); err != nil {
				t.Fatal(err)
			}
			if got := mustEntries(t, re, 0, re.Size()); !reflect.DeepEqual(got, entries) {
				t.Fatal("entry sequence changed across checkpointed restart")
			}

			// The log keeps going: append, checkpoint again, reopen again.
			more := mixedEntries(1500)[1200:]
			appendAll(t, re, more)
			if err := re.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2, err := OpenDurableLog(key, dir, checkpointedConfig(shards))
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			if _, err := ref.AppendBatch(more); err != nil {
				t.Fatal(err)
			}
			wantRoot, err := rootAt(ref, uint64(1500))
			if err != nil {
				t.Fatal(err)
			}
			gotRoot := re2.STH().RootHash
			if gotRoot != wantRoot {
				t.Fatal("second-generation checkpointed root differs from reference")
			}
		})
	}
}

// TestCheckpointKeepsColdSegments: a checkpoint leaves the WAL segments
// it covers where they are — each keeps its inode and size, and no
// archive appears — the checkpoint telemetry moves, and cold reads
// reproduce every entry from those segments.
func TestCheckpointKeepsColdSegments(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	entries := mixedEntries(1000)

	l, err := OpenDurableLog(key, dir, checkpointedConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries)

	segments := func() map[string]os.FileInfo {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]os.FileInfo{}
		for _, de := range des {
			if strings.HasSuffix(de.Name(), ".wal") {
				info, err := de.Info()
				if err != nil {
					t.Fatal(err)
				}
				out[de.Name()] = info
			}
		}
		return out
	}
	before := segments()
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := segments()
	for name, info := range before {
		got, ok := after[name]
		if !ok || !os.SameFile(info, got) || got.Size() != info.Size() {
			t.Fatalf("checkpoint replaced or removed segment %s", name)
		}
	}
	if cold := segmentsBelow(t, dir, checkpointCounts(t, l)); len(cold) != len(before) {
		t.Fatalf("checkpoint covers %d segments, want all %d written before it", len(cold), len(before))
	}
	if n := countFiles(t, dir, ".arc"); n != 0 {
		t.Fatalf("checkpoint wrote %d archive files", n)
	}
	if mCkptBytes.Value() <= 0 {
		t.Fatal("checkpoint size gauge not set")
	}
	if _, ok := mCkptLast.Time(); !ok {
		t.Fatal("checkpoint stamp not marked")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurableLog(key, dir, checkpointedConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := mustEntries(t, re, 0, re.Size()); !reflect.DeepEqual(got, entries) {
		t.Fatal("cold entries differ from the originals")
	}
}

// TestColdEntriesMissingSegmentsRefused: a checkpointed store whose
// cold segments are gone still opens (the suffix past the checkpoint is
// all a reopen reads), but a read of the cold prefix is an error, never
// an empty range — and over HTTP every endpoint that reads it (entries,
// tiles, serial lookup) answers a 5xx that no cache may keep, not an
// immutable "200 []", a "no such tile" or a "never logged" verdict.
func TestColdEntriesMissingSegmentsRefused(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, checkpointedConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	entries := mixedEntries(300)
	appendAll(t, l, entries)
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cold := segmentsBelow(t, dir, checkpointCounts(t, l))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(cold) == 0 {
		t.Fatal("checkpoint left no cold segments")
	}
	for _, name := range cold {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}

	re, err := OpenDurableLog(key, dir, checkpointedConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, err := re.Entries(0, 1); err == nil {
		t.Fatalf("cold read without its segments returned %d entries and no error", len(got))
	}
	srv := httptest.NewServer(Handler(re))
	defer srv.Close()
	serial := issuedSerial(t, entries)
	for _, path := range []string{
		pathEntries + "?start=0&count=1",
		pathTile + "0/0",
		pathLookup + "?serial=" + serial,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 500 {
			t.Fatalf("GET %s without its cold segments answered %d, want a 5xx", path, resp.StatusCode)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != cacheNoCache {
			t.Fatalf("GET %s: failed cold read cached as %q", path, cc)
		}
	}
	// A storage outage is no verdict: the remote proof read fails, but
	// never as "not logged".
	_, err = NewTileProofSource(NewClient(srv.URL, &key.PublicKey), 0).ProveSerial(serial)
	if err == nil || errors.Is(err, ErrNotLogged) {
		t.Fatalf("remote proof of logged serial %s during the outage: got %v, want a plain error", serial, err)
	}
}

// TestCheckpointEveryBackground covers the automatic path: with
// StoreConfig.CheckpointEvery set, commits past the interval spawn the
// background writer off the commit path, and a later open replays only
// a suffix.
func TestCheckpointEveryBackground(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	cfg := checkpointedConfig(0)
	cfg.CheckpointEvery = 200
	entries := mixedEntries(900)

	l, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(dir, checkpointFileName)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background checkpoint never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	replayedBefore := mRecoverEntries.Value()
	re, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := mRecoverEntries.Value() - replayedBefore; got >= uint64(len(entries)) {
		t.Fatalf("open replayed all %d entries despite a background checkpoint", got)
	}
	root := re.STH().RootHash
	ref, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	want, err := rootAt(ref, uint64(len(entries)))
	if err != nil {
		t.Fatal(err)
	}
	if root != want {
		t.Fatal("background-checkpointed open root differs from reference")
	}
}

// buildCheckpointedStore builds a store with two checkpoint generations
// and returns artifacts the refusal tests rewind with: the signed head
// as persisted before either checkpoint, and a copy of the first
// (older) checkpoint file taken before the second overwrote it.
func buildCheckpointedStore(t *testing.T) (key *ecdsa.PrivateKey, dir string, cfg StoreConfig, oldSTH, oldCkpt []byte) {
	t.Helper()
	key = testSigner(t)
	dir = t.TempDir()
	cfg = checkpointedConfig(0)
	l, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := mixedEntries(700)
	appendAll(t, l, all[:300])
	oldSTH, err = os.ReadFile(filepath.Join(dir, sthFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	oldCkpt, err = os.ReadFile(filepath.Join(dir, checkpointFileName))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, all[300:])
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return key, dir, cfg, oldSTH, oldCkpt
}

// TestCheckpointRefusals drives every way checkpoint state can lie and
// asserts the open refuses with the matching taxonomy — a bad
// checkpoint is never silently ignored.
func TestCheckpointRefusals(t *testing.T) {
	t.Run("crc-damage", func(t *testing.T) {
		key, dir, cfg, _, _ := buildCheckpointedStore(t)
		path := filepath.Join(dir, checkpointFileName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		_, err = OpenDurableLog(key, dir, cfg)
		if !errors.Is(err, ErrStateCorrupt) {
			t.Fatalf("damaged checkpoint: got %v, want ErrStateCorrupt", err)
		}
	})

	t.Run("tamper-crc-fixed", func(t *testing.T) {
		key, dir, cfg, _, _ := buildCheckpointedStore(t)
		path := filepath.Join(dir, checkpointFileName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Rewrite a digit of the signed size claim and fix the CRC, so
		// the damage channel cannot be the one that catches it: only the
		// signature can.
		i := bytes.Index(data, []byte(`"size":`))
		if i < 0 {
			t.Fatal("no size claim in checkpoint header")
		}
		data[i+len(`"size":`)] ^= 0x01
		body := data[:len(data)-4]
		binary.BigEndian.PutUint32(data[len(data)-4:], crc32.Checksum(body, crcTable))
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		_, err = OpenDurableLog(key, dir, cfg)
		if !errors.Is(err, ErrStateTampered) {
			t.Fatalf("tampered checkpoint: got %v, want ErrStateTampered", err)
		}
	})

	t.Run("rolled-back-head", func(t *testing.T) {
		key, dir, cfg, oldSTH, _ := buildCheckpointedStore(t)
		// Rewind sth.json to the pre-checkpoint head: a checkpoint newer
		// than the persisted head means the statedir was rolled back
		// around it.
		if err := os.WriteFile(filepath.Join(dir, sthFileName), oldSTH, 0o600); err != nil {
			t.Fatal(err)
		}
		_, err := OpenDurableLog(key, dir, cfg)
		if !errors.Is(err, ErrStateRollback) {
			t.Fatalf("rolled-back head under a newer checkpoint: got %v, want ErrStateRollback", err)
		}
	})

	t.Run("missing-head", func(t *testing.T) {
		key, dir, cfg, _, _ := buildCheckpointedStore(t)
		if err := os.Remove(filepath.Join(dir, sthFileName)); err != nil {
			t.Fatal(err)
		}
		_, err := OpenDurableLog(key, dir, cfg)
		if !errors.Is(err, ErrStateTampered) {
			t.Fatalf("checkpoint without a persisted head: got %v, want ErrStateTampered", err)
		}
	})

	t.Run("rolled-back-checkpoint", func(t *testing.T) {
		key, dir, cfg, _, oldCkpt := buildCheckpointedStore(t)
		// Delete the segments the newer checkpoint covers, which the old
		// checkpoint still needs, then swap the old checkpoint in: the
		// oldest surviving segment starts past it.
		newer, err := loadCheckpoint(dir, &key.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range segmentsBelow(t, dir, newer.streamCounts) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, checkpointFileName), oldCkpt, 0o600); err != nil {
			t.Fatal(err)
		}
		_, err = OpenDurableLog(key, dir, cfg)
		if !errors.Is(err, ErrStateRollback) {
			t.Fatalf("rolled-back checkpoint past deleted history: got %v, want ErrStateRollback", err)
		}
	})

	t.Run("checkpoint-only", func(t *testing.T) {
		key, dir, cfg, _, _ := buildCheckpointedStore(t)
		// Every segment and the persisted head deleted: the checkpoint
		// alone proves a head was persisted, so this is deletion, not a
		// fresh store.
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range des {
			if strings.HasSuffix(de.Name(), segmentSuffix) || de.Name() == sthFileName {
				if err := os.Remove(filepath.Join(dir, de.Name())); err != nil {
					t.Fatal(err)
				}
			}
		}
		before := snapshotDir(t, dir)
		_, err = OpenDurableLog(key, dir, cfg)
		if !errors.Is(err, ErrStateTampered) {
			t.Fatalf("checkpoint without segments or head: got %v, want ErrStateTampered", err)
		}
		if after := snapshotDir(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatal("refused open changed the store")
		}
	})
}

// TestLegacyCheckpointRefused: a checkpoint.bin of the format before
// the tree rows (magic VNFGCKP1: header, signature and serial snapshot,
// its header with or without the signed head it was taken at) cannot
// reopen a tree whose cold rows are not in memory. The open refuses it
// with ErrLegacyLayout, however well it is signed, and changes no file.
func TestLegacyCheckpointRefused(t *testing.T) {
	for _, innerHead := range []bool{false, true} {
		t.Run(fmt.Sprint("inner-head=", innerHead), func(t *testing.T) {
			key := testSigner(t)
			dir := t.TempDir()
			cfg := checkpointedConfig(2)
			l, err := OpenDurableLog(key, dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			all := mixedEntries(500)
			appendAll(t, l, all[:300])
			head := l.STH()
			blocks := blockSet(t, l.tree, head.Size)
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, all[300:])
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// Rewrite the checkpoint in the retired format, signed over
			// its own header and snapshot.
			hdrBytes, snap, _ := checkpointSections(t, dir)
			var hdr ckptHeader
			if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
				t.Fatal(err)
			}
			type v1Header struct {
				Size         uint64          `json:"size"`
				STH          *SignedTreeHead `json:"sth,omitempty"`
				Blocks       []Hash          `json:"blocks"`
				StreamCounts []uint64        `json:"stream_counts,omitempty"`
			}
			v1 := v1Header{Size: hdr.Size, Blocks: blocks, StreamCounts: hdr.StreamCounts}
			if innerHead {
				v1.STH = &head
			}
			retired, err := json.Marshal(v1)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			h.Write([]byte("vnfguard-translog-ckpt-v1"))
			h.Write(retired)
			h.Write(snap)
			sig, err := key.Sign(rand.Reader, h.Sum(nil), crypto.SHA256)
			if err != nil {
				t.Fatal(err)
			}
			buf := wire.AppendBytes32(append([]byte(nil), ckptMagicV1[:]...), retired)
			buf = wire.AppendBytes32(buf, sig)
			if err := os.WriteFile(filepath.Join(dir, checkpointFileName), sealEnvelope(wire.AppendBytes32(buf, snap)), 0o600); err != nil {
				t.Fatal(err)
			}

			before := snapshotDir(t, dir)
			if _, err := OpenDurableLog(key, dir, cfg); !errors.Is(err, ErrLegacyLayout) {
				t.Fatalf("retired checkpoint format: got %v, want ErrLegacyLayout", err)
			}
			if after := snapshotDir(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatal("refused open changed the store")
			}
		})
	}
}

// blockSet returns the roots of n's binary decomposition over tr,
// largest first: the block set older checkpoint headers carried beside
// (VNFGCKP2) or instead of (VNFGCKP1) the tree rows.
func blockSet(t *testing.T, tr *tree, n uint64) []Hash {
	t.Helper()
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	var out []Hash
	for lo := uint64(0); lo < n; {
		b := uint64(1) << (bits.Len64(n-lo) - 1)
		h, err := merkleSubtree(lo, lo+b, tr.node)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, h)
		lo += b
	}
	return out
}

// serialVerdicts returns what l answers for each serial entries name:
// the index a lookup finds it at, or that it is revoked.
func serialVerdicts(t *testing.T, l *Log, entries []Entry) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, e := range entries {
		if e.Serial == "" {
			continue
		}
		pb, err := l.lookupBundle(e.Serial)
		switch {
		case errors.Is(err, ErrLogRevoked) && l.SerialRevoked(e.Serial):
			out[e.Serial] = "revoked"
		case err != nil:
			t.Fatalf("serial %s: %v", e.Serial, err)
		default:
			out[e.Serial] = fmt.Sprint("issued at ", pb.Index)
		}
	}
	return out
}

// TestCheckpointWithBlockSetReopens: a checkpoint whose header carries
// the block set older builds wrote beside the rows (a "blocks" key,
// magic VNFGCKP2 as now) reopens to the same head, entries and serial
// verdicts — the decoder ignores the key, and the signature covers the
// header's bytes as written — and the next checkpoint's header carries
// no block set.
func TestCheckpointWithBlockSetReopens(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	cfg := checkpointedConfig(4)
	entries := mixedEntries(1500)
	l, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries[:1100])
	blocks := blockSet(t, l.tree, 1100)
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries[1100:1300])
	head := l.STH()
	verdicts := serialVerdicts(t, l, entries[:1300])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-sign the checkpoint with the block set added to its header.
	hdrBytes, snap, rows := checkpointSections(t, dir)
	if _, ok := headerFields(t, hdrBytes)["blocks"]; ok {
		t.Fatal("a new checkpoint's header carries a block set")
	}
	var hdr ckptHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		t.Fatal(err)
	}
	type blocksHeader struct { // the header as older builds wrote it
		Size         uint64   `json:"size"`
		Blocks       []Hash   `json:"blocks"`
		StreamCounts []uint64 `json:"stream_counts,omitempty"`
		RowsDigest   Hash     `json:"rows_digest"`
	}
	withBlocks, err := json.Marshal(blocksHeader{Size: hdr.Size, Blocks: blocks, StreamCounts: hdr.StreamCounts, RowsDigest: hdr.RowsDigest})
	if err != nil {
		t.Fatal(err)
	}
	digest := ckptDigest(withBlocks, snap)
	sig, err := key.Sign(rand.Reader, digest[:], crypto.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	buf := wire.AppendBytes32(append([]byte(nil), ckptMagic[:]...), withBlocks)
	buf = wire.AppendBytes32(buf, sig)
	buf = wire.AppendBytes32(buf, snap)
	if err := os.WriteFile(filepath.Join(dir, checkpointFileName), sealEnvelope(wire.AppendBytes32(buf, rows)), 0o600); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatalf("checkpoint with a block set: %v", err)
	}
	defer re.Close()
	if got := re.STH(); got.Size != head.Size || got.RootHash != head.RootHash {
		t.Fatalf("reopened at size %d, want the head at %d", got.Size, head.Size)
	}
	if got := mustEntries(t, re, 0, re.Size()); !reflect.DeepEqual(got, entries[:1300]) {
		t.Fatal("entry sequence changed across the reopen")
	}
	if got := serialVerdicts(t, re, entries[:1300]); !reflect.DeepEqual(got, verdicts) {
		t.Fatal("serial verdicts changed across the reopen")
	}

	// The next checkpoint is written without one.
	appendAll(t, re, entries[1300:])
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	hdrBytes, _, _ = checkpointSections(t, dir)
	if _, ok := headerFields(t, hdrBytes)["blocks"]; ok {
		t.Fatal("the checkpoint after the reopen carries a block set")
	}
}

// checkpointSections returns the header, serial snapshot and rows
// sections of dir's checkpoint file.
func checkpointSections(t *testing.T, dir string) (hdr, snap, rows []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
	if err != nil {
		t.Fatal(err)
	}
	body, err := openEnvelope(data, ckptMagic)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(body)
	hdr, _, snap, rows = r.Bytes32(wire.Unbounded), r.Bytes32(wire.Unbounded), r.Bytes32(wire.Unbounded), r.Bytes32(wire.Unbounded)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	return hdr, snap, rows
}

// headerFields decodes a checkpoint's JSON header by key.
func headerFields(t *testing.T, hdr []byte) map[string]json.RawMessage {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(hdr, &fields); err != nil {
		t.Fatal(err)
	}
	return fields
}

// TestTrimsAreDurable is the applyTrims bugfix regression: a torn tail
// found by recovery is trimmed durably (file synced, directory synced),
// so a second open finds a clean store and plans no further trims.
func TestTrimsAreDurable(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	// NoSync deliberately NOT set: this test pins the sync path.
	cfg := StoreConfig{SegmentMaxBytes: 4096}
	l, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(50))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a partial frame at the tail.
	tail := newestSegment(t, dir)
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x00, 0x7F, 0xAA}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	tornBefore := mRecoverTornTails.Value()
	re, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := mRecoverTornTails.Value() - tornBefore; got != 1 {
		t.Fatalf("first reopen planned %d torn-tail trims, want 1", got)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	// The trim must have stuck: the next open rediscovers nothing.
	re2, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := mRecoverTornTails.Value() - tornBefore; got != 1 {
		t.Fatalf("trimmed tail resurfaced: %d total trims after second reopen, want 1", got)
	}
	if got := re2.Size(); got != 50 {
		t.Fatalf("size %d after trimmed reopens, want 50", got)
	}
}

// countFiles counts directory entries with the given suffix.
func countFiles(t *testing.T, dir, suffix string) int {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range des {
		if strings.HasSuffix(de.Name(), suffix) {
			n++
		}
	}
	return n
}

// newestSegment returns the path of the lexically last .wal segment —
// the append tail for the single-stream layout.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".wal") && de.Name() > last {
			last = de.Name()
		}
	}
	if last == "" {
		t.Fatal("no segment files")
	}
	return filepath.Join(dir, last)
}

// TestProofsDoNotBlockOnCommitLock pins the read-path fix: proof
// assembly must not take the log's commit lock — the sequencer holds it
// across a WAL fsync, and proof endpoints stalling behind disk latency
// was the bug. The log's tile source reads tiles under the tree's own
// read lock, which is enough: nodes below a committed size are
// immutable. The proofs verify against the signed heads the commits
// recorded.
func TestProofsDoNotBlockOnCommitLock(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(mixedEntries(64)); err != nil {
		t.Fatal(err)
	}
	sth64 := l.STH()
	if _, err := l.AppendBatch(mixedEntries(64)); err != nil {
		t.Fatal(err)
	}
	sth := l.STH()
	proofs := logProofs(l)

	// Simulate a commit mid-fsync: the write lock held for the duration.
	l.mu.Lock()
	done := make(chan error, 1)
	go func() {
		proof, err := proofs.InclusionProof(3, sth.Size)
		if err != nil {
			done <- err
			return
		}
		leaf, err := l.tree.nodes(0, 3, 4)
		if err != nil {
			done <- err
			return
		}
		if err := VerifyInclusion(leaf[0], 3, sth.Size, proof, sth.RootHash); err != nil {
			done <- err
			return
		}
		cons, err := proofs.ConsistencyProof(sth64.Size, sth.Size)
		if err != nil {
			done <- err
			return
		}
		done <- VerifyConsistency(sth64.Size, sth.Size, sth64.RootHash, sth.RootHash, cons)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		l.mu.Unlock()
		t.Fatal("proof computation blocked on the commit lock")
	}
	l.mu.Unlock()
}
