package translog

import (
	"crypto/ecdsa"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzCheckpointedRecovery drives the checkpointed-recovery path through
// fuzzer-chosen checkpoint placement and crash residue, then checks the
// tentpole invariant: a suffix-only replay from a checkpoint reproduces
// bit-for-bit the root a full replay of the same entries produces, and
// damaged or rolled-back checkpoint state is refused with the right
// taxonomy, never silently ignored.
//
// The input script: byte 0 picks the entry count (20..275), byte 1 the
// stream count (0 — one stream — or 2..4), byte 2 where in the
// sequence the checkpoint lands, byte 3 the post-close scenario —
// nothing, stray rename-discipline temp files, a torn frame on stream
// 0's post-checkpoint segment, a second checkpoint generation, a
// rolled-back head (must refuse ErrStateRollback) or a flipped
// checkpoint byte (must refuse ErrStateCorrupt).
func FuzzCheckpointedRecovery(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{80, 1, 40, 1})
	f.Add([]byte{120, 2, 100, 2})
	f.Add([]byte{200, 0, 130, 3})
	f.Add([]byte{90, 3, 60, 4})
	f.Add([]byte{150, 1, 20, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := int(data[0]) + 20
		shardOpts := []int{0, 2, 3, 4}
		shards := shardOpts[int(data[1])%len(shardOpts)]
		ckptAt := int(data[2]) % (n + 1)
		mode := int(data[3]) % 6
		// The rollback scenario needs a second, larger checkpoint
		// generation to roll back from.
		if mode == 4 && (ckptAt == 0 || ckptAt >= n) {
			mode = 0
		}

		key := testSigner(t)
		dir := t.TempDir()
		cfg := StoreConfig{Shards: shards, SegmentMaxBytes: 1024, NoSync: true}
		entries := mixedEntries(n)

		l, err := OpenDurableLog(key, dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, entries[:ckptAt])
		var oldSTH []byte
		if mode == 4 {
			oldSTH, err = os.ReadFile(filepath.Join(dir, sthFileName))
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, entries[ckptAt:])
		if mode == 3 || mode == 4 {
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		switch mode {
		case 1:
			// Crash mid-rename: stray temp files from the atomic write
			// discipline — the fixed name older builds staged in and
			// statedir.ReplaceFile's per-write name — must be inert.
			for _, name := range []string{
				checkpointFileName + ".tmp",
				"arc-00000000000000000000-0000000001.arc.tmp",
				sthFileName + ".tmp",
				checkpointFileName + ".tmp-1234567",
				"arc-00000000000000000000-0000000001.arc.tmp-89",
				sthFileName + ".tmp-4242",
			} {
				if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o600); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			// Crash mid-append: a torn frame past the committed head, on
			// the segment the stream writes after the checkpoint, must
			// be trimmed, not refused.
			tearPostCheckpoint(t, dir, &key.PublicKey, 0, []byte{0x00, 0x00, 0x00, 0x7F, 0xAA})
		case 4:
			if err := os.WriteFile(filepath.Join(dir, sthFileName), oldSTH, 0o600); err != nil {
				t.Fatal(err)
			}
			_, err := OpenDurableLog(key, dir, cfg)
			if !errors.Is(err, ErrStateRollback) {
				t.Fatalf("rolled-back head under a newer checkpoint: got %v, want ErrStateRollback", err)
			}
			return
		case 5:
			path := filepath.Join(dir, checkpointFileName)
			ck, err := os.ReadFile(path)
			if err != nil {
				// A zero-size checkpoint writes no file; nothing to flip.
				if ckptAt == 0 {
					return
				}
				t.Fatal(err)
			}
			ck[int(data[0])%len(ck)] ^= 0x20
			if err := os.WriteFile(path, ck, 0o600); err != nil {
				t.Fatal(err)
			}
			_, err = OpenDurableLog(key, dir, cfg)
			if !errors.Is(err, ErrStateCorrupt) {
				t.Fatalf("bit-flipped checkpoint: got %v, want ErrStateCorrupt", err)
			}
			return
		}

		re, err := OpenDurableLog(key, dir, cfg)
		if err != nil {
			t.Fatalf("clean checkpointed state refused: %v", err)
		}
		if re.Size() != uint64(n) {
			t.Fatalf("recovered %d entries, want %d", re.Size(), n)
		}
		// The root must equal a full in-memory replay's root, bit for bit.
		ref, err := NewLog(key)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.AppendBatch(entries); err != nil {
			t.Fatal(err)
		}
		refRoot, err := rootAt(ref, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		gotRoot := re.STH().RootHash
		if gotRoot != refRoot {
			t.Fatal("suffix-replay root differs from full-replay root")
		}
		// Cold reads fetch tiles from the cold segments and match the
		// originals.
		if got := mustEntries(t, re, 0, re.Size()); !reflect.DeepEqual(got, entries) {
			t.Fatal("cold entry sequence diverged from the originals")
		}
		// A proof spanning the cold prefix still verifies.
		pb, err := logProofs(re).ProveSerial(issuedSerial(t, entries))
		if err != nil {
			t.Fatal(err)
		}
		if err := pb.Verify(&key.PublicKey); err != nil {
			t.Fatal(err)
		}
		// Appends resume cleanly and survive another checkpointed reopen.
		extra := mixedEntries(n + 3)[n:]
		appendAll(t, re, extra)
		if err := re.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := OpenDurableLog(key, dir, cfg)
		if err != nil {
			t.Fatalf("second checkpointed recovery: %v", err)
		}
		if again.Size() != uint64(n+3) {
			t.Fatalf("second recovery found %d entries, want %d", again.Size(), n+3)
		}
		again.Close()
	})
}

// tearPostCheckpoint appends raw to the stream's segment past the
// checkpoint, creating that segment when the stream has written nothing
// since the checkpoint rolled it — a crash during the stream's first
// write after the checkpoint. A crash cannot tear a cold segment: the
// checkpoint retired it whole.
func tearPostCheckpoint(t *testing.T, dir string, pub *ecdsa.PublicKey, shard int, raw []byte) {
	t.Helper()
	ck, err := loadCheckpoint(dir, pub)
	if err != nil {
		t.Fatal(err)
	}
	if ck != nil {
		streams, err := listStreams(dir)
		if err != nil {
			t.Fatal(err)
		}
		fs, count := streams[shard], ck.streamCounts[shard]
		if len(fs) == 0 || fs[len(fs)-1] < count {
			if err := os.WriteFile(filepath.Join(dir, shardSegmentName(shard, count)), nil, 0o600); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendToStreamTail(t, dir, shard, raw)
}
