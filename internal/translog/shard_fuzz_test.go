package translog

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// FuzzShardedRecovery drives the sharded store through fuzzer-chosen
// multi-host append interleavings and a fuzzer-chosen crash point, then
// checks the invariant the whole design rests on: recovery from the
// interleaved per-host segment streams always reproduces the exact
// global order — and therefore the exact root hash — of an in-memory
// reference log holding the entries that durably landed, with each
// stream's torn tail truncated independently.
//
// The input script: byte 0 picks the host count (1..4), byte 1 the shard
// count (2..4), the last byte the crash point; the bytes between split
// in half — the first half commits batches through the real append path
// (each byte: 1..5 entries spread across hosts), the second half forms
// one final cycle whose records are written by hand in store write
// order (shard-ascending) and cut off mid-stream at the crash point,
// exactly the bytes an OS crash mid-cycle leaves behind.
func FuzzShardedRecovery(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0})
	f.Add([]byte{1, 2, 7, 200, 3, 9, 0xFF})
	f.Add([]byte{3, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0x80})
	f.Add([]byte{2, 3, 0xAA, 0x55, 0x11, 0x22, 0x33, 0x44, 0x99, 0x40})
	f.Add([]byte{3, 2, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nHosts := int(data[0])%4 + 1
		shards := int(data[1])%3 + 2
		crash := data[len(data)-1]
		script := data[2 : len(data)-1]
		half := len(script) / 2

		key := testSigner(t)
		dir := t.TempDir()
		cfg := StoreConfig{Shards: shards, SegmentMaxBytes: 512}
		l, err := OpenDurableLog(key, dir, cfg)
		if err != nil {
			t.Fatal(err)
		}

		seq := 0
		mk := func(host int) Entry {
			e := Entry{
				Type:      EntryAttestOK,
				Timestamp: int64(1700000000000 + seq),
				Actor:     fmt.Sprintf("fw-%d", seq),
				Host:      fmt.Sprintf("host-%d", host),
				Detail:    "OK",
			}
			seq++
			return e
		}

		// Committed phase: real appends, fsynced and headed.
		var committed []Entry
		for _, b := range script[:half] {
			count := int(b)%5 + 1
			batch := make([]Entry, 0, count)
			for i := 0; i < count; i++ {
				batch = append(batch, mk((int(b)+i)%nHosts))
			}
			if _, err := l.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			committed = append(committed, batch...)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// Crashing cycle: hand-written records, cut at the crash point.
		expect := committed
		tail := make([]Entry, 0, len(script)-half)
		for _, b := range script[half:] {
			tail = append(tail, mk(int(b)%nHosts))
		}
		if len(tail) > 0 {
			base := uint64(len(committed))
			type frame struct {
				shard int
				index uint64
				rec   []byte
			}
			frames := make([]frame, 0, len(tail))
			total := 0
			for i, e := range tail {
				fr := frame{
					shard: ShardOf(e.Host, shards),
					index: base + uint64(i),
					rec:   appendIndexedRecord(nil, base+uint64(i), e.Marshal()),
				}
				frames = append(frames, fr)
				total += len(fr.rec)
			}
			// Store write order: streams written shard-ascending, each
			// stream's records in global order.
			sort.SliceStable(frames, func(i, j int) bool {
				if frames[i].shard != frames[j].shard {
					return frames[i].shard < frames[j].shard
				}
				return frames[i].index < frames[j].index
			})
			cut := int(uint64(crash) * uint64(total+1) / 256)
			landed := map[uint64]bool{}
			remaining := cut
			for _, fr := range frames {
				n := len(fr.rec)
				if n > remaining {
					n = remaining
				}
				if n > 0 {
					appendToStreamTail(t, dir, fr.shard, fr.rec[:n])
				}
				if n == len(fr.rec) {
					landed[fr.index] = true
				}
				remaining -= n
			}
			// Recovery keeps the contiguous prefix of what fully landed.
			for i := range tail {
				if !landed[base+uint64(i)] {
					break
				}
				expect = append(expect, tail[i])
			}
		}

		re, err := OpenDurableLog(key, dir, cfg)
		if err != nil {
			t.Fatalf("crash state refused: %v", err)
		}
		if re.Size() != uint64(len(expect)) {
			t.Fatalf("recovered %d entries, want %d", re.Size(), len(expect))
		}
		if got := mustEntries(t, re, 0, re.Size()); len(expect) > 0 && !reflect.DeepEqual(got, expect) {
			t.Fatal("replayed global order diverged from the reference order")
		}
		// The root must equal an in-memory reference log's root over the
		// same entries.
		ref, err := NewLog(key)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.AppendBatch(expect); err != nil {
			t.Fatal(err)
		}
		refRoot, err := rootAt(ref, uint64(len(expect)))
		if err != nil {
			t.Fatal(err)
		}
		gotRoot := re.STH().RootHash
		if gotRoot != refRoot {
			t.Fatal("sharded recovery root differs from the reference root")
		}
		// Appends resume on a clean frame boundary and survive a reopen:
		// the per-stream truncation was physical.
		if _, err := re.Append(mk(0)); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := OpenDurableLog(key, dir, cfg)
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		if again.Size() != uint64(len(expect))+1 {
			t.Fatalf("second recovery found %d entries, want %d", again.Size(), len(expect)+1)
		}
		again.Close()
	})
}

// appendToStreamTail appends raw bytes to the newest segment of a shard
// stream, creating the stream's first segment when none exists — the
// file-level effect of a crash mid-way through a stream write.
func appendToStreamTail(t *testing.T, dir string, shard int, raw []byte) {
	t.Helper()
	shardFirsts, err := listStreams(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := uint64(0)
	if firsts := shardFirsts[shard]; len(firsts) > 0 {
		first = firsts[len(firsts)-1]
	}
	path := filepath.Join(dir, shardSegmentName(shard, first))
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write(raw); err != nil {
		t.Fatal(err)
	}
	fh.Close()
}
