package translog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	mrand "math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"vnfguard/internal/wire"
)

// serialEntries builds n deterministic entries from eight hosts, every
// fourth an enrollment whose serial is never revoked.
func serialEntries(n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		host := fmt.Sprintf("host-%d", i%8)
		out[i] = Entry{Type: EntryAttestOK, Timestamp: int64(1700000000000 + i), Actor: host, Host: host, Detail: "OK"}
		if i%4 == 3 {
			out[i].Type, out[i].Actor, out[i].Serial, out[i].Detail = EntryEnroll, fmt.Sprintf("fw-%d", i), fmt.Sprint(5000000+i), ""
		}
	}
	return out
}

// rewriteColdRecord rewrites, in place, the entry bytes of the record
// with global index index in the cold segments under counts, and fixes
// its CRC: a rewrite the framing cannot see, only the tree.
func rewriteColdRecord(t *testing.T, dir string, counts []uint64, index uint64, rewrite func(entry []byte)) {
	t.Helper()
	for _, name := range segmentsBelow(t, dir, counts) {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); {
			n := int(binary.BigEndian.Uint32(data[off:]))
			payload := data[off+recordHeaderLen : off+recordHeaderLen+n]
			if binary.BigEndian.Uint64(payload) == index {
				rewrite(payload[shardIndexLen:])
				binary.BigEndian.PutUint32(data[off+4:], crc32.Checksum(payload, crcTable))
				if err := os.WriteFile(path, data, 0o600); err != nil {
					t.Fatal(err)
				}
				return
			}
			off += recordHeaderLen + n
		}
	}
	t.Fatalf("no cold record with global index %d", index)
}

// TestColdSegmentsIndexedAsFramed pins the write-time tile index: every
// cold segment a running log wrote, rotated on size or at a checkpoint,
// is indexed by the time the checkpoint makes it cold, so no cold read
// reads it whole, and its index is the one reading it whole builds.
func TestColdSegmentsIndexedAsFramed(t *testing.T) {
	key := testSigner(t)
	entries := serialEntries(3000)
	for _, shards := range []int{0, 3} {
		dir := t.TempDir()
		l, err := OpenDurableLog(key, dir, checkpointedConfig(shards))
		if err != nil {
			t.Fatal(err)
		}
		for at := 0; at < len(entries); at += 700 {
			if _, err := l.AppendBatch(entries[at:min(at+700, len(entries))]); err != nil {
				t.Fatal(err)
			}
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		mark := l.store.ckpt.Load()
		segments := 0
		for _, segs := range l.store.coldSegments(mark.counts) {
			for _, sg := range segs {
				if sg.offs == nil {
					t.Fatalf("shards=%d: cold segment %s was not indexed as it was framed", shards, sg.name())
				}
				read := coldSeg{shard: sg.shard, ord: sg.ord}
				if err := read.index(dir, mark.size, nil); err != nil {
					t.Fatal(err)
				}
				if read.first != sg.first || read.loTile != sg.loTile || !slices.Equal(read.offs, sg.offs) {
					t.Fatalf("shards=%d: segment %s indexed as framed at first %d, tile %d, %v; read whole: %d, %d, %v",
						shards, sg.name(), sg.first, sg.loTile, sg.offs, read.first, read.loTile, read.offs)
				}
				segments++
			}
		}
		if segments <= 5*max(shards, 1) {
			t.Fatalf("shards=%d: %d cold segments, want more than one per stream and checkpoint", shards, segments)
		}
		for i := 0; i < len(entries); i += 97 {
			if e, err := l.Entry(uint64(i)); err != nil || !reflect.DeepEqual(e, entries[i]) {
				t.Fatalf("shards=%d: cold Entry(%d): %v", shards, i, err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestColdEntryRewriteRefused: a cold entry rewritten inside its cold
// segment, CRC fixed, is refused with ErrStateTampered by every read of
// its tile — entries, the row-0 tile, the serial lookup — on the log
// that wrote it and after a reopen, every time: the tile is never
// served, read or cached. Other cold tiles still read.
func TestColdEntryRewriteRefused(t *testing.T) {
	for _, reopen := range []bool{false, true} {
		name := "running"
		if reopen {
			name = "reopened"
		}
		t.Run(name, func(t *testing.T) {
			key := testSigner(t)
			dir := t.TempDir()
			cfg := checkpointedConfig(2)
			entries := serialEntries(3200)
			l, err := OpenDurableLog(key, dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, entries[:3000])
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, entries[3000:])
			// Tile 1 is evicted and not among the newest tiles the
			// checkpoint seeded the LRU with.
			const victim = 300
			serial := entries[259].Serial
			rewriteColdRecord(t, dir, checkpointCounts(t, l), victim, func(e []byte) { e[9] ^= 0x01 })
			if reopen {
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if l, err = OpenDurableLog(key, dir, cfg); err != nil {
					t.Fatal(err)
				}
			}
			defer l.Close()

			reads, hits := mColdTileReads.Value(), mColdTileHits.Value()
			for range 2 {
				if _, err := l.Entry(victim); !errors.Is(err, ErrStateTampered) {
					t.Fatalf("Entry(%d) over a rewritten record: %v, want ErrStateTampered", victim, err)
				}
				if _, err := l.Entries(TileWidth, 3); !errors.Is(err, ErrStateTampered) {
					t.Fatalf("Entries in the rewritten tile: %v, want ErrStateTampered", err)
				}
				if _, err := l.Tile(0, 1, TileWidth); !errors.Is(err, ErrStateTampered) {
					t.Fatalf("Tile(0, 1) over a rewritten record: %v, want ErrStateTampered", err)
				}
				if _, err := logProofs(l).ProveSerial(serial); !errors.Is(err, ErrStateTampered) {
					t.Fatalf("proof of serial %s in the rewritten tile: %v, want ErrStateTampered", serial, err)
				}
			}
			if got := mColdTileReads.Value() - reads; got != 0 {
				t.Fatalf("%d cold tile reads completed over the rewritten tile", got)
			}
			if got := mColdTileHits.Value() - hits; got != 0 {
				t.Fatalf("the rewritten tile was served %d times from the LRU", got)
			}
			if e, err := l.Entry(5); err != nil || !reflect.DeepEqual(e, entries[5]) {
				t.Fatalf("Entry(5) in an intact cold tile: %v", err)
			}
		})
	}
}

// TestShardStreamColdOutage: a shard-stream slice whose cold segments
// went missing after the shard index was built answers a 500 no cache
// may keep, like every other cold read over HTTP — an outage, not a
// bad request — while a shard the log does not stream stays a 400.
func TestShardStreamColdOutage(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	cfg := checkpointedConfig(2)
	l, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, serialEntries(1200))
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cold := segmentsBelow(t, dir, checkpointCounts(t, l))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.EnableShardStreams(2); err != nil {
		t.Fatal(err)
	}
	for _, name := range cold {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(Handler(re))
	defer srv.Close()
	for _, tc := range []struct {
		query  string
		status int
	}{
		{"?shard=0&start=0&count=5", http.StatusInternalServerError},
		{"?shard=7&start=0&count=5", http.StatusBadRequest},
	} {
		resp, err := http.Get(srv.URL + pathShard + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("GET %s%s: %d, want %d", pathShard, tc.query, resp.StatusCode, tc.status)
		}
		if cc := resp.Header.Get("Cache-Control"); tc.status >= 500 && cc != cacheNoCache {
			t.Fatalf("GET %s%s: failed cold read cached as %q", pathShard, tc.query, cc)
		}
	}
}

// rowsSection returns the offset and length of the rows section of a
// checkpoint file: the last section before the CRC.
func rowsSection(t *testing.T, data []byte) (int, int) {
	t.Helper()
	body, err := openEnvelope(data, ckptMagic)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(body)
	r.Bytes32(wire.Unbounded)
	r.Bytes32(wire.Unbounded)
	r.Bytes32(wire.Unbounded)
	rows := r.Bytes32(wire.Unbounded)
	if err := r.Done(); err != nil || len(rows) == 0 {
		t.Fatalf("checkpoint rows section: %v (%d bytes)", err, len(rows))
	}
	return len(data) - 4 - len(rows), len(rows)
}

// TestCheckpointRowsDamageRefused: the tree rows a checkpoint persists
// are refused at open, before any tree is built from them. A flipped
// bit is damage, refused by the file's CRC; a rewrite with the CRC
// fixed differs from the digest the checkpoint signed and is refused
// with ErrStateTampered. Neither refused open changes a file or reads a
// cold tile.
func TestCheckpointRowsDamageRefused(t *testing.T) {
	key := testSigner(t)
	entries := mixedEntries(1400)
	store := func(t *testing.T) string {
		dir := t.TempDir()
		l, err := OpenDurableLog(key, dir, checkpointedConfig(0))
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, entries[:1200])
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, entries[1200:])
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	flipRow := func(t *testing.T, dir string, fixCRC bool) {
		path := filepath.Join(dir, checkpointFileName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		at, _ := rowsSection(t, data)
		data[at] ^= 0x80 // row 1, node 0
		if fixCRC {
			binary.BigEndian.PutUint32(data[len(data)-4:], crc32.Checksum(data[:len(data)-4], crcTable))
		}
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("damaged", func(t *testing.T) {
		dir := store(t)
		flipRow(t, dir, false)
		if _, err := OpenDurableLog(key, dir, checkpointedConfig(0)); !errors.Is(err, ErrStateCorrupt) {
			t.Fatalf("damaged rows section: got %v, want ErrStateCorrupt", err)
		}
	})
	t.Run("rewritten", func(t *testing.T) {
		dir := store(t)
		flipRow(t, dir, true)
		before := snapshotDir(t, dir)
		reads := mColdTileReads.Value()
		if _, err := OpenDurableLog(key, dir, checkpointedConfig(0)); !errors.Is(err, ErrStateTampered) {
			t.Fatalf("rewritten rows section: got %v, want ErrStateTampered", err)
		}
		if got := mColdTileReads.Value() - reads; got != 0 {
			t.Fatalf("%d cold tiles read against rewritten rows", got)
		}
		if after := snapshotDir(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatal("refused open changed the store")
		}
		// The checkpoint refuses them itself, not only the anchors' root
		// comparison: a node under a complete tile of its row folds into
		// no root an anchor compares.
		if _, err := loadCheckpoint(dir, &key.PublicKey); !errors.Is(err, ErrStateTampered) {
			t.Fatalf("loading rewritten rows: got %v, want ErrStateTampered", err)
		}
	})
}

// signedContent returns what a checkpoint file says apart from its
// signature (ECDSA signatures are randomized): header, serial snapshot
// and rows.
func signedContent(t *testing.T, dir string) []byte {
	t.Helper()
	hdr, snap, rows := checkpointSections(t, dir)
	return append(append(append([]byte(nil), hdr...), snap...), rows...)
}

// TestCheckpointBytesDeterministic: one log state checkpoints to one
// byte string, whatever order its serial maps iterate in and however
// it got there — in one batch, in small batches over two checkpoints,
// or checkpointed, reopened and checkpointed again.
func TestCheckpointBytesDeterministic(t *testing.T) {
	key := testSigner(t)
	entries := mixedEntries(900)
	cfg := checkpointedConfig(2)
	var want []byte
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, dir string)
	}{
		{"one batch", func(t *testing.T, dir string) {
			l, err := OpenDurableLog(key, dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if _, err := l.AppendBatch(entries); err != nil {
				t.Fatal(err)
			}
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}},
		{"two checkpoints", func(t *testing.T, dir string) {
			l, err := OpenDurableLog(key, dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			appendAll(t, l, entries[:300])
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, entries[300:])
			for range 2 {
				if err := l.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"reopened", func(t *testing.T, dir string) {
			l, err := OpenDurableLog(key, dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, entries[:600])
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, entries[600:])
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenDurableLog(key, dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if err := re.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(t, dir)
			got := signedContent(t, dir)
			if want == nil {
				want = got
			} else if string(got) != string(want) {
				t.Fatal("checkpoint of the same log state differs byte for byte")
			}
		})
	}
}

// TestColdPathAtScale drives a 2^20-entry log of serial-carrying
// entries from eight hosts over four streams. The running log sheds its history at a
// checkpoint: no arena chunk and no row-0 chunk below it stays resident,
// and the tree holds the chunks of its rows above row 0 and one tile
// interior per row, 0.156 bytes of hashes per entry; its newest evicted
// tiles are read from the cold-tile LRU, not the disk. After a 100-entry
// suffix and a reopen, the first proof of the newest entry reads no cold
// tile, a cold entry's proof reads exactly one, and the live heap after
// 100 random cold proofs stays within the post-open heap plus the
// cold-tile LRU's bound, the segment offset indexes those reads built
// (8 bytes per tile per stream) and 64 KiB for the proof source's
// one-tile cache and the LRU's bookkeeping.
func TestColdPathAtScale(t *testing.T) {
	n := 1 << 20
	if raceEnabled {
		n = 1 << 14
	}
	key := testSigner(t)
	dir := t.TempDir()
	cfg := StoreConfig{Shards: 4, NoSync: true}
	entries := serialEntries(n + 100)
	l, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 4096 {
		if _, err := l.AppendBatch(entries[i : i+4096]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	arena := 0
	for _, ch := range l.entries.chunks {
		arena += cap(ch)
	}
	if arena != 0 {
		t.Fatalf("the arena keeps %d bytes below the checkpoint", arena)
	}
	if c := l.tree.residentFrom(); c != uint64(n) {
		t.Fatalf("row 0 resident from %d, want the checkpoint at %d", c, n)
	}
	// The chunks of the rows above row 0 and one tile interior per
	// row: 0.156 bytes per entry at 2^20.
	bound := uint64(rowCount(uint64(n))*edgeSize) * uint64(len(Hash{}))
	for k := TileHeight; n>>k > 0; k += TileHeight {
		bound += (uint64(n>>k) + TileWidth - 1) / TileWidth * TileWidth * uint64(len(Hash{}))
	}
	if got := uint64(l.tree.residentBytes()); got > bound {
		t.Fatalf("tree keeps %d bytes of hashes after the checkpoint (%.3f per entry), want ≤ %d",
			got, float64(got)/float64(n), bound)
	}
	// The newest tiles the checkpoint evicted went straight into the
	// cold-tile LRU: reading them touches no disk.
	reads, hits := mColdTileReads.Value(), mColdTileHits.Value()
	for i := n - coldSeedTiles*TileWidth; i < n; i += TileWidth / 2 {
		if e, err := l.Entry(uint64(i)); err != nil || !reflect.DeepEqual(e, entries[i]) {
			t.Fatalf("Entry(%d) just below the checkpoint: %v", i, err)
		}
	}
	if r, h := mColdTileReads.Value()-reads, mColdTileHits.Value()-hits; r != 0 || h != 2*coldSeedTiles {
		t.Fatalf("reads of the newest evicted tiles: %d from disk, %d from the LRU, want 0 and %d", r, h, 2*coldSeedTiles)
	}
	appendAll(t, l, entries[n:])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var cold []string
	newest := ""
	for i, e := range entries {
		if e.Serial != "" {
			if i < n {
				cold = append(cold, e.Serial)
			}
			newest = e.Serial
		}
	}

	entries, l = nil, nil // the heap figures are the reopened log's
	heapBefore := liveHeap()

	re, err := OpenDurableLog(key, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	src := NewLogTileProofSource(re, 1)
	heapOpen := liveHeap()

	prove := func(serial string) {
		t.Helper()
		pb, err := src.ProveSerial(serial)
		if err != nil {
			t.Fatalf("proof of %s: %v", serial, err)
		}
		if err := pb.Verify(&key.PublicKey); err != nil {
			t.Fatalf("proof of %s: %v", serial, err)
		}
	}
	reads = mColdTileReads.Value()
	start := time.Now()
	prove(newest)
	took := time.Since(start)
	if !raceEnabled && took > 50*time.Millisecond {
		t.Fatalf("first proof of the newest entry after reopen took %v", took)
	}
	if got := mColdTileReads.Value() - reads; got != 0 {
		t.Fatalf("first proof of the newest entry read %d cold tiles", got)
	}
	reads = mColdTileReads.Value()
	prove(cold[len(cold)/2])
	if got := mColdTileReads.Value() - reads; got != 1 {
		t.Fatalf("a cold entry's proof read %d cold tiles, want 1", got)
	}
	rng := mrand.New(mrand.NewSource(20))
	for range 100 {
		prove(cold[rng.Intn(len(cold))])
	}
	heap := liveHeap()
	t.Logf("%d entries: newest proof %v, heap before open %d KiB, post-open %d KiB, after 100 cold proofs %d KiB",
		n, took, heapBefore>>10, heapOpen>>10, heap>>10)
	index := uint64(0)
	for _, segs := range re.store.coldSegments(re.store.ckpt.Load().counts) {
		for _, sg := range segs {
			index += uint64(cap(sg.offs)) * 8
		}
	}
	if heap > heapOpen+coldCacheBytes+index+64<<10 {
		t.Fatalf("live heap %d KiB after 100 cold proofs, post-open %d KiB, LRU bound %d KiB, offset indexes %d KiB",
			heap>>10, heapOpen>>10, coldCacheBytes>>10, index>>10)
	}
	runtime.KeepAlive(cold)
}

// TestColdReadsRaceCheckpoints reads entries, row-0 tiles and serial
// proofs from several goroutines while a writer commits and checkpoints
// underneath them, so reads race evictions, the LRU's seeding and the
// reuse of evicted chunks: every read must return the committed bytes.
// It then reopens the log, again and again, at a size that is not a
// multiple of TileWidth: the tile holding the reopened checkpoint is
// partial under its mark and checked against row-0 hashes, which the
// first checkpoint past the tile's end evicts while readers fetch it.
func TestColdReadsRaceCheckpoints(t *testing.T) {
	key := testSigner(t)
	entries := serialEntries(9000)
	ref, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, checkpointedConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { l.Close() }()
	if _, err := l.AppendBatch(entries[:TileWidth]); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := mrand.New(mrand.NewSource(int64(r)))
			src := NewLogTileProofSource(l, 4)
			for {
				select {
				case <-done:
					return
				default:
				}
				i := uint64(rng.Int63n(int64(l.Size())))
				if e, err := l.Entry(i); err != nil || !reflect.DeepEqual(e, entries[i]) {
					t.Errorf("Entry(%d) racing checkpoints: %v", i, err)
					return
				}
				k := i / TileWidth
				if (k+1)*TileWidth <= l.Size() {
					got, err := l.Tile(0, k, TileWidth)
					want, _ := ref.Tile(0, k, TileWidth)
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Errorf("Tile(0, %d) racing checkpoints: %v", k, err)
						return
					}
				}
				if j := i | 3; j < l.Size() {
					pb, err := src.ProveSerial(entries[j].Serial)
					if err == nil {
						err = pb.Verify(&key.PublicKey)
					}
					if err != nil {
						t.Errorf("proof of entry %d racing checkpoints: %v", j, err)
						return
					}
				}
			}
		}()
	}
	for at := TileWidth; at < 4000; at += 100 {
		if _, err := l.AppendBatch(entries[at:min(at+100, 4000)]); err != nil {
			t.Fatal(err)
		}
		if at%500 == 56 {
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()

	for size := uint64(4000); size+TileWidth+50 <= uint64(len(entries)) && !t.Failed(); {
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if l, err = OpenDurableLog(key, dir, checkpointedConfig(2)); err != nil {
			t.Fatal(err)
		}
		// Commit past the end of the tile holding the reopened
		// checkpoint, then checkpoint there while readers fetch that tile
		// for the first time.
		lo := size &^ (TileWidth - 1)
		next := lo + TileWidth + 37
		if _, err := l.AppendBatch(entries[size:next]); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		for r := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := lo + uint64(r); ; i = lo + (i-lo+7)%(size-lo) {
					if e, err := l.Entry(i); err != nil || !reflect.DeepEqual(e, entries[i]) {
						t.Errorf("Entry(%d) of the tile holding a checkpoint reopened at %d: %v", i, size, err)
						return
					}
					select {
					case <-done:
						return
					default:
					}
				}
			}()
		}
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// A reader holding the read lock leaves the eviction to the next
		// commit.
		if _, err := l.AppendBatch(entries[next : next+13]); err != nil {
			t.Fatal(err)
		}
		close(done)
		wg.Wait()
		size = next + 13
	}
}

// liveHeap returns the heap in use after two collections (the second
// frees what finalizers released in the first).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
