package translog

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// Cold reads. The entries a checkpoint covers stay in the WAL segments
// that framed them: Log.Checkpoint rolls every stream as it snapshots the
// per-stream record counts, so no segment straddles a checkpoint, and
// the segments starting below their stream's count hold only
// checkpointed records, are closed for append and are never rewritten.
// Recovery skips them, and the checkpoint evicts their entries and
// row-0 hashes from memory. A read below the arena's base fetches the
// one 256-entry tile it needs from them, checks every record's CRC,
// hashes the records and folds them to the tile root, which must be the
// resident row-1 node — or, for the tile holding a reopened checkpoint,
// the resident row-0 hashes — before any of it is served. A segment is
// located by the global index of its first record, and indexed by where
// each tile's records start: as its records are framed, when this store
// wrote it, or by reading it whole once, when the open found it. A tile
// read is then one pread per stream. The verified tiles are kept in a
// small LRU, which a checkpoint seeds with the newest tiles it evicts,
// so the recent tiles that hot proofs read just after a checkpoint do
// not go back to disk.

// coldCacheBytes bounds the bytes of the verified cold tiles a log
// keeps.
const coldCacheBytes = 2 << 20

// coldReader reads the tiles of entries below the newest checkpoint
// back from the cold WAL segments.
type coldReader struct {
	store *Store
	tree  *tree // what every tile is checked against

	mu sync.Mutex
	// cache holds the verified tiles by tile index; order runs from the
	// most recently used, and bytes is their size.
	cache map[uint64]*list.Element
	order *list.List
	bytes int
}

func newColdReader(s *Store, t *tree) *coldReader {
	return &coldReader{store: s, tree: t, cache: map[uint64]*list.Element{}, order: list.New()}
}

// coldTile is one verified tile of cold entries: entries [index·TileWidth,
// end), in the entry arena's chunk layout, with their leaf hashes.
type coldTile struct {
	index, end uint64
	chunk      []byte
	hashes     []Hash
}

// payload returns the canonical encoding of entry i of the tile.
func (ct *coldTile) payload(i uint64) []byte { return chunkPayload(ct.chunk, int(i%TileWidth)) }

func (ct *coldTile) size() int { return cap(ct.chunk) + len(ct.hashes)*len(Hash{}) }

// tile returns tile k verified, covering every entry of it below the
// newest checkpoint: from the LRU, or read from the cold segments.
func (c *coldReader) tile(k uint64) (*coldTile, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The mark is read under c.mu, which Log.evict takes (to seed the
	// LRU) after the newer mark is stored and before any row-0 chunk
	// goes. A read that loaded the older mark so finishes before the
	// chunks it checks a partial tile against are evicted, and a later
	// one finds the tile full under the newer mark, checked against its
	// resident row-1 node.
	mark := c.store.ckpt.Load()
	lo := k * TileWidth
	end := min(lo+TileWidth, mark.size)
	if end <= lo {
		return nil, fmt.Errorf("translog: tile %d lies past the checkpoint at %d", k, mark.size)
	}
	if el, ok := c.cache[k]; ok && el.Value.(*coldTile).end >= end {
		c.order.MoveToFront(el)
		mColdTileHits.Inc()
		return el.Value.(*coldTile), nil
	}
	start := time.Now()
	ct, err := c.read(k, end, mark)
	if err != nil {
		return nil, err
	}
	if err := c.verify(ct); err != nil {
		return nil, err
	}
	c.put(ct)
	mColdTileReads.Inc()
	mColdTileReadSeconds.Observe(time.Since(start))
	return ct, nil
}

// read gathers the records of entries [k·TileWidth, end) from every
// stream's cold segments and hashes them.
func (c *coldReader) read(k, end uint64, mark *ckptMark) (*coldTile, error) {
	lo := k * TileWidth
	slots := make([][]byte, end-lo)
	for _, segs := range c.store.coldSegments(mark.counts) {
		if err := readStreamTile(c.store.dir, segs, lo, end, mark.size, slots); err != nil {
			return nil, err
		}
	}
	size := arenaTable
	for i, p := range slots {
		if p == nil {
			return nil, fmt.Errorf("%w: cold entry %d is missing from the WAL segments", ErrStateCorrupt, lo+uint64(i))
		}
		size += len(p)
	}
	// Grown rather than made, the chunk's capacity is its allocation,
	// which the LRU bound counts.
	ct := &coldTile{index: k, end: end, chunk: slices.Grow([]byte(nil), size)[:arenaTable], hashes: make([]Hash, len(slots))}
	d := sha256.New()
	for i, p := range slots {
		ct.chunk = chunkAppend(ct.chunk, i, p)
		leafHashInto(d, &ct.hashes[i], p)
	}
	return ct, nil
}

// verify checks a tile read from disk against the tree: a full tile
// folds to its resident row-1 node, the tile holding a reopened
// checkpoint matches its resident row-0 hashes.
func (c *coldReader) verify(ct *coldTile) error {
	lo := ct.index * TileWidth
	var ok bool
	if ct.end == lo+TileWidth {
		want, err := c.tree.nodes(TileHeight, ct.index, ct.index+1)
		if err != nil {
			return err
		}
		ok = tileRoot((*[TileWidth]Hash)(ct.hashes)) == want[0]
	} else {
		want, err := c.tree.nodes(0, lo, ct.end)
		if err != nil {
			return err
		}
		ok = slices.Equal(ct.hashes, want)
	}
	if !ok {
		return fmt.Errorf("%w: cold entries [%d, %d) hash to a different tile than the tree holds", ErrStateTampered, lo, ct.end)
	}
	return nil
}

// seed adds tiles a checkpoint just evicted to the LRU.
func (c *coldReader) seed(tiles []*coldTile) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ct := range tiles {
		c.put(ct)
	}
}

// put adds a verified tile to the LRU, replacing a shorter copy, and
// evicts the least recently used tiles past the byte bound.
func (c *coldReader) put(ct *coldTile) {
	if el, ok := c.cache[ct.index]; ok {
		c.bytes -= el.Value.(*coldTile).size()
		c.order.Remove(el)
	}
	c.cache[ct.index] = c.order.PushFront(ct)
	c.bytes += ct.size()
	for c.bytes > coldCacheBytes && c.order.Len() > 1 {
		old := c.order.Remove(c.order.Back()).(*coldTile)
		delete(c.cache, old.index)
		c.bytes -= old.size()
	}
}

// scan hands fn every cold record below end, stream by stream, reading
// each cold segment whole (and indexing it on the way). Every index in
// [0, end) must turn up: a shorter prefix is ErrStateCorrupt. The
// records are checksummed but not checked against the tree; whatever is
// later served of them comes through a verified tile.
func (c *coldReader) scan(end uint64, fn func(index uint64, entry []byte) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	mark := c.store.ckpt.Load()
	seen := uint64(0)
	for _, segs := range c.store.coldSegments(mark.counts) {
		for _, sg := range segs {
			err := sg.index(c.store.dir, mark.size, func(index uint64, entry []byte) error {
				if index >= end {
					return nil
				}
				seen++
				return fn(index, entry)
			})
			if err != nil {
				return err
			}
		}
	}
	if seen != end {
		return fmt.Errorf("%w: %d of %d cold entries in the WAL segments", ErrStateCorrupt, seen, end)
	}
	return nil
}

// readStreamTile files the records of one stream with global indices in
// [lo, end) into slots, from the stream's cold segments segs, whose
// records run in increasing global index. limit is the checkpoint size,
// past which no cold record lies.
func readStreamTile(dir string, segs []*coldSeg, lo, end, limit uint64, slots [][]byte) error {
	// Start at the last segment whose first record is at or below lo.
	var probeErr error
	i := sort.Search(len(segs), func(j int) bool {
		first, err := segs[j].firstIndex(dir)
		if err != nil {
			probeErr = err
			return true
		}
		return first > lo
	})
	if probeErr != nil {
		return probeErr
	}
	for i = max(i-1, 0); i < len(segs); i++ {
		first, err := segs[i].firstIndex(dir)
		if err != nil {
			return err
		}
		if first >= end {
			break
		}
		if err := segs[i].readTile(dir, lo, end, limit, slots); err != nil {
			return err
		}
	}
	return nil
}

// coldSeg is one WAL segment and what has been learned of it for cold
// reads.
type coldSeg struct {
	shard int
	ord   uint64 // stream ordinal of its first record (its name's)
	// first is the global index of the segment's first record, once
	// probed.
	first  uint64
	probed bool
	// offs[t] is the byte offset of the segment's first record of tile
	// loTile+t or later; its last element is the segment's length. Nil
	// until the segment is indexed.
	loTile uint64
	offs   []int64
}

func (sg *coldSeg) name() string { return shardSegmentName(sg.shard, sg.ord) }

// corrupt wraps a cold segment's read failure: a cold segment is never
// appended to, so a missing, short or undecodable one is damage.
func (sg *coldSeg) corrupt(err error) error {
	if errors.Is(err, errTornTail) {
		err = errors.New("ends mid-record")
	}
	if errors.Is(err, ErrStateCorrupt) {
		return fmt.Errorf("cold segment %s: %w", sg.name(), err)
	}
	return fmt.Errorf("%w: cold segment %s: %w", ErrStateCorrupt, sg.name(), err)
}

// firstIndex returns the global index of the segment's first record,
// reading just its frame header and index prefix the first time.
func (sg *coldSeg) firstIndex(dir string) (uint64, error) {
	if sg.probed {
		return sg.first, nil
	}
	f, err := os.Open(filepath.Join(dir, sg.name()))
	if err != nil {
		return 0, sg.corrupt(err)
	}
	defer f.Close()
	var head [recordHeaderLen + shardIndexLen]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return 0, sg.corrupt(err)
	}
	sg.first, sg.probed = binary.BigEndian.Uint64(head[recordHeaderLen:]), true
	return sg.first, nil
}

// note files the record with global index index at byte offset off;
// records arrive in increasing global index order.
func (sg *coldSeg) note(index uint64, off int64) {
	tile := index / TileWidth
	if len(sg.offs) == 0 {
		sg.first, sg.probed, sg.loTile = index, true, tile
	}
	for uint64(len(sg.offs)) <= tile-sg.loTile {
		sg.offs = append(sg.offs, off)
	}
}

// index reads the segment whole, checksums every record, and records
// where each tile's records start; fn, when non-nil, sees every record.
// A record at or past limit, the checkpoint size, cannot be cold.
func (sg *coldSeg) index(dir string, limit uint64, fn func(index uint64, entry []byte) error) error {
	data, err := os.ReadFile(filepath.Join(dir, sg.name()))
	if err != nil {
		return sg.corrupt(err)
	}
	built := coldSeg{shard: sg.shard, ord: sg.ord}
	off := 0
	clean, err := scanSegment(data, func(payload []byte) error {
		index, entry, err := splitIndexedRecord(payload)
		if err != nil {
			return err
		}
		if index >= limit || len(built.offs) > 0 && index/TileWidth < built.loTile+uint64(len(built.offs))-1 {
			return fmt.Errorf("%w: record with global index %d out of order", ErrStateCorrupt, index)
		}
		built.note(index, int64(off))
		off += recordHeaderLen + len(payload)
		if fn != nil {
			return fn(index, entry)
		}
		return nil
	})
	if err == nil && len(built.offs) == 0 {
		err = errors.New("holds no record")
	}
	if err != nil {
		return sg.corrupt(err)
	}
	sg.first, sg.probed, sg.loTile, sg.offs = built.first, true, built.loTile, append(built.offs, int64(clean))
	return nil
}

// readTile reads the segment's records of the tile holding lo — one
// pread of the byte range the index names — checksums them and files
// each into slots by its global index, which must lie in [lo, end).
func (sg *coldSeg) readTile(dir string, lo, end, limit uint64, slots [][]byte) error {
	if sg.offs == nil {
		if err := sg.index(dir, limit, nil); err != nil {
			return err
		}
	}
	at := func(tile uint64) int64 {
		return sg.offs[min(tile-min(tile, sg.loTile), uint64(len(sg.offs)-1))]
	}
	a, b := at(lo/TileWidth), at(lo/TileWidth+1)
	if a == b {
		return nil
	}
	buf := make([]byte, b-a)
	f, err := os.Open(filepath.Join(dir, sg.name()))
	if err != nil {
		return sg.corrupt(err)
	}
	defer f.Close()
	if _, err := f.ReadAt(buf, a); err != nil {
		return sg.corrupt(err)
	}
	_, err = scanSegment(buf, func(payload []byte) error {
		index, entry, err := splitIndexedRecord(payload)
		switch {
		case err != nil:
			return err
		case index < lo || index >= end || slots[index-lo] != nil:
			return fmt.Errorf("%w: record with global index %d misplaced", ErrStateCorrupt, index)
		}
		slots[index-lo] = entry
		return nil
	})
	if err != nil {
		return sg.corrupt(err)
	}
	return nil
}
