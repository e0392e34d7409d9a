package translog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"vnfguard/internal/statedir"
	"vnfguard/internal/wire"
)

// Tile-based proof serving (the CT "static log" design): the tree's
// interior levels are cut into fixed-width tiles of 2^TileHeight node
// hashes. A full tile is immutable forever — the tree is append-only,
// so once the 256 nodes a tile names exist, no commit can ever change
// them — which makes (level, index) a content address: the same
// coordinates always serve the same bytes, cacheable for a year by any
// HTTP front end or client LRU. Proofs then become client-assembled
// from cacheable tile fetches, and the live tree only answers for the
// growing right edge (partial tiles) — proof traffic stops riding the
// structure the sequencer commits into.
//
// Tile (L, K) holds the node hashes at tree level L·TileHeight with
// global indices [K·TileWidth, (K+1)·TileWidth). It is full when the
// tree has grown all TileWidth of them; the right edge of each level is
// a partial tile, addressed with its explicit width so every (L, K, w)
// URL still names immutable content (append-only levels never rewrite
// a node), just short-lived in caches because clients soon want wider.
//
// On a durable log, full tiles are persisted into <dir>/tiles/ by a
// background publisher that runs off the commit path (like the
// checkpoint writer), so serving a frozen-range tile is one file read:
// no tree access, no hashing, no log lock — pinned by
// TestTileServingTakesNoCommitLockAndHashesNothing and the lockscope
// lint rule. The files are a rebuildable cache, not trust state (a
// served tile is only believed through the proofs it assembles into,
// verified against a signed head), so they are written without fsync
// and a damaged file is simply rebuilt from the tree or the hydrated
// cold WAL segments.

const (
	// TileHeight is the number of tree levels one tile level spans.
	TileHeight = 8 //lint:allow unusedexport README-documented tile geometry; external auditors need it to address tiles
	// TileWidth is the number of node hashes in a full tile.
	TileWidth = 1 << TileHeight //lint:allow unusedexport README-documented tile geometry; external auditors need it to address tiles
	// maxTileLevel bounds the tile-level coordinate: level 7 tiles cover
	// 2^56-leaf subtrees, enough for any tree a uint64 size can name.
	maxTileLevel = 7
)

// ErrTileRange reports a tile request beyond the committed tree (or with
// impossible coordinates). The HTTP layer maps it to 404 so front caches
// never memorise a right edge that does not exist yet.
var ErrTileRange = errors.New("translog: tile out of committed range") //lint:allow unusedexport tile-request error contract of exported Log/Client.Tile; errors.Is target

// Tile is one subtree tile: Hashes are the node hashes at tree level
// Level·TileHeight, global indices [Index·TileWidth, Index·TileWidth +
// len(Hashes)).
type Tile struct {
	Level  uint64
	Index  uint64
	Hashes []Hash
}

// Width returns the number of hashes the tile carries (TileWidth for a
// full tile).
func (t *Tile) Width() int { return len(t.Hashes) }

// tileMagic identifies the tile wire/file framing (and its version),
// following the checkpoint.bin / .arc conventions.
var tileMagic = [8]byte{'V', 'N', 'F', 'G', 'T', 'I', 'L', '1'}

// encodeTile renders the checksummed framing: magic ‖ level(8) ‖
// index(8) ‖ width(4) ‖ hashes ‖ CRC-32C. The encoding is fully
// deterministic — same tree, same coordinates, byte-identical output —
// which is what content-addressing and the immutable cache headers
// depend on (pinned by FuzzTileDeterminism).
func encodeTile(t *Tile) []byte {
	buf := append(make([]byte, 0, len(tileMagic)+20+len(t.Hashes)*len(Hash{})+4), tileMagic[:]...)
	buf = wire.AppendU64(wire.AppendU64(buf, t.Level), t.Index)
	buf = wire.AppendU32(buf, uint32(len(t.Hashes)))
	for _, h := range t.Hashes {
		buf = append(buf, h[:]...)
	}
	return sealEnvelope(buf)
}

// ErrMalformedTile is wrapped by every decodeTile refusal: bad framing,
// a checksum mismatch or a width that disagrees with the payload. A
// tile is only believed through the proofs it assembles into, so this
// is transport damage, never evidence against the log.
var ErrMalformedTile = errors.New("translog: malformed tile")

// decodeTile parses and checksum-verifies one encoded tile.
func decodeTile(data []byte) (*Tile, error) {
	body, err := openEnvelope(data, tileMagic)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformedTile, err)
	}
	r := wire.NewReader(body)
	t := &Tile{Level: r.U64(), Index: r.U64()}
	width := r.U32()
	hashes := r.Fixed(uint64(width) * uint64(len(Hash{})))
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: width %d disagrees with its payload: %w", ErrMalformedTile, width, err)
	}
	if width == 0 || width > TileWidth {
		return nil, fmt.Errorf("%w: width %d", ErrMalformedTile, width)
	}
	t.Hashes = make([]Hash, width)
	for i := range t.Hashes {
		copy(t.Hashes[i][:], hashes[i*len(Hash{}):])
	}
	return t, nil
}

// tileNodeCount returns how many nodes exist at tile level L for a tree
// of n leaves.
func tileNodeCount(n, level uint64) uint64 {
	return n >> (TileHeight * level)
}

// fullTileCount returns how many full tiles exist at tile level L for a
// tree of n leaves.
func fullTileCount(n, level uint64) uint64 {
	return n >> (TileHeight * (level + 1))
}

// Statedir tile cache. Tile files live under <dir>/tiles/ next to the
// WAL segments; the published watermark (the committed
// size the publisher has covered) rides in its own small file so a
// reopened log resumes publishing where it stopped instead of
// re-statting thousands of tiles.

const (
	tilesDirName     = "tiles"
	tileMarkFileName = "published"
)

// tileFileName renders the cache file name for tile (level, index).
func tileFileName(level, index uint64) string {
	return fmt.Sprintf("tile-%d-%020d.til", level, index)
}

func (s *Store) tilePath(level, index uint64) string {
	return filepath.Join(s.dir, tilesDirName, tileFileName(level, index))
}

// readTile loads one full tile from the cache; ok=false on any miss or
// damage (the cache is rebuildable, so a bad file is just a miss).
func (s *Store) readTile(level, index uint64) (*Tile, bool) {
	data, err := os.ReadFile(s.tilePath(level, index))
	if err != nil {
		return nil, false
	}
	t, err := decodeTile(data)
	if err != nil || t.Level != level || t.Index != index || t.Width() != TileWidth {
		return nil, false
	}
	return t, true
}

// writeTile persists one full tile. No fsync: the tiles are a cache
// rebuilt from the tree (or the hydrated cold segments) on demand, so
// durability buys nothing here and the publisher stays cheap; the
// atomic rename still guarantees readers never see a torn file.
func (s *Store) writeTile(t *Tile) error {
	dir := filepath.Join(s.dir, tilesDirName)
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return fmt.Errorf("translog: creating tiles dir: %w", err)
	}
	//lint:allow atomicwrite rebuildable cache: rename atomicity wanted, fsync durability not
	return statedir.ReplaceFile(filepath.Join(dir, tileFileName(t.Level, t.Index)), encodeTile(t), false)
}

// loadTileMark reads the published watermark (0 when none).
func (s *Store) loadTileMark() uint64 {
	data, err := os.ReadFile(filepath.Join(s.dir, tilesDirName, tileMarkFileName))
	if err != nil {
		return 0
	}
	n, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// storeTileMark persists the published watermark (best effort, no
// fsync — a stale mark only costs republishing byte-identical tiles).
func (s *Store) storeTileMark(n uint64) {
	dir := filepath.Join(s.dir, tilesDirName)
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return
	}
	//lint:allow atomicwrite rebuildable cache watermark: rename atomicity wanted, fsync durability not
	_ = statedir.ReplaceFile(filepath.Join(dir, tileMarkFileName), []byte(strconv.FormatUint(n, 10)), false)
}

// Tile returns the tile at (level, index), carrying exactly width node
// hashes. Full-tile requests (width == TileWidth) on a durable log are
// served from the statedir tile cache first — one file read, no tree
// access, no hashing, and never the log's commit lock, so tile traffic
// cannot contend with a commit holding that lock across its WAL fsync.
// A miss (or any partial-tile request) extracts the hashes from the
// tree under the tree's own read lock — still zero hashing, every
// interior level is resident — hydrating the cold prefix from the cold
// WAL segments when the range sits below a checkpoint, and writes full
// tiles back through to the cache. Requests past the committed head
// return ErrTileRange.
func (l *Log) Tile(level, index uint64, width int) (*Tile, error) {
	if level > maxTileLevel || width <= 0 || width > TileWidth {
		return nil, fmt.Errorf("%w: level %d width %d", ErrTileRange, level, width)
	}
	full := width == TileWidth
	if full && l.store != nil {
		if t, ok := l.store.readTile(level, index); ok {
			mTileCacheHits.Inc()
			return t, nil
		}
		mTileCacheMisses.Inc()
	}
	// Bound the request by the committed head (an atomic, not the log
	// lock): the tree may momentarily hold nodes of a batch that is
	// still fsyncing and could yet roll back, and an immutable-cacheable
	// response must never leak those.
	lo := index * TileWidth
	hi := lo + uint64(width)
	if hi > tileNodeCount(l.committed.Load(), level) {
		return nil, fmt.Errorf("%w: tile (%d, %d) width %d", ErrTileRange, level, index, width)
	}
	var hashes []Hash
	err := l.withHydration(func() error {
		var terr error
		hashes, terr = l.tree.nodes(int(level)*TileHeight, lo, hi)
		return terr
	})
	if err != nil {
		return nil, err
	}
	t := &Tile{Level: level, Index: index, Hashes: hashes}
	if full && l.store != nil && l.tileMu.TryLock() {
		// Write-through so the next request is a file read. Best effort:
		// a failed cache write must not fail the tile it caches, and
		// while the publisher runs the request skips the write rather
		// than wait — publication covers every full tile in turn.
		if l.store.writeTile(t) == nil {
			mTilesPublished.Inc()
		}
		l.tileMu.Unlock()
	}
	return t, nil
}

// tilesDue reports whether committing up to size completed at least one
// full level-0 tile the publisher has not covered.
func (l *Log) tilesDue(size uint64) bool {
	return fullTileCount(size, 0) > fullTileCount(l.tileMark.Load(), 0)
}

// publishTilesBG is the background publisher goroutine spawned by the
// commit path (at most one in flight, like the checkpoint writer). A
// commit that completes a tile while a run is in flight cannot start
// another, so the goroutine runs again until it has covered the head:
// otherwise the last commits before a Close would leave the watermark
// behind, and the next open would publish those tiles from a cold
// prefix it must first hydrate.
func (l *Log) publishTilesBG() {
	defer l.tileWG.Done()
	for {
		err := l.PublishTiles()
		l.tileBusy.Store(false)
		if err != nil || !l.tilesDue(l.committed.Load()) || !l.tileBusy.CompareAndSwap(false, true) {
			return
		}
	}
}

// PublishTiles persists every full tile the committed tree supports
// that the publisher has not yet covered, then advances the durable
// watermark. The automatic path runs this in the background after
// commits complete a tile; the method is exposed for operator tooling
// and deterministic tests. Runs, background ones included, take turns,
// and the watermark never moves back. Best-effort by design: on error
// the tiles remain servable from the tree and the next trigger retries.
func (l *Log) PublishTiles() error {
	if l.store == nil {
		return fmt.Errorf("translog: publishing tiles of an in-memory log")
	}
	l.tileMu.Lock()
	defer l.tileMu.Unlock()
	n := l.committed.Load()
	mark := l.tileMark.Load()
	if n <= mark {
		return nil // a run that finished first covered this head
	}
	for level := uint64(0); level <= maxTileLevel; level++ {
		want := fullTileCount(n, level)
		if want == 0 {
			break
		}
		for index := fullTileCount(mark, level); index < want; index++ {
			lo := index * TileWidth
			var hashes []Hash
			err := l.withHydration(func() error {
				var terr error
				hashes, terr = l.tree.nodes(int(level)*TileHeight, lo, lo+TileWidth)
				return terr
			})
			if err != nil {
				return err
			}
			if err := l.store.writeTile(&Tile{Level: level, Index: index, Hashes: hashes}); err != nil {
				return err
			}
			mTilesPublished.Inc()
		}
	}
	l.tileMark.Store(n)
	l.store.storeTileMark(n)
	mTileMark.Set(int64(n))
	return nil
}
