package translog

import (
	"errors"
	"fmt"
	"slices"

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
// Every tile is served from the resident tree under the tree's own
// read lock: no hashing and no log lock — pinned by
// TestTileServingTakesNoCommitLockAndHashesNothing and the lockscope
// lint rule. The one exception is a row-0 tile a checkpoint evicted: it
// is read back from the cold WAL segments and hashed to check it, still
// without the log lock. Caching full tiles is left to HTTP caches (immutable
// headers) and each client's TileAssembler LRU, as in C2SP tlog-tiles;
// the server keeps no copy on disk.

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

// tileMagic identifies the tile wire framing (and its version),
// following the checkpoint.bin convention.
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

// Tile returns the tile at (level, index), carrying exactly width node
// hashes, extracted from the tree under the tree's own read lock: zero
// hashing, because the tree stores exactly the tile rows, and never the
// log's commit lock, so tile traffic cannot contend with a commit
// holding that lock across its WAL fsync. A reopened tree's rows were
// checked against the checkpoint's signature at open, so they serve as
// a running tree's do. A row-0 tile a checkpoint evicted is read back
// from the cold WAL segments and checked against the resident row above
// (coldReader), as Entries and ShardStream read cold entries. Requests
// past the committed head return ErrTileRange.
func (l *Log) Tile(level, index uint64, width int) (*Tile, error) {
	if level > maxTileLevel || width <= 0 || width > TileWidth {
		return nil, fmt.Errorf("%w: level %d width %d", ErrTileRange, level, width)
	}
	// Bound the request by the committed head (an atomic, not the log
	// lock): the tree may momentarily hold nodes of a batch that is
	// still fsyncing and could yet roll back, and an immutable-cacheable
	// response must never leak those. An index past the level's last
	// tile is refused before it is multiplied, so it cannot wrap.
	n := tileNodeCount(l.committed.Load(), level)
	if index > n/TileWidth || index*TileWidth+uint64(width) > n {
		return nil, fmt.Errorf("%w: tile (%d, %d) width %d", ErrTileRange, level, index, width)
	}
	lo := index * TileWidth
	hi := lo + uint64(width)
	hashes, err := l.tree.nodes(int(level)*TileHeight, lo, hi)
	if errors.Is(err, errColdRange) && l.cold != nil {
		var ct *coldTile
		if ct, err = l.cold.tile(index); err == nil {
			hashes = slices.Clone(ct.hashes[:width])
		}
	}
	if err != nil {
		return nil, err
	}
	return &Tile{Level: level, Index: index, Hashes: hashes}, nil
}
