package translog

import (
	"container/list"
	"fmt"
	"sync"
)

// Client-side proof assembly: instead of asking the server to compute
// every audit path, an auditor fetches immutable tiles — each cacheable
// forever, by any HTTP front end and by the assembler's own LRU — and
// folds proofs locally with the RFC 6962 recursions (merkle.go,
// parameterized over a nodeFunc). The in-process log proves through the
// same assembler, over tiles cut from its resident tree. Tiles carry no
// authority: an assembled proof is only believed once it verifies
// against a signed tree head, so a cache, a CDN or a hostile mirror can
// serve tiles without joining the trust base — at worst a bad tile
// makes verification fail, never succeed wrongly.

// TileSource supplies Merkle tiles: the in-process *Log or the HTTP
// *Client both qualify, so the assembler can sit inside the
// Verification Manager or on a remote auditor with the same code.
type TileSource interface { //lint:allow unusedexport the assembler's pluggable fetch seam; external auditors implement it over mirrors/CDNs
	Tile(level, index uint64, width int) (*Tile, error)
}

// tileKey addresses one cached tile. Width participates because a
// partial tile's content is pinned by its explicit width (the level's
// right edge grows, but the named prefix never changes).
type tileKey struct {
	level, index uint64
	width        int
}

// cachedTile is one LRU entry: the tile's hashes expanded into every
// within-tile level, so a node lookup is an array read instead of a
// hash fold. lvl[r][j] is the root over tile hashes [j·2^r, (j+1)·2^r)
// — tree level L·TileHeight+r — computed once per cached tile; the ≤255
// interior hashes per tile amortise across every proof that touches it,
// which is what makes warm assembly beat a server round-trip by an
// order of magnitude.
type cachedTile struct {
	key tileKey
	lvl [][]Hash
}

// expandTile folds a tile's interior levels. Only complete pairs fold:
// a partial tile exposes exactly the complete subtrees its width
// covers, which is all the proof recursions ever ask for.
func expandTile(t *Tile) *cachedTile {
	ct := &cachedTile{lvl: make([][]Hash, 0, TileHeight+1)}
	ct.lvl = append(ct.lvl, t.Hashes)
	for r := 1; r <= TileHeight; r++ {
		below := ct.lvl[r-1]
		if len(below) < 2 {
			break
		}
		up := make([]Hash, len(below)/2)
		for j := range up {
			up[j] = nodeHash(below[2*j], below[2*j+1])
		}
		ct.lvl = append(ct.lvl, up)
	}
	return ct
}

// TileAssembler computes inclusion proofs, consistency proofs and roots
// from tiles, with an LRU cache of expanded tiles. Safe for concurrent
// use.
type TileAssembler struct { //lint:allow unusedexport README-documented offline-auditor building block; the proof-source wrappers below are its in-tree users
	src TileSource

	mu           sync.Mutex
	cap          int
	cache        map[tileKey]*list.Element
	order        *list.List // front = most recently used; values are *cachedTile
	hits, misses uint64
}

// defaultTileCache bounds the LRU when the caller passes no capacity:
// 256 expanded tiles ≈ 4 MiB of hashes, covering a 2^16-entry working
// set at level 0 alone.
const defaultTileCache = 256

// NewTileAssembler builds an assembler over src caching up to
// cacheTiles expanded tiles (≤ 0 picks the default).
func NewTileAssembler(src TileSource, cacheTiles int) *TileAssembler { //lint:allow unusedexport README-documented offline-auditor entry point (examples/transparency-audit drives it)
	if cacheTiles <= 0 {
		cacheTiles = defaultTileCache
	}
	return &TileAssembler{
		src:   src,
		cap:   cacheTiles,
		cache: make(map[tileKey]*list.Element),
		order: list.New(),
	}
}

// Stats reports cache hits and misses since construction (the bench's
// cache-hit-ratio column).
func (a *TileAssembler) Stats() (hits, misses uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.hits, a.misses
}

// tile returns the expanded tile for key, fetching through the source
// on a miss.
func (a *TileAssembler) tile(key tileKey) (*cachedTile, error) {
	a.mu.Lock()
	if el, ok := a.cache[key]; ok {
		a.hits++
		a.order.MoveToFront(el)
		ct := el.Value.(*cachedTile)
		a.mu.Unlock()
		return ct, nil
	}
	a.misses++
	a.mu.Unlock()
	// Fetch outside the lock: a slow source must not serialise every
	// other proof behind it. A racing duplicate fetch is harmless — the
	// tiles are byte-identical.
	t, err := a.src.Tile(key.level, key.index, key.width)
	if err != nil {
		return nil, err
	}
	if t.Level != key.level || t.Index != key.index || t.Width() != key.width {
		return nil, fmt.Errorf("translog: tile source returned (%d, %d) width %d for (%d, %d) width %d",
			t.Level, t.Index, t.Width(), key.level, key.index, key.width)
	}
	ct := expandTile(t)
	ct.key = key
	a.mu.Lock()
	defer a.mu.Unlock()
	if el, ok := a.cache[key]; ok {
		a.order.MoveToFront(el)
		return el.Value.(*cachedTile), nil
	}
	a.cache[key] = a.order.PushFront(ct)
	for a.order.Len() > a.cap {
		el := a.order.Back()
		a.order.Remove(el)
		delete(a.cache, el.Value.(*cachedTile).key)
	}
	return ct, nil
}

// node returns the nodeFunc resolving complete-subtree hashes for a
// tree of size n from tiles. The recursions only ever ask for complete
// subtrees, and a complete subtree at tree level k folds from ≤
// TileWidth aligned hashes inside exactly one tile at tile level
// k/TileHeight — pre-folded by expandTile, so the lookup is O(1).
func (a *TileAssembler) node(n uint64) nodeFunc {
	return func(k int, idx uint64) (Hash, error) {
		level := uint64(k) / TileHeight
		r := uint64(k) % TileHeight
		nodes := tileNodeCount(n, level)
		index := (idx << r) / TileWidth
		width := TileWidth
		if rem := nodes - index*TileWidth; rem < TileWidth {
			width = int(rem)
		}
		ct, err := a.tile(tileKey{level: level, index: index, width: width})
		if err != nil {
			return Hash{}, err
		}
		j := idx - (index << (TileHeight - r))
		if int(r) >= len(ct.lvl) || j >= uint64(len(ct.lvl[r])) {
			return Hash{}, fmt.Errorf("%w: node (%d, %d) for size %d", ErrTileRange, k, idx, n)
		}
		return ct.lvl[r][j], nil
	}
}

// InclusionProof assembles the RFC 6962 audit path PATH(index, D[size])
// from tiles.
func (a *TileAssembler) InclusionProof(index, size uint64) ([]Hash, error) {
	if index >= size {
		return nil, fmt.Errorf("%w: index %d at size %d", ErrTileRange, index, size)
	}
	return merklePath(index, 0, size, a.node(size))
}

// ConsistencyProof assembles PROOF(first, D[second]) from tiles
// (first == 0 needs no proof).
func (a *TileAssembler) ConsistencyProof(first, second uint64) ([]Hash, error) {
	if first > second {
		return nil, fmt.Errorf("%w: consistency %d → %d", ErrTileRange, first, second)
	}
	if first == 0 || first == second {
		return nil, nil
	}
	return merkleSubproof(first, 0, second, true, a.node(second))
}

// RootAt recomputes MTH(D[0:size]) from tiles — what an offline auditor
// checks a signed head's root against.
func (a *TileAssembler) RootAt(size uint64) (Hash, error) {
	if size == 0 {
		return emptyRoot(), nil
	}
	return merkleSubtree(0, size, a.node(size))
}

// logReader is what a TileProofSource reads from a log: serial
// lookups, shard-stream slices and tiles. The in-process *Log and the
// HTTP *Client both qualify.
type logReader interface {
	TileSource
	lookupBundle(serial string) (*ProofBundle, error)
	ShardStream(shard int, start, count uint64) (uint64, []IndexedEntry, error)
}

// TileProofSource is the one read view of a log: every audit path it
// returns — credential bundles, inclusion and consistency proofs — folds
// from tiles through its assembler, whether the log is in-process or
// remote. The log itself computes no proofs: the lookup resolves serial →
// (index, entry, head), and the path folds from the LRU, so the proof
// code a relying party runs is the only proof code there is. Shard-stream
// reads pass through to the log, so it satisfies ProofSource,
// ConsistencyProver and ShardAuditSource.
type TileProofSource struct {
	logReader
	*TileAssembler
}

// NewTileProofSource builds a tile-assembling read view over a remote
// log server. cacheTiles bounds the assembler LRU (≤ 0: default).
func NewTileProofSource(c *Client, cacheTiles int) *TileProofSource {
	return &TileProofSource{c, NewTileAssembler(c, cacheTiles)}
}

// NewLogTileProofSource builds a tile-assembling read view over an
// in-process log — the Verification Manager proves through the same
// assembler as a remote auditor. Tiles come from the resident tree under
// its own read lock, so proofs never take the log's commit lock.
func NewLogTileProofSource(l *Log, cacheTiles int) *TileProofSource {
	return &TileProofSource{l, NewTileAssembler(l, cacheTiles)}
}

// ProveSerial implements ProofSource: a bundle for the latest issuance
// entry (enroll or provision) carrying serial, against the current tree
// head, with the audit path assembled from tiles. ErrNotLogged when the
// serial never appears; ErrLogRevoked when the log records its
// revocation. The bundle is unauthenticated, head signature included,
// whether the log is in-process or remote: the caller (NewCredentialChecker,
// or ProofBundle.Verify) verifies the finished bundle against the log key,
// so a stale or hostile log server or tile source can only cause a
// verification failure, never a false pass.
func (ts *TileProofSource) ProveSerial(serial string) (*ProofBundle, error) {
	pb, err := ts.lookupBundle(serial)
	if err != nil {
		return nil, err
	}
	proof, err := ts.InclusionProof(pb.Index, pb.STH.Size)
	if err != nil {
		return nil, err
	}
	pb.Proof = proof
	return pb, nil
}
