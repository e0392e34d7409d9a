package translog

import (
	"crypto/sha256"
	"errors"
	"hash"
	"math/bits"
	"sync"
)

// Hash is a Merkle tree node hash.
type Hash [sha256.Size]byte

// Domain-separation prefixes (RFC 6962 §2.1): leaves and interior nodes
// hash under distinct domains so a leaf can never be reinterpreted as a
// node (second-preimage resistance of the tree structure).
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// LeafHash hashes one canonical-encoded entry into its leaf.
func LeafHash(data []byte) Hash { //lint:allow unusedexport client-side proof API: external auditors leaf-hash entries to call VerifyInclusion
	buf := make([]byte, 1+len(data))
	buf[0] = leafPrefix
	copy(buf[1:], data)
	return sha256.Sum256(buf)
}

// leafPrefixByte is the leaf domain prefix as a slice a digest can
// take without a per-call allocation.
var leafPrefixByte = []byte{leafPrefix}

// leafHashInto hashes data into its leaf through d, a SHA-256 digest
// the caller reuses across leaves: bulk hashing allocates nothing per
// leaf, unlike LeafHash.
func leafHashInto(d hash.Hash, out *Hash, data []byte) {
	d.Reset()
	d.Write(leafPrefixByte)
	d.Write(data)
	d.Sum(out[:0])
}

// leafHashes hashes every payload into its leaf.
func leafHashes(payloads [][]byte) []Hash {
	d := sha256.New()
	out := make([]Hash, len(payloads))
	for i, p := range payloads {
		leafHashInto(d, &out[i], p)
	}
	return out
}

func nodeHash(l, r Hash) Hash {
	var buf [1 + 2*sha256.Size]byte
	buf[0] = nodePrefix
	copy(buf[1:], l[:])
	copy(buf[1+sha256.Size:], r[:])
	return sha256.Sum256(buf[:])
}

// emptyRoot is the hash of the empty tree (RFC 6962: SHA-256 of the empty
// string).
func emptyRoot() Hash { return sha256.Sum256(nil) }

// largestPowerOfTwoBelow returns the largest power of two strictly less
// than n (n must be > 1) — the split point k of RFC 6962's recursions.
func largestPowerOfTwoBelow(n uint64) uint64 {
	return 1 << (bits.Len64(n-1) - 1)
}

// errColdRange reports a tree lookup that reached below the checkpoint
// boundary of a suffix-only tree: the nodes are not resident (they live
// in the checkpoint's frozen blocks and the cold WAL segments). Callers at
// the Log layer hydrate the cold prefix and retry.
var errColdRange = errors.New("translog: range below the checkpoint is not resident")

// tree is an append-only Merkle tree over leaf hashes that stores only
// its tile rows: tree levels 0, TileHeight, 2·TileHeight, …, the bottom
// rows of the tiles every proof folds from. Row L (tree level
// L·TileHeight) is a list of fixed chunks of TileWidth hashes, chunk c
// holding the row's nodes [c·TileWidth, (c+1)·TileWidth), so growth
// allocates a chunk and never copies one. The open right-edge tile of
// each row also keeps its interior levels (TileWidth-2 hashes at most).
// Every node of the current size's binary decomposition is a row node
// or one of those interior nodes, so the commit root folds from stored
// hashes and an append hashes each new node once, as a tree storing
// every level does. When a tile completes, its top node goes into the
// next row and its interior is dropped; any other interior node — a
// root or checkpoint block set at a historical size asks for them —
// folds from its row chunk through expandTile, the tile assembler's
// function.
//
// A tree opened from a checkpoint is a suffix tree: leaves below frozen
// are not resident, and level k holds only the nodes with global index
// ≥ off(k). The frozen blocks, the roots of frozen's binary
// decomposition, sit at exactly those boundary positions, in the same
// row and right-edge slots as any node, so append pairs new nodes with
// them with no special case. Every root and checkpoint block set at or
// above frozen resolves exactly as in a full tree; a lookup that needs
// interior cold nodes returns errColdRange, and splice() fills the cold
// chunks in to lift the boundary.
//
// The tree computes no proofs. It appends, truncates, folds the commit
// root and checkpoint blocks, and serves tile rows (nodes); every audit
// path folds from those tiles through a TileAssembler.
type tree struct {
	mu   sync.RWMutex
	n    uint64 // leaves
	rows []tileRow
	// frozen is the checkpoint boundary (0 for a full tree) and
	// frozenBlocks the roots of its binary decomposition, largest
	// subtree first: a block stays resolvable after the tile holding it
	// completes and drops its interior.
	frozen       uint64
	frozenBlocks []Hash
}

// tileRow is one stored row of the tree.
type tileRow struct {
	chunks []*[TileWidth]Hash // nil below a suffix tree's frozen boundary
	// edge holds the interior levels of the row's open right-edge tile
	// (see edgeLevel), for the nodes its width covers.
	edge *[edgeSize]Hash
}

// edgeSize is the number of interior nodes of one tile: levels 1 to
// TileHeight-1 above its row, TileWidth/2 + … + 2 of them.
const edgeSize = TileWidth - 2

// edgeLevel returns level r (1 ≤ r < TileHeight) of a tile interior:
// node j of it roots the tile's row hashes [j·2^r, (j+1)·2^r).
func edgeLevel(e *[edgeSize]Hash, r int) []Hash {
	lo := TileWidth - TileWidth>>(r-1)
	return e[lo : lo+TileWidth>>r]
}

// foldTile grows a tile's interior in edge from width a to width b of
// its row hashes, hashing the level-r nodes [a>>r, b>>r) for r = 1, 2,
// …. Each pair it reads is complete: row hashes below b, interior nodes
// folded before, or frozen blocks seeded there. When b is TileWidth it
// returns the tile's top node, the next row's node.
func foldTile(row *[TileWidth]Hash, edge *[edgeSize]Hash, a, b int) Hash {
	below := row[:]
	for r := 1; a>>r < b>>r; r++ {
		if r == TileHeight {
			return nodeHash(below[0], below[1])
		}
		up := edgeLevel(edge, r)
		for j := a >> r; j < b>>r; j++ {
			up[j] = nodeHash(below[2*j], below[2*j+1])
		}
		below = up
	}
	return Hash{}
}

// tileRoot folds a complete tile in a scratch interior.
func tileRoot(row *[TileWidth]Hash) Hash {
	var edge [edgeSize]Hash
	return foldTile(row, &edge, 0, TileWidth)
}

// rowCount returns how many rows a tree of n leaves has.
func rowCount(n uint64) int {
	if n == 0 {
		return 0
	}
	return (bits.Len64(n)-1)/TileHeight + 1
}

func newTree() *tree {
	return &tree{}
}

// newTreeFromFrozen builds a suffix tree over a checkpoint at size
// frozen: blocks are the roots of frozen's binary decomposition,
// largest subtree first. The caller has verified they fold to the
// checkpointed root.
func newTreeFromFrozen(frozen uint64, blocks []Hash) *tree {
	t := &tree{n: frozen, frozen: frozen, frozenBlocks: blocks, rows: make([]tileRow, rowCount(frozen))}
	for L := range t.rows {
		if k := TileHeight * L; frozen>>k&1 == 1 {
			idx := frozen>>k - 1
			t.chunk(L, idx/TileWidth)[idx%TileWidth] = t.frozenBlock(k)
		}
		t.resetEdge(L)
	}
	return t
}

// off returns the global node index where level k's resident nodes
// begin: everything below it is interior to the frozen prefix. The
// frozen block at level k (when bit k of frozen is set) sits at exactly
// this index.
func (t *tree) off(k int) uint64 {
	return 2 * (t.frozen >> uint(k+1))
}

// frozenBlock returns the frozen block at level k (bit k of frozen is
// set).
func (t *tree) frozenBlock(k int) Hash {
	return t.frozenBlocks[bits.OnesCount64(t.frozen>>uint(k+1))]
}

// chunk returns chunk c of row L, allocating the row and the chunk as
// needed.
func (t *tree) chunk(L int, c uint64) *[TileWidth]Hash {
	for L >= len(t.rows) {
		t.rows = append(t.rows, tileRow{})
	}
	rw := &t.rows[L]
	if have := uint64(len(rw.chunks)); c >= have {
		rw.chunks = append(rw.chunks, make([]*[TileWidth]Hash, c+1-have)...)
	}
	if rw.chunks[c] == nil {
		rw.chunks[c] = new([TileWidth]Hash)
	}
	return rw.chunks[c]
}

// edge returns row L's right-edge interior, allocating it on first use.
func (t *tree) edge(L int) *[edgeSize]Hash {
	rw := &t.rows[L]
	if rw.edge == nil {
		rw.edge = new([edgeSize]Hash)
	}
	return rw.edge
}

// size returns the number of leaves.
func (t *tree) size() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}

// minParallelTiles is the number of complete tiles a row must gain in
// one append before their folds fan across workers.
const minParallelTiles = 4

// append adds a batch of leaf hashes and returns the new size. The
// leaves go into row 0's chunks; then each row folds its new nodes
// (foldRow), which puts the top node of every tile it completes into
// the row above.
func (t *tree) append(hashes []Hash, workers int) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.n
	t.n += uint64(len(hashes))
	for at := old; len(hashes) > 0; {
		n := copy(t.chunk(0, at/TileWidth)[at%TileWidth:], hashes)
		hashes, at = hashes[n:], at+uint64(n)
	}
	for L := 0; ; L++ {
		lo, hi := old>>uint(TileHeight*L), t.n>>uint(TileHeight*L)
		if lo == hi {
			break
		}
		t.foldRow(L, lo, hi, workers)
	}
	return t.n
}

// foldRow folds row L's new nodes [lo, hi) into its tiles: the old
// right-edge tile's interior grows, every tile the batch completes puts
// its top node into row L+1, and a new right-edge tile folds its
// interior from scratch. Tiles the batch fills from empty fold in a
// scratch interior, fanned across workers when there are enough.
func (t *tree) foldRow(L int, lo, hi uint64, workers int) {
	first, last := lo/TileWidth, hi/TileWidth // last is the new right edge
	a := int(lo % TileWidth)
	if first == last {
		foldTile(t.rows[L].chunks[first], t.edge(L), a, int(hi%TileWidth))
		return
	}
	for c := first / TileWidth; c <= (last-1)/TileWidth; c++ {
		t.chunk(L+1, c)
	}
	row, up := t.rows[L].chunks, t.rows[L+1].chunks
	up[first/TileWidth][first%TileWidth] = foldTile(row[first], t.edge(L), a, TileWidth)
	fill := func(from, to uint64) {
		for K := from; K < to; K++ {
			up[K/TileWidth][K%TileWidth] = tileRoot(row[K])
		}
	}
	if fresh := last - first - 1; workers <= 1 || fresh < minParallelTiles {
		fill(first+1, last)
	} else {
		per := (fresh + uint64(workers) - 1) / uint64(workers)
		var wg sync.WaitGroup
		for from := first + 1; from < last; from += per {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fill(from, min(from+per, last))
			}()
		}
		wg.Wait()
	}
	if w := int(hi % TileWidth); w > 0 {
		foldTile(row[last], t.edge(L), 0, w)
	}
}

// resetEdge rebuilds row L's right-edge interior from the row, for a
// tile whose interior was dropped or never folded: a rollback reopened
// it, splice filled its cold part in, or a suffix tree opens in it.
func (t *tree) resetEdge(L int) {
	rn := t.n >> uint(TileHeight*L)
	tile, w := rn/TileWidth, int(rn%TileWidth)
	a := 0
	if t.frozen>>uint(TileHeight*L+TileHeight) == tile {
		// The tile holds the frozen boundary: its nodes below the
		// boundary are cold but for the frozen blocks, which it seeds
		// for the fold to pair with the resident nodes.
		a = int(t.frozen >> uint(TileHeight*L) % TileWidth)
		for r := 1; r < TileHeight; r++ {
			if k := TileHeight*L + r; t.frozen>>uint(k)&1 == 1 {
				edgeLevel(t.edge(L), r)[a>>r-1] = t.frozenBlock(k)
			}
		}
	}
	if a < w {
		foldTile(t.rows[L].chunks[tile], t.edge(L), a, w)
	}
}

// truncate discards leaves beyond size n — the rollback of a failed
// commit. Each row drops the chunks past its new end, and a row whose
// rollback reopens a completed tile rebuilds that tile's interior.
// Callers never truncate below the frozen boundary: commits only ever
// roll back to a size the committed tree already reached, which is ≥
// frozen by construction.
func (t *tree) truncate(n uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n = max(n, t.frozen) // defensive: never drop frozen blocks
	if n >= t.n {
		return
	}
	old := t.n
	t.n = n
	keepRows := rowCount(n)
	clear(t.rows[keepRows:])
	t.rows = t.rows[:keepRows]
	for L := range t.rows {
		rn, on := n>>uint(TileHeight*L), old>>uint(TileHeight*L)
		rw := &t.rows[L]
		keep := min(uint64(len(rw.chunks)), (rn+TileWidth-1)/TileWidth)
		clear(rw.chunks[keep:])
		rw.chunks = rw.chunks[:keep]
		if rn/TileWidth < on/TileWidth {
			t.resetEdge(L)
		}
	}
}

// rootAt computes MTH(D[0:n]) for any historical size n ≤ size. For a
// suffix tree, the decomposition nodes of any n ≥ frozen resolve; a
// smaller n returns errColdRange unless its nodes are frozen blocks.
func (t *tree) rootAt(n uint64) (Hash, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if n > t.n {
		return Hash{}, errors.New("translog: tree size out of range")
	}
	if n == 0 {
		return emptyRoot(), nil
	}
	return merkleSubtree(0, n, t.node)
}

// blocks returns the roots of n's binary decomposition, largest subtree
// first — the frozen block set a checkpoint at size n persists. n must
// be in [frozen, size].
func (t *tree) blocks(n uint64) ([]Hash, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if n > t.n {
		return nil, errors.New("translog: tree size out of range")
	}
	out := make([]Hash, 0, bits.OnesCount64(n))
	lo := uint64(0)
	for rem := n; rem > 0; {
		b := uint64(1) << uint(bits.Len64(rem)-1)
		h, err := merkleSubtree(lo, lo+b, t.node)
		if err != nil {
			return nil, err
		}
		out = append(out, h)
		lo += b
		rem -= b
	}
	return out, nil
}

// splice fills a suffix tree's cold chunks in from pre, a full tree
// over exactly frozen leaves (the caller has verified its root against
// the checkpoint): each row adopts pre's chunks wholly below the
// boundary and copies the cold part of the chunk holding it. After
// splice the tree is a full tree — every historical root and tile
// resolves.
func (t *tree) splice(pre *tree) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen == 0 {
		return
	}
	for L := range t.rows {
		off := t.off(TileHeight * L)
		if off == 0 {
			continue
		}
		cold := pre.rows[L].chunks
		full := off / TileWidth
		rw := &t.rows[L]
		if have := uint64(len(rw.chunks)); have < full {
			rw.chunks = append(rw.chunks, make([]*[TileWidth]Hash, full-have)...)
		}
		copy(rw.chunks, cold[:full])
		if rem := off % TileWidth; rem > 0 {
			copy(t.chunk(L, full)[:rem], cold[full][:rem])
		}
	}
	t.frozen, t.frozenBlocks = 0, nil
	for L := range t.rows {
		t.resetEdge(L)
	}
}

// nodeFunc resolves the root hash of the complete subtree at tree level
// k whose global node index is idx (covering leaves [idx·2^k,
// (idx+1)·2^k)). The RFC 6962 recursions below are parameterized over it:
// the tree's rows resolve its own roots and checkpoint blocks, and the
// tile assembler resolves every audit path from tiles.
type nodeFunc func(k int, idx uint64) (Hash, error)

// node is the tree's nodeFunc; callers hold t.mu. A row node is a
// chunk read and a node of a right-edge tile an interior read; any
// other node folds from its row chunk. A lookup interior to the frozen
// prefix returns errColdRange.
func (t *tree) node(k int, idx uint64) (Hash, error) {
	if idx >= t.n>>uint(k) {
		return Hash{}, errors.New("translog: tree node out of range")
	}
	if idx < t.off(k) {
		return Hash{}, errColdRange
	}
	L, r := k/TileHeight, k%TileHeight
	rw := &t.rows[L]
	switch {
	case r == 0:
		return rw.chunks[idx/TileWidth][idx%TileWidth], nil
	case idx>>uint(TileHeight-r) == (t.n>>uint(TileHeight*L))/TileWidth:
		return edgeLevel(rw.edge, r)[idx%(TileWidth>>r)], nil
	case t.frozen>>uint(k)&1 == 1 && idx == t.off(k):
		return t.frozenBlock(k), nil
	}
	lo := idx << uint(r) // the node's first row-L hash
	if lo < t.off(TileHeight*L) {
		// The node straddles its row's frozen boundary: it folded from
		// frozen blocks and resident nodes, which its children still
		// resolve to.
		left, err := t.node(k-1, 2*idx)
		if err != nil {
			return Hash{}, err
		}
		right, err := t.node(k-1, 2*idx+1)
		if err != nil {
			return Hash{}, err
		}
		return nodeHash(left, right), nil
	}
	at := lo % TileWidth
	return expandTile(&Tile{Hashes: rw.chunks[lo/TileWidth][at : at+1<<uint(r)]}).lvl[r][0], nil
}

// nodes copies the row hashes at tree level k, a multiple of
// TileHeight, with global indices [lo, hi) — the tile extraction
// primitive. The copy happens under the tree's own read lock (never the
// log's commit lock) and performs zero hashing: every tile row is
// resident, so a tile is a pure copy of hashes the commits already
// computed. Indices below the frozen boundary report errColdRange for
// the caller to hydrate.
func (t *tree) nodes(k int, lo, hi uint64) ([]Hash, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if k%TileHeight != 0 || lo > hi || hi > t.n>>uint(k) {
		return nil, errors.New("translog: tree node out of range")
	}
	if lo < t.off(k) {
		return nil, errColdRange
	}
	out := make([]Hash, hi-lo)
	for i := lo; i < hi; {
		i += uint64(copy(out[i-lo:], t.rows[k/TileHeight].chunks[i/TileWidth][i%TileWidth:]))
	}
	return out, nil
}

// merkleSubtree computes MTH(D[lo:hi]) over node. Complete aligned
// ranges are single node lookups; only the ragged right edge recurses.
func merkleSubtree(lo, hi uint64, node nodeFunc) (Hash, error) {
	n := hi - lo
	if n&(n-1) == 0 && lo&(n-1) == 0 {
		k := bits.TrailingZeros64(n)
		return node(k, lo>>uint(k))
	}
	k := largestPowerOfTwoBelow(n)
	l, err := merkleSubtree(lo, lo+k, node)
	if err != nil {
		return Hash{}, err
	}
	r, err := merkleSubtree(lo+k, hi, node)
	if err != nil {
		return Hash{}, err
	}
	return nodeHash(l, r), nil
}

// merklePath implements PATH(m, D[lo:hi]) with m relative to lo.
func merklePath(m, lo, hi uint64, node nodeFunc) ([]Hash, error) {
	n := hi - lo
	if n == 1 {
		return nil, nil
	}
	k := largestPowerOfTwoBelow(n)
	if m < k {
		p, err := merklePath(m, lo, lo+k, node)
		if err != nil {
			return nil, err
		}
		s, err := merkleSubtree(lo+k, hi, node)
		if err != nil {
			return nil, err
		}
		return append(p, s), nil
	}
	p, err := merklePath(m-k, lo+k, hi, node)
	if err != nil {
		return nil, err
	}
	s, err := merkleSubtree(lo, lo+k, node)
	if err != nil {
		return nil, err
	}
	return append(p, s), nil
}

// merkleSubproof implements SUBPROOF(m, D[lo:hi], b) with m relative to
// lo.
func merkleSubproof(m, lo, hi uint64, complete bool, node nodeFunc) ([]Hash, error) {
	n := hi - lo
	if m == n {
		if complete {
			return nil, nil
		}
		s, err := merkleSubtree(lo, hi, node)
		if err != nil {
			return nil, err
		}
		return []Hash{s}, nil
	}
	k := largestPowerOfTwoBelow(n)
	if m <= k {
		p, err := merkleSubproof(m, lo, lo+k, complete, node)
		if err != nil {
			return nil, err
		}
		s, err := merkleSubtree(lo+k, hi, node)
		if err != nil {
			return nil, err
		}
		return append(p, s), nil
	}
	p, err := merkleSubproof(m-k, lo+k, hi, false, node)
	if err != nil {
		return nil, err
	}
	s, err := merkleSubtree(lo, lo+k, node)
	if err != nil {
		return nil, err
	}
	return append(p, s), nil
}

// Proof verification is stateless: auditors hold only hashes, sizes and
// the signed roots.

// ErrProofInvalid reports a proof that does not connect the claimed data
// to the claimed root.
var ErrProofInvalid = errors.New("translog: proof does not verify") //lint:allow unusedexport error contract of VerifyConsistency (used by the verifier) and VerifyInclusion

// VerifyInclusion checks that leaf (already leaf-hashed) is the entry at
// index in the tree of the given size with the given root (RFC 9162
// §2.1.3.2).
func VerifyInclusion(leaf Hash, index, size uint64, proof []Hash, root Hash) error { //lint:allow unusedexport client-side proof API paired with VerifyConsistency, which the verifier uses; README documents both
	if index >= size {
		return ErrProofInvalid
	}
	fn, sn := index, size-1
	r := leaf
	for _, p := range proof {
		if sn == 0 {
			return ErrProofInvalid
		}
		if fn&1 == 1 || fn == sn {
			r = nodeHash(p, r)
			if fn&1 == 0 {
				for fn != 0 && fn&1 == 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			r = nodeHash(r, p)
		}
		fn >>= 1
		sn >>= 1
	}
	if sn != 0 || r != root {
		return ErrProofInvalid
	}
	return nil
}

// VerifyConsistency checks that the tree of size first with root1 is a
// prefix of the tree of size second with root2 (RFC 9162 §2.1.4.2). A
// failure means the log presented two irreconcilable views — it rewrote
// or forked history.
func VerifyConsistency(first, second uint64, root1, root2 Hash, proof []Hash) error {
	if first > second {
		return ErrProofInvalid
	}
	if first == second {
		if len(proof) != 0 || root1 != root2 {
			return ErrProofInvalid
		}
		return nil
	}
	if first == 0 {
		// The empty tree is a prefix of everything; nothing to verify
		// beyond the (signed) roots themselves.
		if len(proof) != 0 || root1 != emptyRoot() {
			return ErrProofInvalid
		}
		return nil
	}
	path := proof
	if first&(first-1) == 0 {
		// first is a power of two: its root is a node of the second tree,
		// so the proof starts from root1 itself.
		path = append([]Hash{root1}, path...)
	}
	if len(path) == 0 {
		return ErrProofInvalid
	}
	fn, sn := first-1, second-1
	for fn&1 == 1 {
		fn >>= 1
		sn >>= 1
	}
	fr, sr := path[0], path[0]
	for _, c := range path[1:] {
		if sn == 0 {
			return ErrProofInvalid
		}
		if fn&1 == 1 || fn == sn {
			fr = nodeHash(c, fr)
			sr = nodeHash(c, sr)
			if fn&1 == 0 {
				for fn != 0 && fn&1 == 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			sr = nodeHash(sr, c)
		}
		fn >>= 1
		sn >>= 1
	}
	if sn != 0 || fr != root1 || sr != root2 {
		return ErrProofInvalid
	}
	return nil
}
