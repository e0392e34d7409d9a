package translog

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math/bits"
	"slices"
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

// errColdRange reports a tree lookup that reached a row-0 chunk a
// checkpoint evicted: its leaf hashes live only in the cold WAL
// segments. Callers at the Log layer read the tile back from there
// (coldReader) and check it against the resident row above.
var errColdRange = errors.New("translog: row-0 range below the checkpoint is not resident")

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
// root at a historical size asks for them — folds from its row chunk
// through expandTile, the tile assembler's function.
//
// A durable log's checkpoint evicts the row-0 chunks wholly below it
// (evict): their leaves are in the cold WAL segments, and every row
// above stays resident, so a cold tile read checks its 256 leaves
// against the row-1 node they fold to. A tree reopened from a
// checkpoint (newTreeFromCheckpoint) is that tree: the checkpoint's
// rows, each right-edge interior folded from them, and every row-0
// chunk below the tile holding its size evicted.
//
// The tree computes no proofs. It appends, truncates, folds the commit
// root and serves tile rows (nodes); every audit path folds from those
// tiles through a TileAssembler.
type tree struct {
	mu   sync.RWMutex
	n    uint64 // leaves
	rows []tileRow
	// spare holds row-0 chunks evict dropped, for chunk to reuse.
	spare []*[TileWidth]Hash
}

// tileRow is one stored row of the tree.
type tileRow struct {
	chunks []*[TileWidth]Hash // nil for a row-0 chunk a checkpoint evicted
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
// …. Each pair it reads is complete: row hashes below b or interior
// nodes folded before. When b is TileWidth it returns the tile's top
// node, the next row's node.
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

// checkpointRowHashes returns how many hashes a checkpoint at size n
// persists (appendRows): every node of the rows above row 0, and the
// row-0 hashes of the tile holding n.
func checkpointRowHashes(n uint64) uint64 {
	total := n % TileWidth
	for k := TileHeight; n>>k > 0; k += TileHeight {
		total += n >> k
	}
	return total
}

// newTreeFromCheckpoint reopens a tree at a checkpoint of size n from
// the rows it persisted (appendRows's layout, len(rows) is
// checkpointRowHashes(n) hashes, checked against the checkpoint's
// signature by the caller). The result is the tree grown to n and
// evicted at n: each row's right-edge interior folds from the row's own
// hashes, as append folds it.
func newTreeFromCheckpoint(n uint64, rows []byte) *tree {
	t := &tree{n: n, rows: make([]tileRow, rowCount(n))}
	take := func(dst []Hash) {
		for i := range dst {
			dst[i] = Hash(rows[i*len(Hash{}):])
		}
		rows = rows[len(dst)*len(Hash{}):]
	}
	for L := 1; L < len(t.rows); L++ {
		count := n >> uint(TileHeight*L)
		chunks := (count + TileWidth - 1) / TileWidth
		slab := make([]Hash, chunks*TileWidth)
		take(slab[:count])
		rw := &t.rows[L]
		rw.chunks = make([]*[TileWidth]Hash, chunks)
		for c := range rw.chunks {
			rw.chunks[c] = (*[TileWidth]Hash)(slab[c*TileWidth:])
		}
	}
	t.rows[0].chunks = make([]*[TileWidth]Hash, n/TileWidth, n/TileWidth+1)
	if w := n % TileWidth; w > 0 {
		take(t.chunk(0, n/TileWidth)[:w])
	}
	for L := range t.rows {
		if rn := n >> uint(TileHeight*L); rn%TileWidth > 0 {
			foldTile(t.rows[L].chunks[rn/TileWidth], t.edge(L), 0, int(rn%TileWidth))
		}
	}
	return t
}

// appendRows appends what a checkpoint at size n persists of the tree:
// each row above row 0 from the bottom up, nodes [0, n>>(TileHeight·L)),
// then row 0's hashes [n &^ (TileWidth-1), n). Every chunk it reads is
// resident: only row-0 chunks wholly below a checkpoint ≤ n are
// evicted.
func (t *tree) appendRows(dst []byte, n uint64) []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	dst = slices.Grow(dst, int(checkpointRowHashes(n))*len(Hash{}))
	put := func(L int, lo, hi uint64) {
		for i := lo; i < hi; i++ {
			h := &t.rows[L].chunks[i/TileWidth][i%TileWidth]
			dst = append(dst, h[:]...)
		}
	}
	for L := 1; L < rowCount(n); L++ {
		put(L, 0, n>>uint(TileHeight*L))
	}
	put(0, n&^(TileWidth-1), n)
	return dst
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
		if k := len(t.spare); k > 0 && L == 0 {
			// A spare's stale hashes are overwritten before they are read.
			rw.chunks[c], t.spare = t.spare[k-1], t.spare[:k-1]
		} else {
			rw.chunks[c] = new([TileWidth]Hash)
		}
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

// truncate discards leaves beyond size n — the rollback of a failed
// commit. Each row drops the chunks past its new end, and a row whose
// rollback reopens a completed tile refolds that tile's interior from
// its row. Callers never truncate below a checkpoint: commits only ever
// roll back to a size the committed tree already reached.
func (t *tree) truncate(n uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
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
		if w := int(rn % TileWidth); rn/TileWidth < on/TileWidth && w > 0 {
			foldTile(rw.chunks[rn/TileWidth], t.edge(L), 0, w)
		}
	}
}

// evict drops the row-0 chunks wholly below n, a size a durable
// checkpoint covers, keeping some as spares: every read copies out of a
// chunk under the tree's lock, so nothing else holds them.
func (t *tree) evict(n uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.rows) > 0 {
		chunks := t.rows[0].chunks[:min(n/TileWidth, uint64(len(t.rows[0].chunks)))]
		for _, ch := range chunks {
			if ch != nil && len(t.spare) < maxSpareChunks {
				t.spare = append(t.spare, ch)
			}
		}
		clear(chunks)
	}
}

// rootAt computes MTH(D[0:n]) for any historical size n ≤ size. A size
// whose decomposition reaches an evicted row-0 chunk reports
// errColdRange.
func (t *tree) rootAt(n uint64) (Hash, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if n > t.n {
		return Hash{}, fmt.Errorf("translog: tree size %d out of range [0, %d]", n, t.n)
	}
	if n == 0 {
		return emptyRoot(), nil
	}
	return merkleSubtree(0, n, t.node)
}

// nodeFunc resolves the root hash of the complete subtree at tree level
// k whose global node index is idx (covering leaves [idx·2^k,
// (idx+1)·2^k)). The RFC 6962 recursions below are parameterized over it:
// the tree's rows resolve its own roots, and the tile assembler resolves
// every audit path from tiles.
type nodeFunc func(k int, idx uint64) (Hash, error)

// node is the tree's nodeFunc; callers hold t.mu. A row node is a
// chunk read and a node of a right-edge tile an interior read; any
// other node folds from its row chunk. A node over an evicted row-0
// chunk returns errColdRange.
func (t *tree) node(k int, idx uint64) (Hash, error) {
	if idx >= t.n>>uint(k) {
		return Hash{}, errors.New("translog: tree node out of range")
	}
	L, r := k/TileHeight, k%TileHeight
	rw := &t.rows[L]
	if r > 0 && idx>>uint(TileHeight-r) == (t.n>>uint(TileHeight*L))/TileWidth {
		return edgeLevel(rw.edge, r)[idx%(TileWidth>>r)], nil
	}
	lo := idx << uint(r) // the node's first row-L hash
	ch := rw.chunks[lo/TileWidth]
	switch {
	case ch == nil:
		return Hash{}, errColdRange
	case r == 0:
		return ch[lo%TileWidth], nil
	}
	at := lo % TileWidth
	return expandTile(&Tile{Hashes: ch[at : at+1<<uint(r)]}).lvl[r][0], nil
}

// nodes copies the row hashes at tree level k, a multiple of
// TileHeight, with global indices [lo, hi) — the tile extraction
// primitive. The copy happens under the tree's own read lock (never the
// log's commit lock) and performs zero hashing: every tile row is
// resident, so a tile is a pure copy of hashes the commits already
// computed. A range over an evicted row-0 chunk reports errColdRange.
func (t *tree) nodes(k int, lo, hi uint64) ([]Hash, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if k%TileHeight != 0 || lo > hi || hi > t.n>>uint(k) {
		return nil, errors.New("translog: tree node out of range")
	}
	out := make([]Hash, hi-lo)
	for i := lo; i < hi; {
		ch := t.rows[k/TileHeight].chunks[i/TileWidth]
		if ch == nil {
			return nil, errColdRange
		}
		i += uint64(copy(out[i-lo:], ch[i%TileWidth:]))
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
