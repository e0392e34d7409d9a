package translog

import (
	"crypto/sha256"
	"errors"
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

// errColdRange reports a tree lookup that reached below the checkpoint
// boundary of a suffix-only tree: the nodes are not resident (they live
// in the checkpoint's frozen blocks and the cold WAL segments). Callers at
// the Log layer hydrate the cold prefix and retry.
var errColdRange = errors.New("translog: range below the checkpoint is not resident")

// tree is an append-only Merkle tree over leaf hashes, stored as one
// hash array per level: levels[0] holds the leaves and levels[k][i] is
// the root of the complete subtree over leaves [i·2^k, (i+1)·2^k). Every
// complete range RFC 6962's recursions visit is aligned, so it resolves
// to a single array lookup; appends only extend each level's array —
// O(1) amortised hashing per leaf with no cache invalidation, which is
// what keeps batched commits cheap as the log grows.
//
// A tree opened from a checkpoint is a suffix tree: leaves below frozen
// are not resident, and level k stores only the nodes with global index
// ≥ off(k) — the frozen subtree roots of frozen's binary decomposition
// sit at exactly those boundary positions, so the per-level arrays stay
// contiguous and append pairs new nodes with frozen block roots with
// no special cases beyond the off(k) index shift.
// Every root and checkpoint block set at or above frozen resolves
// exactly as in a full tree (the recursion only visits the
// decomposition positions, which are resident); a lookup that needs
// interior cold nodes returns errColdRange, and splice() grafts a
// rebuilt cold prefix back in to lift the boundary.
//
// The tree computes no proofs. It appends, truncates, folds the commit
// root and checkpoint blocks, and serves tile rows (nodes); every audit
// path folds from those tiles through a TileAssembler.
type tree struct {
	mu     sync.RWMutex
	levels [][]Hash
	// frozen is the checkpoint boundary (0 for a full tree).
	frozen uint64
}

func newTree() *tree {
	return &tree{levels: [][]Hash{nil}}
}

// newTreeFromFrozen builds a suffix tree over a checkpoint at size
// frozen: blocks are the roots of frozen's binary decomposition,
// largest subtree first. The caller has verified they fold to the
// checkpointed root.
func newTreeFromFrozen(frozen uint64, blocks []Hash) *tree {
	if frozen == 0 {
		return newTree()
	}
	t := &tree{frozen: frozen, levels: make([][]Hash, bits.Len64(frozen))}
	bi := 0
	for k := len(t.levels) - 1; k >= 0; k-- {
		if frozen&(1<<uint(k)) != 0 {
			t.levels[k] = []Hash{blocks[bi]}
			bi++
		}
	}
	return t
}

// off returns the global node index where level k's stored array
// begins: everything below it is interior to the frozen prefix. The
// frozen block at level k (when bit k of frozen is set) sits at exactly
// this index, so the arrays are contiguous from here on.
func (t *tree) off(k int) uint64 {
	return 2 * (t.frozen >> uint(k+1))
}

// size returns the number of leaves.
func (t *tree) size() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sizeLocked()
}

func (t *tree) sizeLocked() uint64 {
	return t.off(0) + uint64(len(t.levels[0]))
}

// append adds a batch of leaf hashes and returns the new size. It is
// the tree's one append: after n leaves level k always holds exactly
// n>>k nodes, so the batch's new nodes at each level are a contiguous
// range computed from pairs one level down, filled level by level.
// Large levels are fanned across workers; with one worker, or a level
// too small to pay for goroutines, the fill runs inline.
func (t *tree) append(hashes []Hash, workers int) uint64 {
	const chunk = 512
	t.mu.Lock()
	defer t.mu.Unlock()
	t.levels[0] = append(t.levels[0], hashes...)
	for k := 0; ; k++ {
		below := t.levels[k]
		oBelow := t.off(k)
		// Global node counts: want is how many level-k+1 nodes the
		// level-k pairs now support, have is how many already exist
		// (including any frozen block root the level started with).
		want := (oBelow + uint64(len(below))) / 2
		oUp := t.off(k + 1)
		have := oUp
		if k+1 < len(t.levels) {
			have += uint64(len(t.levels[k+1]))
		}
		if want <= have {
			break
		}
		if k+1 >= len(t.levels) {
			t.levels = append(t.levels, nil)
		}
		lHave, lWant := int(have-oUp), int(want-oUp)
		// Grow under the runtime's append policy, like level 0: its
		// headroom amortises small commits without doubling the memory
		// of a large level.
		nodes := slices.Grow(t.levels[k+1], lWant-lHave)[:lWant]
		if workers <= 1 || lWant-lHave < 2*chunk {
			fillLevel(nodes, below, oUp, oBelow, lHave, lWant)
		} else {
			var wg sync.WaitGroup
			for lo := lHave; lo < lWant; lo += chunk {
				hi := lo + chunk
				if hi > lWant {
					hi = lWant
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					fillLevel(nodes, below, oUp, oBelow, lo, hi)
				}(lo, hi)
			}
			wg.Wait()
		}
		t.levels[k+1] = nodes
	}
	return t.sizeLocked()
}

// fillLevel computes the level-k+1 nodes at stored positions [lo, hi)
// from their child pairs in below, the level-k array; oUp and oBelow
// are the two levels' off() shifts.
func fillLevel(nodes, below []Hash, oUp, oBelow uint64, lo, hi int) {
	for li := lo; li < hi; li++ {
		j := oUp + uint64(li) // global index at level k+1
		nodes[li] = nodeHash(below[2*j-oBelow], below[2*j+1-oBelow])
	}
}

// truncate discards leaves beyond size n — the rollback of a failed
// commit. Level k always holds exactly the global nodes [off(k), n>>k)
// for n leaves, so the inverse of append is a per-level truncation.
// Callers never truncate below the frozen boundary: commits only ever
// roll back to a size the committed tree already reached, which is ≥
// frozen by construction.
func (t *tree) truncate(n uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := range t.levels {
		keepGlobal := n >> uint(k)
		o := t.off(k)
		if keepGlobal < o {
			keepGlobal = o // defensive: never drop frozen block roots
		}
		if keep := keepGlobal - o; uint64(len(t.levels[k])) > keep {
			t.levels[k] = t.levels[k][:keep]
		}
	}
}

// rootAt computes MTH(D[0:n]) for any historical size n ≤ size. For a
// suffix tree, n must be ≥ the frozen boundary (the decomposition
// positions of any n ≥ frozen are resident); smaller n returns
// errColdRange.
func (t *tree) rootAt(n uint64) (Hash, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if n > t.sizeLocked() {
		return Hash{}, errors.New("translog: tree size out of range")
	}
	if n == 0 {
		return emptyRoot(), nil
	}
	return t.subtree(0, n)
}

// blocks returns the roots of n's binary decomposition, largest subtree
// first — the frozen block set a checkpoint at size n persists. n must
// be in [frozen, size].
func (t *tree) blocks(n uint64) ([]Hash, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if n > t.sizeLocked() {
		return nil, errors.New("translog: tree size out of range")
	}
	out := make([]Hash, 0, bits.OnesCount64(n))
	lo := uint64(0)
	for rem := n; rem > 0; {
		b := uint64(1) << uint(bits.Len64(rem)-1)
		h, err := t.subtree(lo, lo+b)
		if err != nil {
			return nil, err
		}
		out = append(out, h)
		lo += b
		rem -= b
	}
	return out, nil
}

// splice grafts a rebuilt cold prefix into a suffix tree: prefix is the
// per-level node array of a full tree over exactly frozen leaves (the
// caller has verified its root against the checkpoint). After splice
// the tree is a full tree — every historical root and tile resolves.
func (t *tree) splice(prefix [][]Hash) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen == 0 {
		return
	}
	for k := range t.levels {
		o := t.off(k)
		if o == 0 {
			continue
		}
		var cold []Hash
		if k < len(prefix) {
			cold = prefix[k]
			if uint64(len(cold)) > o {
				cold = cold[:o] // the block at off(k) is already resident
			}
		}
		merged := make([]Hash, 0, int(o)+len(t.levels[k]))
		merged = append(merged, cold...)
		merged = append(merged, t.levels[k]...)
		t.levels[k] = merged
	}
	t.frozen = 0
}

// nodeFunc resolves the root hash of the complete subtree at tree level
// k whose global node index is idx (covering leaves [idx·2^k,
// (idx+1)·2^k)). The RFC 6962 recursions below are parameterized over it:
// the tree's resident level arrays resolve its own roots and checkpoint
// blocks, and the tile assembler resolves every audit path from tiles.
type nodeFunc func(k int, idx uint64) (Hash, error)

// nodeLocked resolves a node from the resident level arrays. Callers
// hold t.mu. A lookup interior to the frozen prefix returns
// errColdRange.
func (t *tree) nodeLocked(k int, idx uint64) (Hash, error) {
	o := t.off(k)
	if idx < o {
		return Hash{}, errColdRange
	}
	if k >= len(t.levels) || idx-o >= uint64(len(t.levels[k])) {
		return Hash{}, errors.New("translog: tree node out of range")
	}
	return t.levels[k][idx-o], nil
}

// nodes copies the stored node hashes at tree level k with global
// indices [lo, hi) — the tile extraction primitive. The copy happens
// under the tree's own read lock (never the log's commit lock) and
// performs zero hashing: every interior level is resident, so a tile is
// a pure memcpy of hashes the commits already computed. Indices below
// the frozen boundary report errColdRange for the caller to hydrate.
func (t *tree) nodes(k int, lo, hi uint64) ([]Hash, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if k >= len(t.levels) || lo > hi {
		return nil, errors.New("translog: tree node out of range")
	}
	o := t.off(k)
	if lo < o {
		return nil, errColdRange
	}
	if hi-o > uint64(len(t.levels[k])) {
		return nil, errors.New("translog: tree node out of range")
	}
	out := make([]Hash, hi-lo)
	copy(out, t.levels[k][lo-o:hi-o])
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

// subtree computes MTH(D[lo:hi]) under t.mu.
func (t *tree) subtree(lo, hi uint64) (Hash, error) {
	return merkleSubtree(lo, hi, t.nodeLocked)
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
