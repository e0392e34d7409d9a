package translog

import (
	"bytes"
	"errors"
	"fmt"
	mrand "math/rand"
	"slices"
	"testing"
)

// refTree is the conformance reference: a tree that keeps every level.
// ref[k][i] roots leaves [i·2^k, (i+1)·2^k).
type refTree [][]Hash

func newRefTree(leaves []Hash) refTree {
	ref := refTree{leaves}
	for below := leaves; len(below) > 1; below = ref[len(ref)-1] {
		up := make([]Hash, len(below)/2)
		for j := range up {
			up[j] = nodeHash(below[2*j], below[2*j+1])
		}
		ref = append(ref, up)
	}
	return ref
}

func (ref refTree) root(n uint64) Hash {
	if n == 0 {
		return emptyRoot()
	}
	h, _ := merkleSubtree(0, n, func(k int, idx uint64) (Hash, error) { return ref[k][idx], nil })
	return h
}

// refLeaves returns n distinct leaf hashes and the reference over them.
func refLeaves(n int) ([]Hash, refTree) {
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprint("leaf-", i))
	}
	leaves := leafHashes(payloads)
	return leaves, newRefTree(leaves)
}

// treeAtCheckpoint reopens a tree over leaves[:n] the way recovery
// does, from the rows a checkpoint at n persists, and returns it with
// the tree it was taken from: grown over the same leaves, then evicted
// at n.
func treeAtCheckpoint(leaves []Hash, n uint64) (reopened, grown *tree) {
	grown = newTree()
	grown.append(leaves[:n], 1)
	reopened = newTreeFromCheckpoint(n, grown.appendRows(nil, n))
	grown.evict(n)
	return reopened, grown
}

// sameTree fails unless a and b hold the same nodes: the size, every
// row chunk (an evicted row-0 chunk on both sides or neither), and each
// row's right-edge interior up to the row's width.
func sameTree(t *testing.T, a, b *tree) {
	t.Helper()
	if a.n != b.n || len(a.rows) != len(b.rows) {
		t.Fatalf("size %d with %d rows, want %d with %d", a.n, len(a.rows), b.n, len(b.rows))
	}
	for L := range a.rows {
		ra, rb := &a.rows[L], &b.rows[L]
		if len(ra.chunks) != len(rb.chunks) {
			t.Fatalf("size %d: row %d holds %d chunks, want %d", a.n, L, len(ra.chunks), len(rb.chunks))
		}
		for c := range ra.chunks {
			if (ra.chunks[c] == nil) != (rb.chunks[c] == nil) {
				t.Fatalf("size %d: row %d chunk %d resident=%v, want %v", a.n, L, c, ra.chunks[c] != nil, rb.chunks[c] != nil)
			}
			if ra.chunks[c] != nil && *ra.chunks[c] != *rb.chunks[c] {
				t.Fatalf("size %d: row %d chunk %d differs", a.n, L, c)
			}
		}
		w := int(a.n >> uint(TileHeight*L) % TileWidth)
		if w > 1 && (ra.edge == nil || rb.edge == nil) {
			t.Fatalf("size %d: row %d of width %d has no edge interior", a.n, L, w)
		}
		for r := 1; w>>r > 0; r++ {
			if !slices.Equal(edgeLevel(ra.edge, r)[:w>>r], edgeLevel(rb.edge, r)[:w>>r]) {
				t.Fatalf("size %d: row %d edge level %d differs", a.n, L, r)
			}
		}
	}
}

// residentFrom returns the first leaf of the tree's first resident
// row-0 chunk.
func (t *tree) residentFrom() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := 0
	for len(t.rows) > 0 && c < len(t.rows[0].chunks) && t.rows[0].chunks[c] == nil {
		c++
	}
	return uint64(c) * TileWidth
}

// checkTree compares tr at size n with the reference: the size, the
// root at n and at sampled historical sizes in [0, n], and every tile
// row. A root may report errColdRange only when its size's
// decomposition reaches an evicted row-0 chunk; row-0 hashes below the
// resident chunks must report it.
func checkTree(t *testing.T, tr *tree, ref refTree, n uint64, rng *mrand.Rand) {
	t.Helper()
	if got := tr.size(); got != n {
		t.Fatalf("size %d, want %d", got, n)
	}
	cold := tr.residentFrom()
	sizes := []uint64{n, 0, 1, cold, cold - min(cold, 1), n - min(n, 1), n &^ (TileWidth - 1), n &^ (1<<16 - 1)}
	for range 6 {
		sizes = append(sizes, uint64(rng.Int63n(int64(n)+1)))
	}
	for _, m := range sizes {
		root, err := tr.rootAt(m)
		if errors.Is(err, errColdRange) && m < cold && m%TileWidth != 0 {
			continue // its decomposition reaches an evicted chunk
		}
		if err != nil {
			t.Fatalf("size %d resident from %d: rootAt(%d): %v", n, cold, m, err)
		}
		if root != ref.root(m) {
			t.Fatalf("size %d resident from %d: rootAt(%d) differs from the reference", n, cold, m)
		}
	}
	for k := 0; n>>k > 0; k += TileHeight {
		lo, hi := uint64(0), n>>k
		if k == 0 {
			lo = min(cold, hi)
		}
		got, err := tr.nodes(k, lo, hi)
		if err != nil {
			t.Fatalf("size %d: row %d [%d, %d): %v", n, k, lo, hi, err)
		}
		if !slices.Equal(got, ref[k][lo:hi]) {
			t.Fatalf("size %d: row %d [%d, %d) differs from the reference", n, k, lo, hi)
		}
		if lo > 0 {
			if _, err := tr.nodes(k, lo-1, hi); !errors.Is(err, errColdRange) {
				t.Fatalf("row %d below its resident chunks: %v, want errColdRange", k, err)
			}
		}
	}
}

// growTree appends leaves [from, to) in random batches, checking the
// tree after each. workers alternates between inline and fanned folds.
func growTree(t *testing.T, tr *tree, leaves []Hash, ref refTree, from, to uint64, rng *mrand.Rand) {
	t.Helper()
	for n := from; n < to; {
		batch := uint64(1 + rng.Intn(300))
		if rng.Intn(4) == 0 {
			batch = uint64(1 + rng.Intn(20*TileWidth))
		}
		batch = min(batch, to-n)
		if got := tr.append(leaves[n:n+batch], 1+rng.Intn(4)); got != n+batch {
			t.Fatalf("append returned size %d, want %d", got, n+batch)
		}
		n += batch
		checkTree(t, tr, ref, n, rng)
	}
}

// TestTreeRowsConformance checks the rows-only tree against a reference
// that keeps every level: full trees through the tile and tile-of-tile
// boundaries and at random sizes, trees reopened from the rows of
// checkpoints at unaligned sizes, trees whose row-0 chunks a checkpoint
// evicted, and rollbacks that reopen a completed tile at rows 0 and 8 —
// on a reopened tree, the tile holding its checkpoint.
func TestTreeRowsConformance(t *testing.T) {
	rng := mrand.New(mrand.NewSource(35))
	leaves, ref := refLeaves(4*65536 + 2000)

	t.Run("boundary sizes", func(t *testing.T) {
		tr := newTree()
		n := uint64(0)
		for _, size := range []uint64{1, 255, 256, 257, 65535, 65536, 65537} {
			tr.append(leaves[n:size], 2)
			n = size
			checkTree(t, tr, ref, n, rng)
		}
	})
	t.Run("random sizes", func(t *testing.T) {
		for range 4 {
			size := uint64(1 + rng.Intn(70000))
			growTree(t, newTree(), leaves, ref, 0, size, rng)
		}
	})
	t.Run("trees reopened from checkpoint rows", func(t *testing.T) {
		for _, tc := range []struct{ frozen, end uint64 }{
			{1, 2}, {3, 200}, {255, 700}, {256, 300}, {257, 300}, {300, 1000}, {511, 513},
			{65536, 65536 + 300},   // aligned at every row: no right-edge interior to fold
			{65537, 2*65536 + 600}, // completes the row-8 tile holding the checkpoint
			{65536 + 3*256 + 77, 65536 + 3*256 + 100},
			{2*65536 - 1, 2*65536 + 600},
			{3*65536 + 255*256 + 255, 4*65536 + 10}, // every edge level full at rows 0 and 8
		} {
			frozen := tc.frozen
			tr, grown := treeAtCheckpoint(leaves, frozen)
			sameTree(t, tr, grown)
			if got, want := tr.residentFrom(), frozen&^(TileWidth-1); got != want {
				t.Fatalf("frozen %d: row 0 resident from %d, want the tile holding the checkpoint at %d", frozen, got, want)
			}
			checkTree(t, tr, ref, frozen, rng)
			growTree(t, tr, leaves, ref, frozen, tc.end, rng)
		}
	})
	t.Run("evicted row-0 chunks", func(t *testing.T) {
		for _, tc := range []struct{ top, ckpt uint64 }{
			{300, 256}, {1000, 700}, {65536 + 300, 65536}, {3 * 65536, 2*65536 + 77},
		} {
			tr := newTree()
			tr.append(leaves[:tc.top], 2)
			tr.evict(tc.ckpt)
			if got, want := tr.residentFrom(), tc.ckpt&^(TileWidth-1); got != want {
				t.Fatalf("checkpoint %d: row 0 resident from %d, want %d", tc.ckpt, got, want)
			}
			checkTree(t, tr, ref, tc.top, rng)
			growTree(t, tr, leaves, ref, tc.top, tc.top+uint64(rng.Intn(4*TileWidth)), rng)
		}
	})
	t.Run("rollbacks reopen completed tiles", func(t *testing.T) {
		cases := []struct {
			name             string
			frozen, top, cut uint64
		}{
			{"row 0", 0, 600, 200},
			{"row 0 back to a tile edge", 0, 600, 256},
			{"row 8", 0, 65536 + 300, 60000},
			{"row 0, frozen tile", 300, 600, 400},
			{"row 8, frozen tile", 3*65536 + 5*256 + 7, 4*65536 + 300, 3*65536 + 40000},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				tr := newTree()
				if tc.frozen > 0 {
					tr, _ = treeAtCheckpoint(leaves, tc.frozen)
				}
				tr.append(leaves[tc.frozen:tc.top], 2)
				checkTree(t, tr, ref, tc.top, rng)
				tr.truncate(tc.cut)
				checkTree(t, tr, ref, tc.cut, rng)
				growTree(t, tr, leaves, ref, tc.cut, tc.top, rng)
			})
		}
	})
}

// residentBytes counts the hash bytes the tree holds in its chunks and
// right-edge interiors.
func (t *tree) residentBytes() int {
	total := 0
	for _, rw := range t.rows {
		for _, ch := range rw.chunks {
			if ch != nil {
				total += len(ch) * len(Hash{})
			}
		}
		if rw.edge != nil {
			total += len(rw.edge) * len(Hash{})
		}
	}
	return total
}

// TestTreeResidentBytesBound pins the rows-only storage: after 2^20
// appends the tree holds at most 32.5 bytes of hashes per leaf (row 0
// alone is 32), and appending a leaf into an open chunk allocates
// nothing.
func TestTreeResidentBytesBound(t *testing.T) {
	const n = 1 << 20
	leaves := make([]Hash, n)
	for i := range leaves {
		leaves[i][0], leaves[i][1], leaves[i][2] = byte(i), byte(i>>8), byte(i>>16)
	}
	tr := newTree()
	for i := 0; i < n; i += 4096 {
		tr.append(leaves[i:i+4096], 1)
	}
	if perLeaf := float64(tr.residentBytes()) / n; perLeaf > 32.5 {
		t.Fatalf("tree holds %.3f bytes of hashes per leaf, want ≤ 32.5", perLeaf)
	}

	small := newTree()
	small.append(leaves[:4*TileWidth+1], 1) // opens row 0's fifth chunk
	leaf := leaves[n-1:]
	if allocs := testing.AllocsPerRun(100, func() { small.append(leaf, 1) }); allocs != 0 {
		t.Fatalf("appending a leaf into an open chunk: %v allocations", allocs)
	}
}

// TestEntryArenaChunks checks the chunked arena against the payloads it
// was given: through chunk boundaries, rollbacks into a full chunk, and
// a checkpoint's eviction of the chunks below it. An in-memory log
// refuses an entry past the WAL record bound as a durable one does, so a
// chunk's uint32 offsets cannot overflow.
func TestEntryArenaChunks(t *testing.T) {
	rng := mrand.New(mrand.NewSource(256))
	payloads := make([][]byte, 5*TileWidth+17)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i)}, 1+rng.Intn(200))
	}
	check := func(t *testing.T, a *entryArena, n uint64) {
		t.Helper()
		if a.count() != n {
			t.Fatalf("count %d, want %d", a.count(), n)
		}
		for i := a.base; i < n; i++ {
			if !bytes.Equal(a.payload(i), payloads[i]) {
				t.Fatalf("entry %d differs", i)
			}
		}
	}
	for _, base := range []uint64{0, 1, TileWidth, TileWidth + 100, 3*TileWidth - 1} {
		t.Run(fmt.Sprint("base=", base), func(t *testing.T) {
			a := &entryArena{base: base, n: base}
			top := uint64(len(payloads))
			for i := base; i < top; i++ {
				a.add(payloads[i])
			}
			check(t, a, top)
			for _, cut := range []uint64{top - 1, 4 * TileWidth, 3*TileWidth + 1} {
				cut = max(cut, base)
				a.truncate(cut)
				check(t, a, cut)
				for i := cut; i < top; i++ {
					a.add(payloads[i])
				}
				check(t, a, top)
			}
			ckpt := uint64(3*TileWidth + 5)
			a.evict(ckpt, ckpt/TileWidth)
			if want := max(base, ckpt&^(TileWidth-1)); a.base != want {
				t.Fatalf("base %d after evicting below %d, want %d", a.base, ckpt, want)
			}
			for c, ch := range a.chunks {
				if (ch == nil) != (uint64(c) < ckpt/TileWidth || uint64(c+1)*TileWidth <= base) {
					t.Fatalf("chunk %d resident=%v after evicting below %d", c, ch != nil, ckpt)
				}
			}
			check(t, a, top)
		})
	}
	l, err := NewLog(testSigner(t))
	if err != nil {
		t.Fatal(err)
	}
	huge := Entry{Type: EntryAttestFail, Actor: "fw-big", Host: "host-0", Detail: string(make([]byte, maxEntryBytes+1))}
	if _, err := l.Append(huge); !errors.Is(err, ErrEntryTooLarge) || l.Size() != 0 {
		t.Fatalf("oversize entry on an in-memory log: %v, size %d", err, l.Size())
	}
}
