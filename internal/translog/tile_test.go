package translog

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"vnfguard/internal/wire"
)

// TestTileMath pins the coordinate arithmetic the whole tile scheme
// rides on.
func TestTileMath(t *testing.T) {
	cases := []struct {
		n, level, nodes, full uint64
	}{
		{0, 0, 0, 0},
		{1, 0, 1, 0},
		{255, 0, 255, 0},
		{256, 0, 256, 1},
		{257, 0, 257, 1},
		{512, 0, 512, 2},
		{65536, 0, 65536, 256},
		{65536, 1, 256, 1},
		{65537, 1, 256, 1},
		{1 << 16, 2, 1, 0},
		{1 << 24, 2, 256, 1},
		{1200, 0, 1200, 4},
		{1200, 1, 4, 0},
	}
	for _, c := range cases {
		if got := tileNodeCount(c.n, c.level); got != c.nodes {
			t.Errorf("tileNodeCount(%d, %d) = %d, want %d", c.n, c.level, got, c.nodes)
		}
		if got := tileNodeCount(c.n, c.level+1); got != c.full {
			t.Errorf("full tiles at (%d, %d) = %d, want %d", c.n, c.level, got, c.full)
		}
	}
}

// TestTileEncodeDecodeRoundTrip covers the checksummed framing: exact
// round trips, deterministic bytes, and rejection of every damage mode.
func TestTileEncodeDecodeRoundTrip(t *testing.T) {
	for _, width := range []int{1, 2, 137, TileWidth} {
		tile := &Tile{Level: 3, Index: 12345}
		for i := 0; i < width; i++ {
			tile.Hashes = append(tile.Hashes, LeafHash([]byte{byte(i), byte(width)}))
		}
		enc := encodeTile(tile)
		if string(enc) != string(encodeTile(tile)) {
			t.Fatal("encodeTile is not deterministic")
		}
		got, err := decodeTile(enc)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if !reflect.DeepEqual(got, tile) {
			t.Fatalf("width %d: round trip mismatch", width)
		}
		// Any flipped byte must fail the checksum (or the magic check).
		for _, pos := range []int{0, 9, len(enc) / 2, len(enc) - 1} {
			bad := append([]byte(nil), enc...)
			bad[pos] ^= 0x40
			if _, err := decodeTile(bad); err == nil {
				t.Fatalf("width %d: flipped byte %d accepted", width, pos)
			}
		}
		// Every strict prefix must be rejected, never panic.
		for n := 0; n < len(enc); n += 7 {
			if _, err := decodeTile(enc[:n]); err == nil {
				t.Fatalf("width %d: truncation to %d accepted", width, n)
			}
		}
	}
	if _, err := decodeTile(nil); err == nil {
		t.Fatal("nil input accepted")
	}
}

// TestTileRefusalsNamed: every way decodeTile refuses — framing,
// checksum, width — wraps ErrMalformedTile, and Client.Tile keeps the
// sentinel visible for a corrupt reply.
func TestTileRefusalsNamed(t *testing.T) {
	tile := &Tile{Level: 0, Index: 1, Hashes: []Hash{LeafHash([]byte("a")), LeafHash([]byte("b"))}}
	enc := encodeTile(tile)
	// reframe re-seals a body after magic with a valid checksum, so the
	// refusal must come from the fields inside it.
	reframe := func(level, index uint64, width uint32, hashes int) []byte {
		buf := wire.AppendU64(wire.AppendU64(append([]byte(nil), tileMagic[:]...), level), index)
		buf = wire.AppendU32(buf, width)
		return sealEnvelope(append(buf, make([]byte, hashes*len(Hash{}))...))
	}
	flipped := append([]byte(nil), enc...)
	flipped[20] ^= 1
	for name, data := range map[string][]byte{
		"empty":             nil,
		"wrong magic":       append([]byte("VNFGXXXX"), enc[8:]...),
		"checksum mismatch": flipped,
		"cut":               enc[:len(enc)-1],
		"width zero":        reframe(0, 1, 0, 0),
		"width over tile":   reframe(0, 1, TileWidth+1, TileWidth+1),
		"width past data":   reframe(0, 1, 3, 2),
		"width short of it": reframe(0, 1, 1, 2),
		"huge width":        reframe(0, 1, 0xFFFFFFFF, 1),
	} {
		if _, err := decodeTile(data); !errors.Is(err, ErrMalformedTile) {
			t.Errorf("%s: got %v, want ErrMalformedTile", name, err)
		}
	}

	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(mixedEntries(TileWidth)); err != nil {
		t.Fatal(err)
	}
	h := Handler(l)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if len(body) > 0 {
			body[len(body)/2] ^= 1
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	defer srv.Close()
	if _, err := NewClient(srv.URL, &key.PublicKey).Tile(0, 0, TileWidth); !errors.Is(err, ErrMalformedTile) {
		t.Fatalf("corrupt tile reply: got %v, want ErrMalformedTile", err)
	}
}

// TestLogTileContents checks Log.Tile against the tree's raw node
// hashes at every level the tree supports, full and partial tiles both,
// and the range errors for everything past the committed head.
func TestLogTileContents(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1200 // 4 full level-0 tiles + a 176-wide partial edge
	entries := mixedEntries(n)
	if _, err := l.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	for level := uint64(0); tileNodeCount(n, level) > 0; level++ {
		nodes := tileNodeCount(n, level)
		for index := uint64(0); index*TileWidth < nodes; index++ {
			width := TileWidth
			if rem := nodes - index*TileWidth; rem < TileWidth {
				width = int(rem)
			}
			tile, err := l.Tile(level, index, width)
			if err != nil {
				t.Fatalf("Tile(%d, %d, %d): %v", level, index, width, err)
			}
			if tile.Level != level || tile.Index != index || tile.Width() != width {
				t.Fatalf("Tile(%d, %d, %d) returned (%d, %d) width %d",
					level, index, width, tile.Level, tile.Index, tile.Width())
			}
			lo := index * TileWidth
			want, err := l.tree.nodes(int(level)*TileHeight, lo, lo+uint64(width))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tile.Hashes, want) {
				t.Fatalf("Tile(%d, %d, %d) disagrees with tree nodes", level, index, width)
			}
			// One hash past the committed edge must be refused.
			if _, err := l.Tile(level, index, width+1); width+1 <= TileWidth && !errors.Is(err, ErrTileRange) {
				t.Fatalf("Tile(%d, %d, %d) past edge: %v", level, index, width+1, err)
			}
		}
		// The first tile wholly past the edge must be refused.
		if _, err := l.Tile(level, nodes/TileWidth+1, 1); !errors.Is(err, ErrTileRange) {
			t.Fatalf("tile past level-%d edge: %v", level, err)
		}
	}
	for _, bad := range []struct {
		level, index uint64
		width        int
	}{
		{maxTileLevel + 1, 0, 1}, {0, 0, 0}, {0, 0, -4}, {0, 0, TileWidth + 1},
	} {
		if _, err := l.Tile(bad.level, bad.index, bad.width); !errors.Is(err, ErrTileRange) {
			t.Fatalf("Tile(%d, %d, %d): %v, want ErrTileRange", bad.level, bad.index, bad.width, err)
		}
	}
}

// TestTileAssemblerMatchesSignedRoots checks the tile recursions
// against the signed roots the log recorded at every commit, which the
// tree folds independently of the assembler: every root assembled from
// tiles equals the signed one, and every inclusion proof and consistency
// pair at every historical size verifies against them. RFC 6962 audit
// paths are unique, so a path that verifies is the path.
func TestTileAssemblerMatchesSignedRoots(t *testing.T) {
	const n = 300 // spans a full tile plus a ragged partial edge
	l, leaves, roots := grownLog(t, n)
	asm := NewTileAssembler(l, 8)
	for size := uint64(1); size <= n; size += 7 {
		root, err := asm.RootAt(size)
		if err != nil {
			t.Fatalf("RootAt(%d): %v", size, err)
		}
		if root != roots[size] {
			t.Fatalf("RootAt(%d) disagrees with the signed root", size)
		}
		for index := uint64(0); index < size; index += 11 {
			proof, err := asm.InclusionProof(index, size)
			if err != nil {
				t.Fatalf("InclusionProof(%d, %d): %v", index, size, err)
			}
			if err := VerifyInclusion(leaves[index], index, size, proof, roots[size]); err != nil {
				t.Fatalf("InclusionProof(%d, %d): %v", index, size, err)
			}
		}
		for first := uint64(0); first <= size; first += 13 {
			proof, err := asm.ConsistencyProof(first, size)
			if err != nil {
				t.Fatalf("ConsistencyProof(%d, %d): %v", first, size, err)
			}
			if err := VerifyConsistency(first, size, roots[first], roots[size], proof); err != nil {
				t.Fatalf("ConsistencyProof(%d, %d): %v", first, size, err)
			}
		}
	}
	if _, err := asm.InclusionProof(5, 4); !errors.Is(err, ErrTileRange) {
		t.Fatalf("index past size: %v", err)
	}
	if _, err := asm.ConsistencyProof(7, 3); !errors.Is(err, ErrTileRange) {
		t.Fatalf("shrinking consistency: %v", err)
	}
	hits, misses := asm.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("assembler LRU never exercised: hits=%d misses=%d", hits, misses)
	}
}

// TestColdRangeTileServing is the exhaustive cold-range matrix: a
// checkpointed log reopens with its prefix out of memory, and every
// tile — wholly below the checkpoint (read back from the cold WAL
// segments), straddling it, and on the live edge — must serve bytes
// identical to an always-resident reference log, each cold row-0 tile
// read from disk at most once (the cold-tile LRU serves it after), and
// the proofs assembled from those tiles must verify against the signed
// head.
func TestColdRangeTileServing(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	const total, ckptAt = 1200, 800
	entries := mixedEntries(total)

	l, err := OpenDurableLog(key, dir, checkpointedConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries[:ckptAt])
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries[ckptAt:])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	ref, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurableLog(key, dir, checkpointedConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	// Every tile at every level, cold through live, twice: byte-identical
	// to the reference (which also pins the cold reads to the
	// checkpoint's content).
	reads := mColdTileReads.Value()
	for range 2 {
		for level := uint64(0); tileNodeCount(total, level) > 0; level++ {
			nodes := tileNodeCount(total, level)
			for index := uint64(0); index*TileWidth < nodes; index++ {
				width := TileWidth
				if rem := nodes - index*TileWidth; rem < TileWidth {
					width = int(rem)
				}
				got, err := re.Tile(level, index, width)
				if err != nil {
					t.Fatalf("cold Tile(%d, %d, %d): %v", level, index, width, err)
				}
				want, err := ref.Tile(level, index, width)
				if err != nil {
					t.Fatal(err)
				}
				if string(encodeTile(got)) != string(encodeTile(want)) {
					t.Fatalf("Tile(%d, %d, %d) bytes diverge from reference", level, index, width)
				}
			}
		}
	}
	if got, cold := mColdTileReads.Value()-reads, uint64(ckptAt/TileWidth); got == 0 || got > cold {
		t.Fatalf("serving every tile twice read %d cold tiles, want each of the %d cold row-0 tiles at most once", got, cold)
	}

	// Proofs assembled from the reopened log's tiles verify against the
	// signed head, across the checkpoint in both directions.
	asm := NewTileAssembler(re, 0)
	sth := re.STH()
	root, err := asm.RootAt(sth.Size)
	if err != nil {
		t.Fatal(err)
	}
	if root != sth.RootHash {
		t.Fatal("tile-assembled root disagrees with the signed head")
	}
	for _, index := range []uint64{0, 255, 256, ckptAt - 1, ckptAt, total - 1} {
		proof, err := asm.InclusionProof(index, sth.Size)
		if err != nil {
			t.Fatalf("InclusionProof(%d): %v", index, err)
		}
		if err := VerifyInclusion(LeafHash(entries[index].Marshal()), index, sth.Size, proof, sth.RootHash); err != nil {
			t.Fatalf("assembled proof for %d: %v", index, err)
		}
	}
	for _, first := range []uint64{1, 255, 256, ckptAt, total} {
		proof, err := asm.ConsistencyProof(first, total)
		if err != nil {
			t.Fatalf("ConsistencyProof(%d, %d): %v", first, total, err)
		}
		firstRoot, err := rootAt(ref, first)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyConsistency(first, total, firstRoot, sth.RootHash, proof); err != nil {
			t.Fatalf("assembled consistency %d → %d: %v", first, total, err)
		}
	}
}

// TestTileServingTakesNoCommitLockAndHashesNothing pins the no-contention
// claim: a full tile is served through the HTTP handler while the test
// holds the log's commit lock (so any acquisition — including the
// cold read path's — would deadlock and time the request out), and its
// bytes are exactly the tree's resident nodes for those coordinates.
func TestTileServingTakesNoCommitLockAndHashesNothing(t *testing.T) {
	key := testSigner(t)
	l, err := OpenDurableLog(key, t.TempDir(), StoreConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, mixedEntries(600))
	nodes, err := l.tree.nodes(0, 0, TileWidth)
	if err != nil {
		t.Fatal(err)
	}
	want := &Tile{Level: 0, Index: 0, Hashes: nodes}

	srv := httptest.NewServer(Handler(l))
	defer srv.Close()
	client := NewClient(srv.URL, &key.PublicKey)

	l.mu.Lock()
	got := make(chan *Tile, 1)
	fail := make(chan error, 1)
	go func() {
		tile, err := client.Tile(0, 0, TileWidth)
		if err != nil {
			fail <- err
			return
		}
		got <- tile
	}()
	select {
	case tile := <-got:
		if string(encodeTile(tile)) != string(encodeTile(want)) {
			l.mu.Unlock()
			t.Fatal("served tile differs from the tree's nodes")
		}
	case err := <-fail:
		l.mu.Unlock()
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		l.mu.Unlock()
		t.Fatal("tile request blocked while the commit lock was held")
	}
	l.mu.Unlock()
}

// TestCheckpointedReopenHydratesNothing: after commits that complete
// tiles, a checkpoint and Close, the reopen must leave the cold prefix
// on disk — nothing at open may read a cold tile back.
func TestCheckpointedReopenHydratesNothing(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	entries := mixedEntries(40 * TileWidth)
	for len(entries) > 0 {
		if _, err := l.AppendBatch(entries[:4*TileWidth]); err != nil {
			t.Fatal(err)
		}
		entries = entries[4*TileWidth:]
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	reads := mColdTileReads.Value()
	re, err := OpenDurableLog(key, dir, StoreConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	re.mu.RLock()
	base := re.entries.base
	re.mu.RUnlock()
	if base == 0 {
		t.Fatal("reopen loaded the cold prefix (entries.base is 0)")
	}
	if got := mColdTileReads.Value() - reads; got != 0 {
		t.Fatalf("reopen read %d cold tiles, want none", got)
	}
}

// TestOldStatedirTileCacheIgnored: a store written by a build that kept
// a statedir tile cache holds tiles/ and tiles/published. It must open
// to the same head and serve tiles byte-identical to a resident
// reference log; the directory is never read, written or refused. The
// planted tile file carries valid framing with wrong hashes, so serving
// it would show.
func TestOldStatedirTileCacheIgnored(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	entries := mixedEntries(600)
	l, err := OpenDurableLog(key, dir, checkpointedConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries[:400])
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, entries[400:])
	head := l.STH()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	marker := &Tile{Level: 0, Index: 0, Hashes: make([]Hash, TileWidth)}
	for i := range marker.Hashes {
		for j := range marker.Hashes[i] {
			marker.Hashes[i][j] = 0xA5
		}
	}
	tilesDir := filepath.Join(dir, "tiles")
	planted := map[string][]byte{
		"tile-0-00000000000000000000.til": encodeTile(marker),
		"published":                       []byte("600"),
	}
	if err := os.Mkdir(tilesDir, 0o700); err != nil {
		t.Fatal(err)
	}
	for name, data := range planted {
		if err := os.WriteFile(filepath.Join(tilesDir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}

	ref, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurableLog(key, dir, checkpointedConfig(0))
	if err != nil {
		t.Fatalf("store with an old tiles/ directory refused: %v", err)
	}
	defer re.Close()
	if sth := re.STH(); sth.Size != head.Size || sth.RootHash != head.RootHash {
		t.Fatalf("reopened head (%d, %x), want (%d, %x)", sth.Size, sth.RootHash, head.Size, head.RootHash)
	}
	for level := uint64(0); tileNodeCount(600, level) > 0; level++ {
		nodes := tileNodeCount(600, level)
		for index := uint64(0); index*TileWidth < nodes; index++ {
			width := int(min(nodes-index*TileWidth, TileWidth))
			got, err := re.Tile(level, index, width)
			if err != nil {
				t.Fatalf("Tile(%d, %d, %d): %v", level, index, width, err)
			}
			want, err := ref.Tile(level, index, width)
			if err != nil {
				t.Fatal(err)
			}
			if string(encodeTile(got)) != string(encodeTile(want)) {
				t.Fatalf("Tile(%d, %d, %d) bytes diverge from reference", level, index, width)
			}
		}
	}
	// Commits that complete tiles write nothing under tiles/ either.
	if _, err := re.AppendBatch(mixedEntries(TileWidth)); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	names, err := os.ReadDir(tilesDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(planted) {
		t.Fatalf("tiles/ holds %d files after reopen, want the %d planted", len(names), len(planted))
	}
	for name, data := range planted {
		got, err := os.ReadFile(filepath.Join(tilesDir, name))
		if err != nil || string(got) != string(data) {
			t.Fatalf("tiles/%s rewritten: %v", name, err)
		}
	}
}

// TestTileHTTPCacheHeaders pins the cacheability matrix: what a front
// cache may keep forever, briefly, or never.
func TestTileHTTPCacheHeaders(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(mixedEntries(600)); err != nil { // 2 full tiles + 88-wide edge
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(l))
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, resp.Header.Get("Cache-Control")
	}
	cases := []struct {
		path   string
		status int
		cache  string
	}{
		{"/translog/v1/tile/0/0", 200, cacheImmutable},
		{"/translog/v1/tile/0/1", 200, cacheImmutable},
		{"/translog/v1/tile/1/0.p/2", 200, cachePartialTile},
		{"/translog/v1/tile/0/2.p/88", 200, cachePartialTile},
		{"/translog/v1/tile/0/2", 404, ""},                 // right edge not full yet
		{"/translog/v1/tile/0/2.p/89", 404, ""},            // one past the edge
		{"/translog/v1/tile/8/0", 404, ""},                 // level beyond maxTileLevel
		{"/translog/v1/tile/0/72057594037927937", 404, ""}, // 2^56+1: index·TileWidth would wrap to tile 1
		{"/translog/v1/tile/0/0.p/256", 404, ""},           // full width via partial form
		{"/translog/v1/tile/0/0.p/0", 404, ""},             // zero width
		{"/translog/v1/tile/0/junk", 404, ""},              // malformed index
		{"/translog/v1/tile/0", 404, ""},                   // missing index
		{"/translog/v1/tile/0/0/1/2", 404, ""},             // junk suffix
		{"/translog/v1/sth", 200, cacheNoCache},
		{"/translog/v1/entries?start=0&count=10", 200, cacheImmutable},
		{"/translog/v1/entries?start=590&count=20", 200, cacheNoCache}, // clamped at the head
		{"/translog/v1/entries?start=0&count=0", 200, cacheNoCache},
		{"/translog/v1/inclusion?index=3&size=600", 404, ""},      // retired: proofs fold from tiles
		{"/translog/v1/consistency?first=10&second=600", 404, ""}, // retired: proofs fold from tiles
	}
	for _, c := range cases {
		resp, cache := get(c.path)
		if resp.StatusCode != c.status {
			t.Errorf("GET %s: status %d, want %d", c.path, resp.StatusCode, c.status)
			continue
		}
		if c.status == 200 && cache != c.cache {
			t.Errorf("GET %s: Cache-Control %q, want %q", c.path, cache, c.cache)
		}
	}
}

// TestClientTileProofSourceEndToEnd drives the full remote path: lookup
// without a server-computed proof, tile fetches over HTTP, local
// assembly, and the credential checker verdict on the finished bundle.
func TestClientTileProofSourceEndToEnd(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	entries := mixedEntries(700)
	if _, err := l.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(l))
	defer srv.Close()
	client := NewClient(srv.URL, &key.PublicKey)

	source := NewTileProofSource(client, 16)
	serial := issuedSerial(t, entries)
	pb, err := source.ProveSerial(serial)
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Verify(&key.PublicKey); err != nil {
		t.Fatalf("assembled bundle fails verification: %v", err)
	}
	local, err := logProofs(l).ProveSerial(serial)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pb, local) {
		t.Fatal("remote bundle differs from the in-process one")
	}

	// The second proof for the same serial reuses cached tiles: zero new
	// misses.
	_, misses := source.Stats()
	if _, err := source.ProveSerial(serial); err != nil {
		t.Fatal(err)
	}
	if _, after := source.Stats(); after != misses {
		t.Fatalf("repeat proof missed the tile cache: %d → %d", misses, after)
	}

	// Revoked and never-logged keep their distinct verdicts through the
	// ?proof=0 path.
	var revokedSerial string
	for _, e := range entries {
		if e.Type == EntryRevoke {
			revokedSerial = e.Serial
			break
		}
	}
	if _, err := source.ProveSerial(revokedSerial); !errors.Is(err, ErrLogRevoked) {
		t.Fatalf("revoked serial: %v", err)
	}
	if _, err := source.ProveSerial("no-such-serial"); !errors.Is(err, ErrNotLogged) {
		t.Fatalf("unknown serial: %v", err)
	}
}

// TestClientsShareTransportConnections pins the pooled-transport
// satellite: many clients against one server reuse one idle connection
// instead of opening one per client.
func TestClientsShareTransportConnections(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(mixedEntries(10)); err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int32
	srv := httptest.NewUnstartedServer(Handler(l))
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	for i := 0; i < 4; i++ {
		c := NewClient(srv.URL, &key.PublicKey)
		for j := 0; j < 3; j++ {
			if _, err := c.STH(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := conns.Load(); got > 2 {
		t.Fatalf("12 sequential requests from 4 clients opened %d connections, want the shared pool to reuse 1", got)
	}
}

// TestGossipTileProofs checks a witness advancing on tile-assembled
// consistency proofs: same verdicts, no consistency-endpoint dependency.
func TestGossipTileProofs(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	entries := mixedEntries(900)
	if _, err := l.AppendBatch(entries[:400]); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(l))
	defer srv.Close()

	pool := NewGossipPool("w0", NewWitness(&key.PublicKey), NewClient(srv.URL, &key.PublicKey))
	if err := pool.Exchange(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(entries[400:]); err != nil {
		t.Fatal(err)
	}
	if err := pool.Exchange(); err != nil {
		t.Fatal(err)
	}
	last, seen := pool.Witness().Last()
	if !seen || last.Size != 900 {
		t.Fatalf("witness head %d (seen=%v), want 900", last.Size, seen)
	}
	hits, misses := pool.proofs.Stats()
	if hits+misses == 0 {
		t.Fatal("tile assembler never consulted for the advance")
	}
}
