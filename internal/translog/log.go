package translog

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"vnfguard/internal/obs"
	"vnfguard/internal/sigmemo"
)

// Errors.
var (
	ErrNotLogged  = errors.New("translog: no log entry for credential") //lint:allow unusedexport lookup error contract of exported TileProofSource.ProveSerial; errors.Is target
	ErrBadSTH     = errors.New("translog: tree head signature invalid") //lint:allow unusedexport verification error contract of exported Log/Client methods; errors.Is target
	ErrLogRevoked = errors.New("translog: credential revoked in log")
	ErrIndexRange = errors.New("translog: entry index out of range") //lint:allow unusedexport read error contract of exported Log.Entry; errors.Is target
	ErrClosedLog  = errors.New("translog: appender closed")          //lint:allow unusedexport append error contract of exported ShardedAppender methods; errors.Is target
)

// SignedTreeHead is the log's signed commitment to its state at one size:
// whoever holds two of these can demand a consistency proof between them.
type SignedTreeHead struct {
	Size      uint64 `json:"size"`
	RootHash  Hash   `json:"root_hash"`
	Timestamp int64  `json:"timestamp"` // Unix milliseconds
	// Signature is an ASN.1 ECDSA signature by the log key (the VM's CA
	// key) over the canonical tree-head encoding.
	Signature []byte `json:"signature"`
}

// sthSigPrefix domain-separates tree-head signatures from every other use
// of the CA key.
const sthSigPrefix = "vnfguard-translog-sth-v1"

// entryArena is the Log's committed-entry storage: the canonical
// encodings in fixed chunks of TileWidth entries, each chunk one
// pointer-free byte slice holding its entries' end offsets and then
// their bytes. Entries decode on read. Compared to a []Entry, the arena
// hands the garbage collector no string headers to scan — a
// multi-million-entry log costs a GC cycle a few thousand chunk
// pointers — and it holds the exact bytes the tree hashed, so a decode
// can never disagree with the leaf. Only the last chunk grows, so growth
// copies at most one chunk's bytes; sized from the chunk before it, a
// chunk keeps little slack (0.08% over 2^20 audit-log-shaped entries).
type entryArena struct {
	// base is the global index of the first resident entry. A
	// checkpoint evicts the chunks wholly below it (evict), and a
	// checkpointed open adopts only the WAL suffix; entries below base
	// are read back a tile at a time from the cold WAL segments
	// (coldReader).
	base uint64
	n    uint64 // entries stored, cold prefix included
	// chunks[c] holds entries [c·TileWidth, (c+1)·TileWidth): a table
	// of TileWidth little-endian uint32 end offsets into the bytes that
	// follow it (appendPrepared caps an entry at maxEntryBytes, so a
	// chunk stays under 256 MiB). Chunks wholly below base are nil, and
	// the table slots of cold entries in the chunk holding base are zero.
	chunks [][]byte
	// spare holds chunks a checkpoint evicted, for add to reuse.
	spare [][]byte
}

// maxSpareChunks bounds the evicted chunks the arena and the tree each
// keep for reuse: one checkpoint interval of 16 Ki entries. Reused, they
// spare the collector a durable log's whole history passing through
// the heap once.
const maxSpareChunks = 64

// arenaTable is the size of a chunk's end-offset table.
const arenaTable = 4 * TileWidth

// count returns the number of stored entries (cold prefix included).
func (a *entryArena) count() uint64 { return a.n }

// add appends one canonical encoding (copying it out of the caller's
// buffer).
func (a *entryArena) add(payload []byte) {
	c, slot := a.n/TileWidth, int(a.n%TileWidth)
	if have := uint64(len(a.chunks)); c >= have {
		// A new chunk, sized like the full chunk before it: entries
		// of one log run to similar sizes.
		hint := len(payload)
		if c > 0 && c == have && len(a.chunks[c-1]) > arenaTable {
			hint = len(a.chunks[c-1]) - arenaTable
		}
		a.chunks = append(a.chunks, make([][]byte, c+1-have)...)
		if k := len(a.spare); k > 0 {
			// A spare's stale offsets are overwritten before they are read.
			a.chunks[c], a.spare = a.spare[k-1][:arenaTable], a.spare[:k-1]
		} else {
			a.chunks[c] = make([]byte, arenaTable, arenaTable+hint)
		}
	}
	ch := a.chunks[c]
	if need := len(ch) + len(payload); need > cap(ch) {
		// Grow to the chunk's size projected from its entries so far,
		// at most doubling: a small log's first chunk grows as append
		// would, a large log's chunk about once.
		projected := arenaTable + (need-arenaTable)*TileWidth/(slot+1)
		ch = append(make([]byte, 0, max(need, min(projected, 2*cap(ch)))), ch...)
	}
	a.chunks[c] = chunkAppend(ch, slot, payload)
	a.n++
}

// chunkAppend appends payload to an arena chunk as the entry in slot.
func chunkAppend(ch []byte, slot int, payload []byte) []byte {
	ch = append(ch, payload...)
	binary.LittleEndian.PutUint32(ch[4*slot:], uint32(len(ch)-arenaTable))
	return ch
}

// chunkPayload returns the entry in slot of an arena chunk.
func chunkPayload(ch []byte, slot int) []byte {
	start := uint32(0)
	if slot > 0 {
		start = binary.LittleEndian.Uint32(ch[4*slot-4:])
	}
	return ch[arenaTable+start : arenaTable+binary.LittleEndian.Uint32(ch[4*slot:])]
}

// payload returns the stored canonical encoding of entry i (callers
// have checked base ≤ i < count).
func (a *entryArena) payload(i uint64) []byte {
	return chunkPayload(a.chunks[i/TileWidth], int(i%TileWidth))
}

// decodeStored decodes a canonical encoding the log stored: one
// produced by Entry.Marshal, validated by recovery or checked against
// the tree by a cold tile read. A decode failure is a programming
// error, not a runtime condition.
func decodeStored(p []byte) Entry {
	e, err := unmarshalEntry(p)
	if err != nil {
		panic("translog: stored entry undecodable: " + err.Error())
	}
	return e
}

// truncate discards entries from global index n on — the rollback of a
// failed commit (always within the resident suffix: commits only ever
// grow past base).
func (a *entryArena) truncate(n uint64) {
	if n >= a.n {
		return
	}
	keep := n / TileWidth
	if slot := n % TileWidth; slot > 0 {
		ch := a.chunks[keep]
		a.chunks[keep] = ch[:arenaTable+binary.LittleEndian.Uint32(ch[4*slot-4:])]
		keep++
	}
	clear(a.chunks[keep:])
	a.chunks = a.chunks[:keep]
	a.n = n
}

// evict drops the chunks wholly below n, a size a durable checkpoint
// covers, and raises base past them. It keeps the ones below reuse, a
// chunk index, as spares: nothing else holds them.
func (a *entryArena) evict(n, reuse uint64) {
	c := min(n/TileWidth, uint64(len(a.chunks)))
	for _, ch := range a.chunks[:min(c, reuse)] {
		if ch != nil && len(a.spare) < maxSpareChunks {
			a.spare = append(a.spare, ch)
		}
	}
	clear(a.chunks[:c])
	a.base = max(a.base, c*TileWidth)
}

// signingDigest is the SHA-256 the STH signature covers.
func (sth SignedTreeHead) signingDigest() [sha256.Size]byte {
	buf := make([]byte, 0, len(sthSigPrefix)+8+sha256.Size+8)
	buf = append(buf, sthSigPrefix...)
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], sth.Size)
	buf = append(buf, u64[:]...)
	buf = append(buf, sth.RootHash[:]...)
	binary.BigEndian.PutUint64(u64[:], uint64(sth.Timestamp))
	buf = append(buf, u64[:]...)
	return sha256.Sum256(buf)
}

// equal reports whether two heads are the same signed statement: size,
// root, timestamp and signature.
func (sth SignedTreeHead) equal(o SignedTreeHead) bool {
	return sth.Size == o.Size && sth.RootHash == o.RootHash && sth.Timestamp == o.Timestamp &&
		bytes.Equal(sth.Signature, o.Signature)
}

// Verify checks the tree-head signature against the log's public key.
func (sth SignedTreeHead) Verify(pub *ecdsa.PublicKey) error {
	return sth.verify(pub, nil)
}

// verify is Verify through a relying party's memo of heads whose
// signature already verified; a nil memo verifies every time.
func (sth SignedTreeHead) verify(pub *ecdsa.PublicKey, sigs *sigmemo.Memo) error {
	if !sigs.Verify(pub, sth.signingDigest(), sth.Signature) {
		return ErrBadSTH
	}
	return nil
}

// Log is the append-only transparency log. All mutation is funnelled
// through commit, which recomputes the root and signs a fresh tree head
// once per batch — the cost that the batched appender amortises.
type Log struct {
	signer crypto.Signer

	// store, when non-nil, durably persists every committed batch before
	// it becomes visible (see OpenDurableLog). NewLog leaves it nil: a
	// purely in-memory log.
	store *Store

	mu      sync.RWMutex
	entries entryArena
	tree    *tree
	sth     SignedTreeHead
	// issuance maps a credential serial to the index of its latest
	// issuance entry (enroll or provision), maintained on commit exactly
	// like revoked — so a proof lookup is one map read plus the audit
	// path, never a scan over the serial's history.
	issuance map[string]uint64
	// revoked marks serials with an EntryRevoke in the log.
	revoked map[string]bool
	// shardStreams/shardIdx, when enabled (EnableShardStreams), maintain
	// the per-shard view of the committed sequence: shardIdx[s] lists the
	// global indices of shard s's entries in commit order — what the
	// partitioned witness audit reads so a witness assigned shard s never
	// scans the other shards' entries. Guarded by mu.
	shardStreams int
	shardIdx     [][]uint64

	// cold reads the tiles of entries below the newest checkpoint back
	// from the cold WAL segments (nil for an in-memory log, which never
	// checkpoints and so never evicts).
	cold *coldReader
	// ckptMu serialises checkpoint writes and the evictions that follow
	// them (the background writer against explicit Checkpoint calls, and
	// against EnableShardStreams while it indexes the cold prefix).
	ckptMu sync.Mutex
	// ckptBusy/ckptWG coordinate the background checkpoint goroutine:
	// at most one in flight, and Close waits it out before tearing the
	// store down.
	ckptBusy atomic.Bool
	ckptWG   sync.WaitGroup
	// evictTo is the newest checkpoint's size: evict drops what lies
	// below it, under the log lock.
	evictTo atomic.Uint64

	// committed is the size covered by the latest acknowledged commit —
	// what tile serving may expose. An atomic, not l.mu: the tile read
	// path must never wait on a commit holding the lock across an fsync.
	committed atomic.Uint64
}

// NewLog creates a log whose tree heads are signed by signer (the
// Verification Manager passes its CA key). The empty tree head is signed
// immediately so monitors can anchor from size zero.
func NewLog(signer crypto.Signer) (*Log, error) {
	l := &Log{
		signer:   signer,
		tree:     newTree(),
		issuance: make(map[string]uint64),
		revoked:  make(map[string]bool),
	}
	sth, err := l.signHead(0, emptyRoot())
	if err != nil {
		return nil, err
	}
	l.sth = sth
	return l, nil
}

func (l *Log) signHead(size uint64, root Hash) (SignedTreeHead, error) {
	sth := SignedTreeHead{Size: size, RootHash: root, Timestamp: time.Now().UnixMilli()}
	digest := sth.signingDigest()
	sig, err := l.signer.Sign(rand.Reader, digest[:], crypto.SHA256)
	if err != nil {
		return SignedTreeHead{}, fmt.Errorf("translog: signing tree head: %w", err)
	}
	sth.Signature = sig
	return sth, nil
}

// Append commits one entry immediately (one root recomputation and one
// tree-head signature) and returns its index. Hot paths should prefer a
// ShardedAppender, which batches these costs.
func (l *Log) Append(e Entry) (uint64, error) {
	indices, err := l.AppendBatch([]Entry{e})
	if err != nil {
		return 0, err
	}
	return indices[0], nil
}

// AppendBatch commits a batch of entries under a single root recomputation
// and tree-head signature, returning their indices.
func (l *Log) AppendBatch(batch []Entry) ([]uint64, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	payloads, hashes := prepareEntries(batch, 1)
	first, err := l.appendPrepared(batch, payloads, hashes, nil)
	if err != nil {
		return nil, err
	}
	indices := make([]uint64, len(batch))
	for i := range indices {
		indices[i] = first + uint64(i)
	}
	return indices, nil
}

// appendPrepared commits entries whose canonical encodings and leaf
// hashes were computed by the caller — the merging sequencer prepares
// its large merged cycles on every core before funnelling them through
// the log lock here. tr is the sequencer's per-cycle trace, nil for
// ordinary batches; the phase histograms are observed either way.
// Returns the first committed index; the batch occupies
// [first, first+len(batch)).
func (l *Log) appendPrepared(batch []Entry, payloads [][]byte, hashes []Hash, tr *obs.CycleTrace) (uint64, error) {
	// Enforce the recovery-side frame bound before anything changes: an
	// oversized record would commit durably but then fail every future
	// open with ErrStateCorrupt — a log that bricks itself. An in-memory
	// log holds to the same bound, which also keeps an arena chunk's
	// offsets within uint32.
	for _, p := range payloads {
		if len(p) > maxEntryBytes {
			return 0, fmt.Errorf("%w: encoding is %d bytes, record limit %d", ErrEntryTooLarge, len(p), maxEntryBytes)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cold != nil {
		l.evict()
	}
	first := l.entries.count()
	for _, p := range payloads {
		l.entries.add(p)
	}
	phase := time.Now()
	size := l.tree.append(hashes, prepareWorkers())
	// The commit must be atomic: a failure after the tree grew would
	// leave entries that a later head signs over but the serial indexes
	// never saw — so roll the tree and entry list back on any error.
	rollback := func() {
		l.entries.truncate(first)
		l.tree.truncate(first)
	}
	root, err := l.tree.rootAt(size)
	if err != nil {
		rollback()
		return 0, err
	}
	merkle := time.Since(phase)
	mPhaseMerkle.Observe(merkle)
	phase = time.Now()
	sth, err := l.signHead(size, root)
	if err != nil {
		rollback()
		return 0, err
	}
	sign := time.Since(phase)
	mPhaseSign.Observe(sign)
	if tr != nil {
		tr.TreeHash, tr.Sign = merkle, sign
	}
	if l.store != nil {
		// Durability before visibility: the batch's records hit disk
		// (fsynced) and the new head is atomically persisted before any
		// reader can obtain a proof against it. A failed persist rolls
		// the in-memory state back and latches the store failed, so the
		// log never acknowledges an entry the disk may not hold. The
		// store routes each record to its host's segment stream; the
		// global index travels inside the record, assigned here under the
		// same lock that orders the commits.
		if err := l.store.appendBatch(batch, payloads, sth, tr); err != nil {
			rollback()
			return 0, err
		}
	}
	l.sth = sth
	l.committed.Store(size)
	for i, e := range batch {
		l.indexEntry(e, first+uint64(i))
	}
	mCommits.Inc()
	mAppendedEntries.Add(uint64(len(batch)))
	mLastCommit.Mark()
	// Checkpoint trigger: the batch is committed through the whole
	// anchor chain, so this head is one every anchor will remember —
	// exactly what a checkpoint may cover. The writer runs off the
	// commit path; at most one in flight.
	if l.store != nil && l.store.checkpointDue(size) && l.ckptBusy.CompareAndSwap(false, true) {
		l.ckptWG.Add(1)
		go l.checkpointBG()
	}
	return first, nil
}

// checkpointBG is the background checkpoint writer spawned after a
// commit crosses the configured interval. Best-effort by design — on
// any error the WAL remains authoritative and the next interval
// retries.
func (l *Log) checkpointBG() {
	defer l.ckptWG.Done()
	defer l.ckptBusy.Store(false)
	_ = l.Checkpoint()
}

// Checkpoint synchronously writes a durable checkpoint covering the
// current committed head, then evicts the entry-arena and row-0 tree
// chunks wholly below it (or, while a commit holds the log lock, leaves
// that to the next commit). It first rolls every stream to a fresh
// segment, so the segments the checkpoint covers hold no record past
// it: they stay on disk untouched as the cold store, which a reopen
// skips and a cold tile read fetches from. The automatic path
// (StoreConfig.CheckpointEvery) runs this in the background after
// commits; the method is exposed for operator tooling and deterministic
// tests.
func (l *Log) Checkpoint() error {
	if l.store == nil {
		return fmt.Errorf("translog: checkpointing an in-memory log")
	}
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	l.mu.RLock()
	size := l.entries.count()
	if size == 0 || size == l.store.ckpt.Load().size {
		l.mu.RUnlock()
		return nil // nothing new to summarize
	}
	rows := l.tree.appendRows(nil, size)
	issuance := maps.Clone(l.issuance)
	revoked := maps.Clone(l.revoked)
	streamCounts, retired := l.store.rollStreams()
	l.mu.RUnlock()
	var err error
	for _, f := range retired {
		err = errors.Join(err, f.Close())
	}
	if err != nil {
		return fmt.Errorf("translog: closing rolled segment: %w", err)
	}
	ck := &checkpoint{size: size, rows: rows, streamCounts: streamCounts, issuance: issuance, revoked: revoked}
	n, err := writeCheckpointFile(l.store.dir, ck, l.signer, l.store.cfg.NoSync)
	if err != nil {
		return err
	}
	// The mark goes first: a cold read finds the evicted entries through
	// it, so it must cover them before they leave memory. Waiting here
	// for the log lock would stall every reader queued behind a commit,
	// so a busy lock leaves the eviction to the next commit, which holds
	// the lock anyway.
	l.store.ckpt.Store(&ckptMark{size: size, counts: streamCounts})
	l.evictTo.Store(size)
	if l.mu.TryLock() {
		l.evict()
		l.mu.Unlock()
	}
	mCkptBytes.Set(int64(n))
	mCkptLast.Mark()
	return nil
}

// coldSeedTiles is how many of the newest tiles a checkpoint evicts go
// straight into the cold-tile LRU: reads of the entries committed just
// before a checkpoint, as hot proofs make, then find them there rather
// than on disk.
const coldSeedTiles = 4

// evict drops the entry-arena and row-0 chunks wholly below evictTo,
// the newest checkpoint's size, when it has not yet. The newest complete
// tiles among them, coldSeedTiles at most, go to the cold-tile LRU
// first: the arena holds the bytes the tree hashed, so they need no
// check, and a complete tile's chunk never changes again. Callers hold
// l.mu for writing.
func (l *Log) evict() {
	size := l.evictTo.Load()
	if size&^(TileWidth-1) <= l.entries.base {
		return
	}
	seeded := max(size/TileWidth, coldSeedTiles) - coldSeedTiles
	var recent []*coldTile
	for c := seeded; c < size/TileWidth; c++ {
		if c*TileWidth < l.entries.base {
			continue // evicted before, or missing its cold entries
		}
		hashes, err := l.tree.nodes(0, c*TileWidth, (c+1)*TileWidth)
		if err == nil {
			recent = append(recent, &coldTile{index: c, end: (c + 1) * TileWidth, chunk: l.entries.chunks[c], hashes: hashes})
		}
	}
	// seed takes the cold reader's lock, so it also waits out any cold
	// read that loaded the previous checkpoint's mark (coldReader.tile).
	l.cold.seed(recent)
	l.entries.evict(size, seeded) // the seeded chunks live on in the LRU
	l.tree.evict(size)
}

// indexEntry maintains the serial-keyed lookup maps for one committed
// entry. Callers hold l.mu (or own the log exclusively during recovery).
func (l *Log) indexEntry(e Entry, idx uint64) {
	if l.shardStreams > 0 {
		s := ShardOf(e.Host, l.shardStreams)
		l.shardIdx[s] = append(l.shardIdx[s], idx)
	}
	if e.Serial != "" {
		l.indexSerial(e.Type, e.Serial, idx)
	}
}

// indexSerial files one serial-carrying entry at idx in the serial
// maps. Entries must arrive in index order: the latest issuance wins.
func (l *Log) indexSerial(typ EntryType, serial string, idx uint64) {
	switch typ {
	case EntryEnroll, EntryProvision:
		l.issuance[serial] = idx
	case EntryRevoke:
		l.revoked[serial] = true
	}
}

// Durable reports whether the log persists its state (OpenDurableLog).
func (l *Log) Durable() bool { return l.store != nil }

// StoreShards reports the durable store's per-host stream count — the
// count pinned at store creation, whatever StoreConfig.Shards said at
// this open. At least one for a durable log; zero for an in-memory one.
func (l *Log) StoreShards() int {
	if l.store == nil {
		return 0
	}
	return l.store.shardCount()
}

// Close releases the durable store, fsyncing the tail segment. It is a
// no-op for in-memory logs and is safe to call more than once.
func (l *Log) Close() error {
	// Wait out any in-flight background checkpoint writer before
	// locking (it snapshots under the read lock). A commit racing this
	// Close may spawn a fresh writer after the Wait, so re-check under
	// the lock — new writers can only be spawned by commits, which hold
	// it.
	for {
		l.ckptWG.Wait()
		l.mu.Lock()
		if !l.ckptBusy.Load() {
			break
		}
		l.mu.Unlock()
	}
	defer l.mu.Unlock()
	if l.store == nil {
		return nil
	}
	return l.store.Close()
}

// STH returns the latest signed tree head.
func (l *Log) STH() SignedTreeHead {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.sth
}

// Size returns the committed entry count.
func (l *Log) Size() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.entries.count()
}

// Entry returns the committed entry at index.
func (l *Log) Entry(index uint64) (Entry, error) {
	if index >= l.Size() {
		return Entry{}, ErrIndexRange
	}
	var e Entry
	err := l.eachPayload(1, func(int) uint64 { return index }, func(_ uint64, p []byte) {
		e = decodeStored(p)
	})
	return e, err
}

// Entries returns committed entries in [start, start+count), clamped to
// the log size. A range reaching below the resident suffix reads its
// cold tiles; a failed cold read is returned, never read as an empty
// range.
func (l *Log) Entries(start, count uint64) ([]Entry, error) {
	n := l.Size()
	if start >= n || count == 0 {
		return nil, nil
	}
	end := n
	if count < n-start {
		end = start + count
	}
	out := make([]Entry, 0, end-start)
	err := l.eachPayload(int(end-start), func(k int) uint64 { return start + uint64(k) }, func(_ uint64, p []byte) {
		out = append(out, decodeStored(p))
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// eachPayload hands fn the stored canonical encoding of the committed
// entries at(0), at(1), …, at(count-1), global indices in increasing
// order: a resident entry under the read lock, an entry below the arena
// base from its cold tile, read with the lock released. fn must copy
// what it keeps.
func (l *Log) eachPayload(count int, at func(k int) uint64, fn func(index uint64, p []byte)) error {
	for k := 0; k < count; {
		l.mu.RLock()
		for base := l.entries.base; k < count && at(k) >= base; k++ {
			fn(at(k), l.entries.payload(at(k)))
		}
		l.mu.RUnlock()
		if k == count {
			break
		}
		// Everything below base lies below the newest checkpoint, whose
		// mark a cold read sees, so the tile covers at(k) at least.
		tile := at(k) / TileWidth
		ct, err := l.cold.tile(tile)
		if err != nil {
			return err
		}
		for ; k < count && at(k)/TileWidth == tile && at(k) < ct.end; k++ {
			fn(at(k), ct.payload(at(k)))
		}
	}
	return nil
}

// ProofBundle packages everything a relying party needs to check that one
// entry is committed in the log: the entry, its index, the audit path and
// the signed tree head the path leads to.
type ProofBundle struct {
	Index uint64         `json:"index"`
	Entry Entry          `json:"entry"`
	Proof []Hash         `json:"proof"`
	STH   SignedTreeHead `json:"sth"`
}

// Verify checks the bundle end to end: tree-head signature, then the
// inclusion of the entry's leaf under that head.
func (pb *ProofBundle) Verify(pub *ecdsa.PublicKey) error {
	return pb.verify(pub, nil)
}

// verify is Verify with the head's signature checked through sigs (see
// SignedTreeHead.verify); the inclusion proof is always recomputed.
func (pb *ProofBundle) verify(pub *ecdsa.PublicKey, sigs *sigmemo.Memo) error {
	if err := pb.STH.verify(pub, sigs); err != nil {
		return err
	}
	return VerifyInclusion(LeafHash(pb.Entry.Marshal()), pb.Index, pb.STH.Size, pb.Proof, pb.STH.RootHash)
}

// lookupBundle resolves a serial to its proof bundle minus the audit
// path, against the current head: ErrNotLogged when the serial never
// appears, ErrLogRevoked when the log records its revocation. The lookup
// is one map read — the issuance index is maintained on commit (and
// rebuilt on recovery) rather than found by scanning entries, so a
// controller's per-handshake cost does not grow with the log. The audit
// path folds from tiles (TileProofSource), in-process and remote alike.
func (l *Log) lookupBundle(serial string) (*ProofBundle, error) {
	l.mu.RLock()
	if l.revoked[serial] {
		l.mu.RUnlock()
		return nil, ErrLogRevoked
	}
	idx, ok := l.issuance[serial]
	sth := l.sth
	l.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: serial %s", ErrNotLogged, serial)
	}
	var e Entry
	err := l.eachPayload(1, func(int) uint64 { return idx }, func(_ uint64, p []byte) {
		e = decodeStored(p)
	})
	if err != nil {
		return nil, err
	}
	return &ProofBundle{Index: idx, Entry: e, STH: sth}, nil
}

// SerialRevoked reports whether the log holds an EntryRevoke for serial.
func (l *Log) SerialRevoked(serial string) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.revoked[serial]
}
