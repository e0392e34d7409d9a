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
	// base is the global index of the first resident entry: a
	// checkpointed open adopts only the WAL suffix, and indices below
	// base stay cold until a read forces hydration (Log.hydrate), which
	// splices the prefix read from the cold WAL segments back in and
	// zeroes base.
	base uint64
	n    uint64 // entries stored, cold prefix included
	// chunks[c] holds entries [c·TileWidth, (c+1)·TileWidth): a table
	// of TileWidth little-endian uint32 end offsets into the bytes that
	// follow it (appendPrepared caps an entry at maxEntryBytes, so a
	// chunk stays under 256 MiB). Chunks wholly below base are nil, and
	// the table slots of cold entries in the chunk holding base are zero.
	chunks [][]byte
}

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
		a.chunks[c] = make([]byte, arenaTable, arenaTable+hint)
	}
	ch := a.chunks[c]
	if need := len(ch) + len(payload); need > cap(ch) {
		// Grow to the chunk's size projected from its entries so far,
		// at most doubling: a small log's first chunk grows as append
		// would, a large log's chunk about once.
		projected := arenaTable + (need-arenaTable)*TileWidth/(slot+1)
		ch = append(make([]byte, 0, max(need, min(projected, 2*cap(ch)))), ch...)
	}
	ch = append(ch, payload...)
	binary.LittleEndian.PutUint32(ch[4*slot:], uint32(len(ch)-arenaTable))
	a.chunks[c] = ch
	a.n++
}

// payload returns the stored canonical encoding of entry i (callers
// have checked base ≤ i < count).
func (a *entryArena) payload(i uint64) []byte {
	ch, slot := a.chunks[i/TileWidth], int(i%TileWidth)
	start := uint32(0)
	if slot > 0 {
		start = binary.LittleEndian.Uint32(ch[4*slot-4:])
	}
	return ch[arenaTable+start : arenaTable+binary.LittleEndian.Uint32(ch[4*slot:])]
}

// at decodes entry i. The arena only ever holds encodings produced by
// Entry.Marshal or validated by recovery, so a decode failure is a
// programming error, not a runtime condition.
func (a *entryArena) at(i uint64) Entry {
	e, err := unmarshalEntry(a.payload(i))
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

// splice adds the hydrated cold payloads (global indices [0, base))
// and makes the arena fully resident. The chunks below base are built
// fresh; only the chunk holding base is rebuilt, with its resident
// entries copied after its cold ones.
func (a *entryArena) splice(cold [][]byte) {
	var full entryArena
	for _, p := range cold {
		full.add(p)
	}
	for i := a.base; i < a.n && i%TileWidth != 0; i++ {
		full.add(a.payload(i))
	}
	if have := len(a.chunks); have < len(full.chunks) {
		a.chunks = append(a.chunks, make([][]byte, len(full.chunks)-have)...)
	}
	copy(a.chunks, full.chunks)
	a.base = 0
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

	// hydrateMu single-flights cold-prefix hydration.
	hydrateMu sync.Mutex
	// ckptMu serialises checkpoint writes (the background writer against
	// explicit Checkpoint calls).
	ckptMu sync.Mutex
	// ckptBusy/ckptWG coordinate the background checkpoint goroutine:
	// at most one in flight, and Close waits it out before tearing the
	// store down.
	ckptBusy atomic.Bool
	ckptWG   sync.WaitGroup

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
// current committed head. It first rolls every stream to a fresh
// segment, so the segments the checkpoint covers hold no record past
// it: they stay on disk untouched as the cold store, which a reopen
// skips and hydration reads. The automatic path
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
	blocks, err := l.tree.blocks(size)
	if err != nil {
		l.mu.RUnlock()
		return err
	}
	issuance := make(map[string]uint64, len(l.issuance))
	for k, v := range l.issuance {
		issuance[k] = v
	}
	revoked := make(map[string]bool, len(l.revoked))
	for k := range l.revoked {
		revoked[k] = true
	}
	streamCounts, retired := l.store.rollStreams()
	l.mu.RUnlock()
	for _, f := range retired {
		err = errors.Join(err, f.Close())
	}
	if err != nil {
		return fmt.Errorf("translog: closing rolled segment: %w", err)
	}
	ck := &checkpoint{size: size, blocks: blocks,
		streamCounts: streamCounts, issuance: issuance, revoked: revoked}
	n, err := writeCheckpointFile(l.store.dir, ck, l.signer, l.store.cfg.NoSync)
	if err != nil {
		return err
	}
	l.store.ckpt.Store(&ckptMark{size: size, counts: streamCounts})
	mCkptBytes.Set(int64(n))
	mCkptLast.Mark()
	return nil
}

// hydrate loads the cold prefix back into memory: the cold WAL
// segments are read, the prefix tree is rebuilt and must reproduce the
// suffix tree's root at the checkpoint — the frozen blocks the anchors
// verified at open — and the tree and entry arena are spliced back to
// full residency. Single-flighted; concurrent cold readers block on
// hydrateMu and find the work already done.
func (l *Log) hydrate() error {
	l.hydrateMu.Lock()
	defer l.hydrateMu.Unlock()
	l.mu.RLock()
	base := l.entries.base
	store := l.store
	l.mu.RUnlock()
	if base == 0 {
		return nil // already resident
	}
	start := time.Now()
	frozen, err := l.tree.rootAt(base)
	if err != nil {
		return err
	}
	payloads, hashes, err := store.loadCold(base)
	if err != nil {
		return err
	}
	pre := newTree()
	pre.append(hashes, prepareWorkers())
	root, err := pre.rootAt(base)
	if err != nil {
		return err
	}
	if root != frozen {
		return fmt.Errorf("%w: hydrated cold prefix hashes to a different root than the checkpoint covers",
			ErrStateTampered)
	}
	l.mu.Lock()
	l.tree.splice(pre)
	l.entries.splice(payloads)
	l.mu.Unlock()
	mColdHydrations.Inc()
	mColdHydrationSeconds.Observe(time.Since(start))
	return nil
}

// withHydration runs fn, hydrating the cold prefix and retrying once
// when it reports a cold range. After a successful hydration the tree
// and arena are fully resident, so the retry cannot see errColdRange
// again.
func (l *Log) withHydration(fn func() error) error {
	err := fn()
	if !errors.Is(err, errColdRange) {
		return err
	}
	if herr := l.hydrate(); herr != nil {
		return herr
	}
	return fn()
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
	var e Entry
	err := l.withHydration(func() error {
		l.mu.RLock()
		defer l.mu.RUnlock()
		if index >= l.entries.count() {
			return ErrIndexRange
		}
		if index < l.entries.base {
			return errColdRange
		}
		e = l.entries.at(index)
		return nil
	})
	if err != nil {
		return Entry{}, err
	}
	return e, nil
}

// Entries returns committed entries in [start, start+count), clamped to
// the log size. A range reaching below the resident suffix hydrates the
// cold prefix first; a failed hydration is returned, never read as an
// empty range.
func (l *Log) Entries(start, count uint64) ([]Entry, error) {
	var out []Entry
	err := l.withHydration(func() error {
		l.mu.RLock()
		defer l.mu.RUnlock()
		n := l.entries.count()
		if start >= n || count == 0 {
			return nil
		}
		if start < l.entries.base {
			return errColdRange
		}
		end := n
		if count < n-start {
			end = start + count
		}
		out = make([]Entry, 0, end-start)
		for i := start; i < end; i++ {
			out = append(out, l.entries.at(i))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
	err := l.withHydration(func() error {
		l.mu.RLock()
		defer l.mu.RUnlock()
		if idx < l.entries.base {
			return errColdRange
		}
		e = l.entries.at(idx)
		return nil
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
