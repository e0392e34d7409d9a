package translog

import (
	"cmp"
	"crypto"
	"crypto/ecdsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"vnfguard/internal/statedir"
)

// Recovery: opening a durable log replays every segment, truncates a torn
// tail record, rebuilds the Merkle tree and serial index, and then hands
// the recovered state to the trust-anchor chain (anchor.go) for
// verification. The store's own head (sth.json) checks the recomputed root
// against the durably persisted signed tree head — the local anchor of
// the same guarantee the witness provides remotely — and any configured
// extra anchors (witness head, enclave-sealed counter) check their own
// independently rooted memories, so a statedir restored from an old
// snapshot (rollback) or edited in place (tamper) is refused loudly by
// whichever anchor still remembers the newer history.
//
// The store replays as one segment stream per host slot, whose records
// carry their global index. Each stream gets the same refusals — torn
// tails may only be at a stream's own end, interior damage is
// corruption — and every record of every segment read is checksummed.
// No segment straddles a checkpoint (checkpoint.go), so the segments
// starting below a stream's checkpointed count hold only cold records:
// the replay skips them unread, and every record it does read sits at
// or past the checkpoint (one below it is corruption). The scan is
// zero-copy: payloads are sub-slices of the segment buffers until the
// Log's entry arena copies the suffix in. The streams are then merged
// by placement rather than sorted: the scan counts the n records at or
// past the checkpoint, and each lands in the slot its global index
// names, so the merge is O(n).
// A record at or past checkpoint+n cannot be part of the contiguous
// prefix and goes to a small overflow set that only duplicate detection
// reads; a global index seen twice is corruption. With several streams
// the crash window widens in one understood way: a crash mid-cycle can
// land some streams' records and not others', so the records beyond the
// persisted head may have index gaps. Recovery keeps the longest
// contiguous prefix and treats everything past the first gap as the torn
// tail it is; the anchors see the prefix, so a "gap" that would cut into
// committed history is still refused as a rollback before anything is
// touched.
//
// Placing a suffix record is the whole of its second pass: the one entry
// parser validates it in place (an undecodable entry is still
// corruption), its leaf hash goes into the same slot of a presized hash
// array through one reused digest, and only a serial-carrying record
// leaves anything more behind — its slot, type and serial, which the
// serial index replays in global order. No record is decoded into an
// Entry, and the tree is built from the hash array by the same bulk
// append every commit uses.

// recovered is the verified disk state handed from recovery to the Log.
type recovered struct {
	// payloads holds each entry's canonical encoding exactly as the WAL
	// replay read it — sub-slices of the segment buffers, which the Log
	// copies into its entry arena — so recovery never re-marshals what it
	// already read and validated, and no segment buffer outlives the open.
	payloads [][]byte
	// hashes holds the leaf hash of each payload, computed in the replay
	// pass that validated it; the tree is built from them in one append.
	hashes []Hash
	// serials lists the recovered records that carry a credential serial,
	// in global order — all the serial index needs, so no other field of
	// a recovered entry is ever decoded.
	serials []serialRecord
	// tree is the Merkle tree rebuilt over the recovered entries; the
	// Log adopts it directly instead of hashing everything twice.
	tree *tree
	// sth is the persisted head when it covered exactly the recovered
	// size; when the disk holds entries beyond the head (a crash between
	// the record fsync and the head replacement) sthStale is true and the
	// caller must sign a fresh head over the full recovered tree.
	sth      SignedTreeHead
	sthStale bool
	// tails describes where appends resume, one entry per host-slot
	// stream: the pinned count, or the configured one for a fresh store.
	tails []streamTail
	// ckpt is the verified checkpoint the replay was based from (nil for
	// a full replay). With a checkpoint, payloads/hashes hold only the
	// suffix — global ordinals [ckpt.size, size) — and tree is reopened
	// from the checkpoint's rows.
	ckpt *checkpoint
}

// size is the recovered global entry count: the checkpoint base plus
// the replayed suffix.
func (r *recovered) size() uint64 {
	if r.ckpt != nil {
		return r.ckpt.size + uint64(len(r.payloads))
	}
	return uint64(len(r.payloads))
}

// serialRecord is what recovery keeps of a record carrying a serial:
// its slot (global index minus the checkpoint base), its type, and the
// serial itself, a sub-slice of the segment buffer.
type serialRecord struct {
	slot   int
	typ    EntryType
	serial []byte
}

// streamTail is one stream's resumption point.
type streamTail struct {
	// count is the number of records surviving in the stream.
	count uint64
	// tailFirst/tailClean locate the open tail segment and its intact
	// length; hasTail is false for a stream with no segment files.
	tailFirst uint64
	tailClean int64
	hasTail   bool
	// segments are the firsts of every segment of the stream the open
	// keeps, oldest first: the cold ones, then the replayed ones.
	segments []uint64
}

// trimOp is a deferred physical mutation of the store: recovery must not
// modify a store it is about to refuse (it is incident evidence), so
// torn-tail truncations and beyond-gap removals are collected and
// applied only after every anchor accepted the state.
type trimOp struct {
	path     string
	truncate int64 // truncate to this length...
	remove   bool  // ...or remove the file entirely
}

// applyTrims performs the deferred mutations durably: each truncated
// file is fsynced and the parent directory is fsynced once at the end
// (removals are only durable when the directory is). Without the syncs
// a crash right after recovery can resurrect the trimmed tail, and the
// next open re-discovers — and re-reports — torn state this one already
// repaired.
func applyTrims(dir string, trims []trimOp, noSync bool) error {
	for _, op := range trims {
		if op.remove {
			if err := os.Remove(op.path); err != nil {
				return fmt.Errorf("translog: removing uncommitted segment: %w", err)
			}
			continue
		}
		f, err := os.OpenFile(op.path, os.O_RDWR, 0o600)
		if err != nil {
			return fmt.Errorf("translog: truncating torn tail: %w", err)
		}
		if err := f.Truncate(op.truncate); err != nil {
			f.Close()
			return fmt.Errorf("translog: truncating torn tail: %w", err)
		}
		if !noSync {
			if err := f.Sync(); err != nil {
				f.Close()
				return fmt.Errorf("translog: syncing trimmed tail: %w", err)
			}
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("translog: closing trimmed tail: %w", err)
		}
	}
	if len(trims) > 0 && !noSync {
		return statedir.SyncDir(dir)
	}
	return nil
}

// recoverDir replays the store directory and verifies it against the
// trust-anchor chain anchors, whose first link is head, the store's own.
func recoverDir(dir string, cfg StoreConfig, head *WitnessAnchor, anchors []TrustAnchor) (*recovered, error) {
	recoverStart := time.Now()
	if cfg.Shards > maxShardSlots {
		//lint:allow errtaxonomy config validation rejecting the open request, not a classification of on-disk state
		return nil, fmt.Errorf("translog: %d shards exceeds the %d-slot segment naming limit", cfg.Shards, maxShardSlots)
	}
	shardFirsts, err := listStreams(dir)
	if err != nil {
		return nil, err
	}
	shards, haveMeta, err := loadShardCount(dir)
	if err != nil {
		return nil, err
	}
	// A verified checkpoint turns the replay into a suffix replay: the
	// cold prefix is summarized by the checkpoint's tree rows, and only
	// records at or past the checkpoint are decoded. A damaged or
	// re-signed checkpoint refuses the open, it is never silently
	// ignored; one newer than what an anchor remembers is that anchor's
	// refusal (RecoveredState.check).
	ckpt, err := loadCheckpoint(dir, head.pub)
	if err != nil {
		return nil, err
	}
	// The pinned count from store creation wins over whatever cfg.Shards
	// says today: the host→stream routing is fixed for the store's
	// lifetime. Without a pin (a store being created), the count is the
	// configured one, widened to cover any stream already on disk.
	if !haveMeta {
		shards = max(cfg.Shards, 1)
		for shard := range shardFirsts {
			shards = max(shards, shard+1)
		}
	}
	if ckpt != nil && len(ckpt.streamCounts) != shards {
		return nil, fmt.Errorf("%w: checkpoint covers %d segment streams in a store with %d",
			ErrStateCorrupt, len(ckpt.streamCounts), shards)
	}
	streamFirsts := make([][]uint64, shards)
	coldFirsts := make([][]uint64, shards)
	segments := 0
	for shard, fs := range shardFirsts {
		if shard >= shards {
			return nil, fmt.Errorf("%w: segment stream %d in a store with %d shard slots",
				ErrStateCorrupt, shard, shards)
		}
		segments += len(fs)
		if ckpt != nil {
			// The segments starting below the stream's checkpointed count
			// are its cold store, summarized by the checkpoint: the replay
			// reads none of them.
			k, _ := slices.BinarySearch(fs, ckpt.streamCounts[shard])
			coldFirsts[shard], fs = fs[:k], fs[k:]
		}
		streamFirsts[shard] = fs
	}
	rec, trims, err := replay(dir, streamFirsts, ckpt)
	if err != nil {
		return nil, err
	}
	for s := range rec.tails {
		rec.tails[s].segments = append(coldFirsts[s], rec.tails[s].segments...)
	}

	if rec.ckpt != nil {
		rec.tree = newTreeFromCheckpoint(rec.ckpt.size, rec.ckpt.rows)
		rec.ckpt.rows = nil // the tree holds them now
	} else {
		rec.tree = newTree()
	}
	rec.tree.append(rec.hashes, prepareWorkers())
	size := rec.size()
	state := &RecoveredState{Size: size, Segments: segments, rootAt: rec.tree.rootAt}
	if rec.ckpt != nil {
		state.checkpoint = rec.ckpt.size
	}
	for _, a := range anchors {
		if err := a.CheckRecovery(state); err != nil {
			return nil, err
		}
	}
	// Physical mutations only after every anchor accepted: trim the torn
	// material, and pin a freshly created store's stream count.
	if err := applyTrims(dir, trims, cfg.NoSync); err != nil {
		return nil, err
	}
	if !haveMeta {
		if err := saveShardCount(dir, shards, cfg.NoSync); err != nil {
			return nil, err
		}
	}
	sth, have := head.remembered()
	rec.sth = sth
	rec.sthStale = !have || size != sth.Size
	mRecoverEntries.Add(uint64(len(rec.payloads)))
	if rec.ckpt != nil {
		mRecoverSuffixEntries.Add(uint64(len(rec.payloads)))
	}
	for _, op := range trims {
		if op.remove {
			mRecoverRemovedSegs.Inc()
		} else {
			mRecoverTornTails.Inc()
		}
	}
	mRecoverSeconds.Observe(time.Since(recoverStart))
	mRecoverLast.Mark()
	return rec, nil
}

// merge interleaves WAL records into global index order by placement:
// the record with global index i lands in slot i−lo, so merging n records
// is O(n) with no sort. n — the count of in-range records, which the
// checksum scan already knows — bounds the contiguous run from lo, so a
// record at or past lo+n cannot belong to it and goes to the overflow
// set instead, which only duplicate detection reads.
type merge struct {
	lo uint64
	// payloads holds each placed record's entry encoding; nil is a hole.
	payloads [][]byte
	// over is the overflow set: indices at or past lo+len(payloads).
	over map[uint64]bool
	// dup is the smallest index placed twice, again is the stream of its
	// second copy; hasDup reports whether there is one.
	dup    uint64
	again  int
	hasDup bool
}

func newMerge(lo uint64, n int) *merge {
	return &merge{lo: lo, payloads: make([][]byte, n)}
}

// place files the record with the given global index (at least lo) from
// stream shard and returns its slot: −1 for an overflow record or for a
// duplicate, which keeps the first copy placed.
func (m *merge) place(index uint64, entry []byte, shard int) int {
	slot := index - m.lo
	inSlots := slot < uint64(len(m.payloads))
	switch {
	case inSlots && m.payloads[slot] == nil:
		m.payloads[slot] = entry
		return int(slot)
	case !inSlots && !m.over[index]:
		if m.over == nil {
			m.over = make(map[uint64]bool)
		}
		m.over[index] = true
	case !m.hasDup || index < m.dup:
		m.dup, m.again, m.hasDup = index, shard, true
	}
	return -1
}

// run returns the length of the contiguous run from lo: it ends at the
// first hole, and just past the smallest duplicate — the same run a sort
// by index followed by a contiguity check yields.
func (m *merge) run() int {
	n := len(m.payloads)
	if m.hasDup && m.dup-m.lo < uint64(n) {
		n = int(m.dup-m.lo) + 1
	}
	for i, p := range m.payloads[:n] {
		if p == nil {
			return i
		}
	}
	return n
}

// replay reads the segment streams of the store — firsts[s] for host
// slot s — and merges their records into global order. With a
// checkpoint, firsts holds only the segments starting at or past each
// stream's checkpointed count (the checkpoint's tree rows summarize the
// rest), so a stream resumes at that count, or is empty.
//
// The replay runs in three passes. The first reads and checksums every
// segment and applies the per-stream refusals; it counts the records.
// The second validates each record in place, files it in its global
// slot and hashes its leaf there. The third, only when the merge left
// records beyond the contiguous prefix, plans the trims that cut them.
func replay(dir string, firsts [][]uint64, ckpt *checkpoint) (*recovered, []trimOp, error) {
	base := uint64(0)
	cold := make([]uint64, len(firsts)) // per-stream records below the checkpoint
	if ckpt != nil {
		base = ckpt.size
		copy(cold, ckpt.streamCounts)
	}
	streams := make([]walStream, len(firsts))
	var trims []trimOp
	n := 0
	// A refusal in the first pass is held back until the streams read
	// before it are decoded: a one-pass replay met an undecodable entry of
	// an earlier stream first, and the refusal must not change with the
	// pass structure.
	var scanErr error
	for s := range streams {
		st := &streams[s]
		st.shard, st.count = s, cold[s]
		suffix, err := st.scan(dir, firsts[s], base, &trims)
		n += suffix
		mRecoverWALBytes.Add(uint64(st.bytes))
		if err != nil {
			scanErr, streams = err, streams[:s+1]
			break
		}
	}

	m := newMerge(base, n)
	hashes := make([]Hash, n)
	var serials []serialRecord
	d := sha256.New()
	for s := range streams {
		err := streams[s].each(func(_, _ int, index uint64, entry []byte) error {
			f, err := parseEntry(entry)
			if err != nil {
				return fmt.Errorf("%w: entry %d undecodable: %v", ErrStateCorrupt, index, err)
			}
			slot := m.place(index, entry, s)
			if slot < 0 {
				return nil
			}
			leafHashInto(d, &hashes[slot], entry)
			if len(f.serial) > 0 {
				serials = append(serials, serialRecord{slot: slot, typ: f.typ, serial: f.serial})
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	if scanErr != nil {
		return nil, nil, scanErr
	}
	if m.hasDup {
		return nil, nil, fmt.Errorf("%w: global index %d appears twice (again in stream %d)",
			ErrStateCorrupt, m.dup, m.again)
	}
	// Keep the longest contiguous prefix from the checkpoint. Records past
	// the first gap can only be the torn remains of the last uncommitted
	// cycle — per-stream indices are increasing, so they form a suffix of
	// each stream — and are trimmed like any other torn tail once the
	// anchors accept. If the gap cut into committed history, the prefix is
	// shorter than the persisted head and the anchors refuse before any
	// trim runs.
	prefix := m.run()
	// The streams were walked one after another; the serial index must see
	// the records in global order, exactly as the commits indexed them.
	slices.SortFunc(serials, func(a, b serialRecord) int { return cmp.Compare(a.slot, b.slot) })
	kept, _ := slices.BinarySearchFunc(serials, prefix, func(r serialRecord, p int) int { return cmp.Compare(r.slot, p) })
	rec := &recovered{ckpt: ckpt, payloads: m.payloads[:prefix],
		hashes: hashes[:prefix], serials: serials[:kept]}
	if prefix < n {
		trims = planCuts(streams, base+uint64(prefix), trims)
	}
	rec.tails = make([]streamTail, len(streams))
	for s := range streams {
		st := &streams[s]
		tail := streamTail{count: st.count}
		for _, sg := range st.segs {
			tail.segments = append(tail.segments, sg.first)
		}
		if k := len(st.segs); k > 0 {
			tail.hasTail = true
			tail.tailFirst = st.segs[k-1].first
			tail.tailClean = int64(len(st.segs[k-1].data))
		}
		rec.tails[s] = tail
	}
	return rec, trims, nil
}

// scan is replay's first pass over one stream, whose count holds its
// checkpointed (cold) record count: it checks each segment's place in the
// stream before reading it, checksums every record, refuses a torn record
// anywhere but at the stream's end (and plans the cut of one there), and
// requires global indices to increase along the stream from base, the
// checkpoint size — zero exactly when there is no checkpoint, as a
// checkpoint never covers an empty log. It returns how many records it
// read.
func (st *walStream) scan(dir string, firsts []uint64, base uint64, trims *[]trimOp) (n int, err error) {
	cold := st.count
	prev, seen := uint64(0), false
	for i, first := range firsts {
		name := shardSegmentName(st.shard, first)
		switch {
		case i == 0 && base == 0 && first != 0:
			return n, fmt.Errorf("%w: segment %s starts at stream ordinal %d, want 0", ErrStateCorrupt, name, first)
		case i == 0 && first > cold:
			// Every checkpoint rolled the stream, so a segment starts at
			// each checkpointed count. A stream that resumes past its count
			// has lost the records between — checkpoint.bin swapped for an
			// older one after the segments the newer one covered were
			// removed.
			return n, fmt.Errorf("%w: checkpoint covers %d records of the stream but its oldest segment %s starts at %d",
				ErrStateRollback, cold, name, first)
		case i > 0 && first != st.count:
			return n, fmt.Errorf("%w: segment %s starts at stream ordinal %d, want %d",
				ErrStateCorrupt, name, first, st.count)
		}
		path := filepath.Join(dir, name)
		err := st.read(path, first, func(index uint64) error {
			if seen && index <= prev {
				return fmt.Errorf("%w: stream %d global index %d not increasing (previous %d)",
					ErrStateCorrupt, st.shard, index, prev)
			}
			if index < base {
				return fmt.Errorf("%w: stream %d record past its checkpointed count has global index %d, below the checkpoint at %d",
					ErrStateCorrupt, st.shard, index, base)
			}
			prev, seen = index, true
			n++
			return nil
		})
		switch {
		case err == nil:
		case errors.Is(err, errTornTail) && i == len(firsts)-1:
			// A crash mid-append leaves a partial final record; cut it
			// (after verification) so appends resume on a frame boundary.
			*trims = append(*trims, trimOp{path: path, truncate: int64(len(st.segs[i].data))})
		case errors.Is(err, errTornTail):
			return n, fmt.Errorf("%w: segment %s ends mid-record but is not the stream tail", ErrStateCorrupt, name)
		default:
			return n, err
		}
	}
	return n, nil
}

// planCuts plans, for each stream holding records at or past end, the
// cut of everything from its first such record onward: truncate that
// record's segment at its offset and drop the stream's later segments.
// A cut replaces any torn-tail trim already planned for the stream's
// last segment — the torn bytes sit after the cut. The streams are cut
// in memory too, so their tails describe where appends resume.
func planCuts(streams []walStream, end uint64, trims []trimOp) []trimOp {
	for s := range streams {
		st := &streams[s]
		cutSeg, cutOff, dropped := -1, 0, uint64(0)
		_ = st.each(func(seg, off int, index uint64, _ []byte) error {
			if index >= end {
				if cutSeg < 0 {
					cutSeg, cutOff = seg, off
				}
				dropped++
			}
			return nil
		})
		if cutSeg < 0 {
			continue
		}
		tail := st.segs[len(st.segs)-1].path
		kept := trims[:0]
		for _, op := range trims {
			if op.path != tail {
				kept = append(kept, op)
			}
		}
		trims = append(kept, trimOp{path: st.segs[cutSeg].path, truncate: int64(cutOff)})
		for _, sg := range st.segs[cutSeg+1:] {
			trims = append(trims, trimOp{path: sg.path, remove: true})
		}
		st.count -= dropped
		st.segs[cutSeg].data = st.segs[cutSeg].data[:cutOff]
		st.segs = st.segs[:cutSeg+1]
	}
	return trims
}

// OpenDurableLog opens (creating if needed) a write-ahead durable log in
// dir, signed by signer. It replays and verifies the existing disk state
// first — see the package recovery notes — and refuses to open a rolled
// back (ErrStateRollback), rewritten (ErrStateTampered) or damaged
// (ErrStateCorrupt) store; extra trust anchors configured via
// cfg.Anchors add their own refusals (a witness anchor re-raises
// ErrStateRollback from its separate statedir, the sealed-counter
// anchor raises ErrSealedRollback even when every file on disk was
// rewound consistently). Every committed batch is durably persisted
// (records fsynced, latest signed tree head atomically replaced, every
// anchor updated) before AppendBatch returns, so the ShardedAppender
// amortises the fsync the same way it amortises the tree-head
// signature. The WAL is split into cfg.Shards per-host segment streams
// (one for 0 or 1) — see StoreConfig.Shards and the ShardedAppender.
// Close the returned log to release the store and anchors.
func OpenDurableLog(signer crypto.Signer, dir string, cfg StoreConfig) (*Log, error) {
	pub, ok := signer.Public().(*ecdsa.PublicKey)
	if !ok {
		//lint:allow errtaxonomy caller-argument validation before any disk state is read; no taxonomy applies
		return nil, fmt.Errorf("translog: signer key type %T unsupported for durable log", signer.Public())
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("translog: creating store dir: %w", err)
	}
	// Until a Store owns them, refusing or failing the open must still
	// release anchors holding resources (a refused recovery is this
	// feature's main path — it must not leak the sealed anchor's
	// enclave).
	closeAnchors := func() {
		for _, a := range cfg.Anchors {
			if c, ok := a.(io.Closer); ok {
				c.Close()
			}
		}
	}
	head := newSTHAnchor(dir, pub)
	head.noSync = cfg.NoSync
	anchors := append([]TrustAnchor{head}, cfg.Anchors...)
	rec, err := recoverDir(dir, cfg, head, anchors)
	if err != nil {
		closeAnchors()
		return nil, err
	}
	store, err := openStoreDir(dir, cfg, anchors, rec)
	if err != nil {
		closeAnchors()
		return nil, err
	}

	l := &Log{
		signer:   signer,
		tree:     rec.tree,
		issuance: make(map[string]uint64),
		revoked:  make(map[string]bool),
	}
	base := uint64(0)
	if rec.ckpt != nil {
		// The cold prefix stays on disk, read back a tile at a time: the
		// serial indexes are the checkpoint's (signature-covered)
		// snapshot maps, adopted as decoded, and the arena starts at the
		// checkpoint base.
		base = rec.ckpt.size
		l.entries.base, l.entries.n = base, base
		l.issuance, l.revoked = rec.ckpt.issuance, rec.ckpt.revoked
	}
	// The arena copies the replayed canonical bytes — the same bytes the
	// recovery pass hashed into the rebuilt tree — out of the segment
	// buffers, which the open then drops.
	for _, p := range rec.payloads {
		l.entries.add(p)
	}
	for _, sr := range rec.serials {
		l.indexSerial(sr.typ, string(sr.serial), base+uint64(sr.slot))
	}
	size := rec.size()
	sth := rec.sth
	if rec.sthStale {
		// Fresh store, or durable entries past the persisted head: sign
		// a head covering everything recovered.
		root, err := l.tree.rootAt(size)
		if err != nil {
			store.Close()
			return nil, err
		}
		sth, err = l.signHead(size, root)
		if err != nil {
			store.Close()
			return nil, err
		}
	}
	// Re-commit the current head through the whole anchor chain even
	// when it was not stale: a crash inside a previous commit can leave
	// a later anchor (witness head, sealed counter) one batch behind
	// sth.json, and a lagging sealed pin is a rollback window — a
	// snapshot of the lagging state would pass every anchor. After any
	// successful open, every anchor pins exactly the recovered head; an
	// anchor that already holds it writes nothing.
	if err := store.commitHead(sth); err != nil {
		store.Close()
		return nil, err
	}
	l.sth = sth
	l.store = store
	l.cold = newColdReader(store, l.tree)
	l.committed.Store(size)
	return l, nil
}
