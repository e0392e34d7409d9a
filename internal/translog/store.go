package translog

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vnfguard/internal/obs"
	"vnfguard/internal/statedir"
)

// Durable-state errors. Recovery distinguishes the three ways a statedir
// can disagree with its own signed tree head, because operators react
// differently to each: corruption wants a restore from backup, rollback
// and tamper want an incident response — a restart must never quietly
// re-serve a rewritten history (that would be exactly the attack the
// witness exists to catch, executed locally).
var (
	// ErrStateCorrupt reports a damaged record: a checksum mismatch or an
	// impossible frame somewhere other than a cleanly torn tail.
	ErrStateCorrupt = errors.New("translog: on-disk log state corrupt") //lint:allow unusedexport README-documented recovery taxonomy; reaches callers wrapped in open errors
	// ErrStateRollback reports fewer durable entries than the persisted
	// signed tree head covers — committed history was deleted.
	ErrStateRollback = errors.New("translog: on-disk log state rolled back")
	// ErrStateTampered reports durable entries whose recomputed Merkle
	// root contradicts the persisted signed tree head — history was
	// rewritten in place.
	ErrStateTampered = errors.New("translog: on-disk log state tampered") //lint:allow unusedexport README-documented recovery taxonomy; reaches callers wrapped in open errors
	// ErrLegacyLayout reports a store written in a retired layout: the
	// single-stream WAL, or cold archives in place of cold WAL segments.
	// The open refuses it before any file in it is trimmed, re-signed or
	// pinned.
	ErrLegacyLayout = errors.New("translog: store uses a retired on-disk layout") //lint:allow unusedexport README-documented open refusal; reaches callers wrapped in open errors
)

// Append-path errors the HTTP layer maps to status codes, so a producer
// can tell "this batch is unacceptable" (drop it) from "the store is
// down" (retry later).
var (
	// ErrEntryTooLarge reports an entry whose encoding exceeds the WAL
	// record frame limit; it is refused before any byte is written and
	// the store stays healthy.
	ErrEntryTooLarge = errors.New("translog: entry exceeds record size limit") //lint:allow unusedexport append error contract the HTTP layer maps to a status code; errors.Is target
	// ErrStoreFailed reports a latched durable-store failure (or a closed
	// store): every append fails until the store is reopened.
	ErrStoreFailed = errors.New("translog: durable store unavailable") //lint:allow unusedexport append error contract the HTTP layer maps to a status code; errors.Is target
)

// sthFileName holds the latest durably persisted signed tree head.
const sthFileName = "sth.json"

// shardsFileName pins a store's stream count at creation, so reopening
// with a different StoreConfig.Shards cannot silently change the
// host→stream routing (the stream count really is fixed at store
// creation, as documented). The count is layout metadata, not trust
// state: the records themselves are authenticated by their global
// indices under the signed root, whatever stream they sit in.
const shardsFileName = "shards"

// loadShardCount reads the pinned stream count; ok=false when none is
// pinned yet (a store being created).
func loadShardCount(dir string) (int, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, shardsFileName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("translog: reading shard count: %w", err)
	}
	n, perr := strconv.Atoi(strings.TrimSpace(string(data)))
	if perr != nil || n < 1 || n > maxShardSlots {
		return 0, false, fmt.Errorf("%w: shard count file holds %q", ErrStateCorrupt, strings.TrimSpace(string(data)))
	}
	return n, true, nil
}

// saveShardCount pins the stream count at store creation.
func saveShardCount(dir string, n int, noSync bool) error {
	return statedir.ReplaceFile(filepath.Join(dir, shardsFileName), []byte(strconv.Itoa(n)), !noSync)
}

// StoreConfig tunes the durable store.
type StoreConfig struct {
	// SegmentMaxBytes rotates to a fresh segment file once the active one
	// reaches this size (default 1 MiB).
	SegmentMaxBytes int64
	// NoSync skips fsync on the append path. Only for tests and
	// benchmarks that measure the non-durability costs; a production log
	// without fsync can lose acknowledged entries on power failure.
	NoSync bool
	// Anchors are additional trust anchors layered over the built-in
	// persisted-head check (anchor.go): each is verified against the
	// recovered state at open and notified of every committed head, in
	// order. Anchors that implement io.Closer are closed with the store.
	Anchors []TrustAnchor
	// Shards splits the WAL into that many per-host segment streams
	// (seg-h<shard>-*.wal): every entry is routed to the stream ShardOf
	// picks for its host and framed with its global tree index, so a
	// merging sequencer can commit many hosts' batches under one tree
	// head — the touched streams are written and fsynced in parallel,
	// then the head and anchor chain bump once per cycle — while recovery
	// interleaves the streams back into the exact global order. 0 or 1
	// keeps one stream. The count is pinned at store creation: opening an
	// existing store keeps whichever count is on disk.
	Shards int
	// CheckpointEvery, when > 0, persists an anchor-verified checkpoint
	// (tree rows + serial-index snapshot, signed by the log key) every
	// time the log grows that many entries past the previous checkpoint.
	// The WAL segments the checkpoint covers stay on disk as the cold
	// store, and the log drops their entries from memory; recovery skips
	// them and replays only the WAL suffix past the checkpoint instead
	// of the whole log — the flat-restart property a long-lived
	// production log needs. 0 disables checkpointing (every open replays
	// from index zero, and the log keeps every entry in memory).
	CheckpointEvery uint64
}

// Store is the write-ahead, append-only on-disk half of a durable Log:
// length-prefixed checksummed records in size-capped segment files plus
// an atomically replaced latest signed tree head. All writes arrive
// pre-batched from Log.AppendBatch, so one store call — and therefore
// one fsync of the active segment and one of the tree head — covers a
// whole appender batch.
type Store struct { //lint:allow unusedexport the documented storage layer beneath Log; exported seam for store-level tests and benchmarks
	dir string
	cfg StoreConfig
	// anchors is the full trust-anchor chain, the store's own head
	// first: every committed head flows through each of them.
	anchors []TrustAnchor
	// anchorHist are the chain's pre-resolved per-anchor commit-latency
	// histograms, parallel to anchors — resolved once at open so the
	// commit path never touches the telemetry registry.
	anchorHist []*obs.Histogram

	// ckpt is the newest durable checkpoint (a zero record when none),
	// replaced whole when a newer one lands.
	ckpt atomic.Pointer[ckptMark]

	// segMu guards segs: every segment of each stream, oldest first,
	// as the log's cold reader finds the cold ones. A segment this store
	// creates is indexed as its records are framed, so the cold reader
	// never reads it whole to find a tile in it; one found at open is
	// indexed on its first cold read.
	segMu sync.Mutex
	segs  [][]*coldSeg

	mu sync.Mutex
	// streams are the append tails, one per host slot, fixed at open.
	// Streams rotate their segment files independently.
	streams []*stream
	// size is the number of durably framed entries.
	size uint64
	// failed latches the first write error: after a partial batch write
	// the in-memory log and the disk may disagree, so the store refuses
	// further appends instead of compounding the divergence.
	failed error
}

// ckptMark is the store's record of a durable checkpoint: the size it
// covers, which the log's checkpoint trigger compares against the
// committed size, and each stream's record count at it. No segment
// straddles a checkpoint, so a segment starting below its stream's count
// holds only checkpointed records: those are the segments recovery skips
// and cold tile reads fetch from. A record is never mutated once
// published.
type ckptMark struct {
	size   uint64
	counts []uint64
}

// stream is one host slot's append tail.
type stream struct {
	shard int
	// active is the open tail segment: nil until the first append, after
	// a checkpoint rolled the stream, or when no segment of the stream
	// starts at or past its checkpointed count.
	active     *os.File
	activeSize int64
	// idx indexes the active segment's tiles as its records are
	// framed; nil for a tail segment reopened with records this process
	// did not frame.
	idx *coldSeg
	// count is the number of records durably framed in this stream — the
	// next segment's first ordinal.
	count uint64
	// scratch is the stream's reusable frame buffer: one writer owns a
	// stream at a time, so recycling it keeps a large commit cycle from
	// allocating (and the runtime from zeroing) megabytes per cycle.
	scratch []byte
}

// name renders the segment file name for the stream's segment whose
// first record is ordinal first.
func (st *stream) name(first uint64) string { return shardSegmentName(st.shard, first) }

// openStoreDir creates the store directory and returns a Store resuming
// the verified recovered state rec. anchors is the trust-anchor chain
// (the store's own head first).
func openStoreDir(dir string, cfg StoreConfig, anchors []TrustAnchor, rec *recovered) (*Store, error) {
	if cfg.SegmentMaxBytes <= 0 {
		cfg.SegmentMaxBytes = defaultSegmentMaxBytes
	}
	s := &Store{dir: dir, cfg: cfg, anchors: anchors, size: rec.size(), segs: make([][]*coldSeg, len(rec.tails))}
	for _, a := range anchors {
		s.anchorHist = append(s.anchorHist, anchorHistogram(a.Name()))
	}
	mark := &ckptMark{}
	if rec.ckpt != nil {
		mark = &ckptMark{size: rec.ckpt.size, counts: rec.ckpt.streamCounts}
	}
	s.ckpt.Store(mark)
	for i, tail := range rec.tails {
		st := &stream{shard: i, count: tail.count}
		found := make([]coldSeg, len(tail.segments))
		s.segs[i] = make([]*coldSeg, len(found))
		for k, first := range tail.segments {
			found[k] = coldSeg{shard: i, ord: first}
			s.segs[i][k] = &found[k]
		}
		if tail.hasTail {
			path := filepath.Join(dir, st.name(tail.tailFirst))
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
			if err != nil {
				s.closeStreams()
				return nil, fmt.Errorf("translog: reopening tail segment: %w", err)
			}
			st.active, st.activeSize = f, tail.tailClean
		}
		s.streams = append(s.streams, st)
	}
	return s, nil
}

// closeStreams closes any tail files already opened (error-path cleanup).
func (s *Store) closeStreams() {
	for _, st := range s.streams {
		if st.active != nil {
			st.active.Close()
			st.active = nil
		}
	}
}

// shardCount reports the number of per-host streams the store writes
// (at least one). Fixed at open, so reading it without the lock is safe.
func (s *Store) shardCount() int { return len(s.streams) }

// checkpointDue reports whether the committed size has outgrown the
// newest checkpoint by the configured interval.
func (s *Store) checkpointDue(size uint64) bool {
	return s.cfg.CheckpointEvery > 0 && size >= s.ckpt.Load().size+s.cfg.CheckpointEvery
}

// rollStreams snapshots each stream's durable record count and retires
// every active segment holding records, so the next append to a stream
// opens a segment that starts at the snapshot: no segment straddles the
// checkpoint the counts are written into. Callers hold the log lock, so
// no commit is in flight and the counts correspond exactly to the
// committed tree; they close the retired files once they release it.
func (s *Store) rollStreams() (counts []uint64, retired []*os.File) {
	s.mu.Lock()
	defer s.mu.Unlock()
	counts = make([]uint64, len(s.streams))
	for i, st := range s.streams {
		counts[i] = st.count
		if st.active != nil && st.activeSize > 0 {
			retired = append(retired, st.active)
			st.retireIndex()
			st.active = nil
			mWALRolls.Inc()
		}
	}
	return counts, retired
}

// appendBatch durably frames the batch payloads — payloads[i] is the
// canonical encoding of batch[i] — and then commits sth to every trust
// anchor.
// Ordering matters for crash consistency: records first (fsynced), tree
// head second — a crash in between leaves extra durable entries beyond
// the head, which recovery accepts and re-signs; the reverse order could
// leave a head signing entries that were never written. The anchor chain
// runs under the same lock, so a batch is acknowledged only once every
// anchor (persisted head, witness head, sealed counter) has recorded it.
// tr, when non-nil, receives the cycle's wal_sync and anchor_commit
// phase durations (the sequencer's trace record).
func (s *Store) appendBatch(batch []Entry, payloads [][]byte, sth SignedTreeHead, tr *obs.CycleTrace) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	phase := time.Now()
	if err := s.writeRecords(batch, payloads); err != nil {
		s.failed = fmt.Errorf("%w: %w", ErrStoreFailed, err)
		return s.failed
	}
	walSync := time.Since(phase)
	mPhaseWALSync.Observe(walSync)
	phase = time.Now()
	if err := s.commitHeadLocked(sth); err != nil {
		s.failed = fmt.Errorf("%w: %w", ErrStoreFailed, err)
		return s.failed
	}
	anchor := time.Since(phase)
	mPhaseAnchor.Observe(anchor)
	if tr != nil {
		tr.WALSync, tr.Anchor = walSync, anchor
	}
	s.size += uint64(len(payloads))
	return nil
}

// writeRecords routes each payload to the stream ShardOf picks for its
// entry's host, stamped with its global index, and writes the touched
// streams concurrently — they are separate files, so their record
// writes and fsyncs overlap.
// Every stream's write must return before the head is persisted, which
// preserves the records-before-head crash ordering; a failure in any
// stream fails the batch (and the caller latches the store), because a
// partially landed cycle may no longer match the in-memory log.
func (s *Store) writeRecords(batch []Entry, payloads [][]byte) error {
	perShard := make([][]int, len(s.streams))
	for i, e := range batch {
		shard := ShardOf(e.Host, len(perShard))
		perShard[shard] = append(perShard[shard], i)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(perShard))
	base := s.size
	for shard, idxs := range perShard {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			size := 0
			for _, i := range idxs {
				size += recordHeaderLen + shardIndexLen + len(payloads[i])
			}
			errs[shard] = s.streams[shard].write(s, len(idxs), size, func(k int, dst []byte) []byte {
				i := idxs[k]
				return appendIndexedRecord(dst, base+uint64(i), payloads[i])
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// commitHead runs the anchor chain for a head committed outside a batch
// append (the open-time re-sign of a stale head).
func (s *Store) commitHead(sth SignedTreeHead) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitHeadLocked(sth)
}

// commitHeadLocked records sth with every trust anchor, in order.
// Callers hold s.mu.
func (s *Store) commitHeadLocked(sth SignedTreeHead) error {
	for i, a := range s.anchors {
		start := time.Now()
		if err := a.CommitHead(sth); err != nil {
			return fmt.Errorf("translog: %s anchor: %w", a.Name(), err)
		}
		s.anchorHist[i].Observe(time.Since(start))
	}
	return nil
}

// write appends n records to the stream's active segment, rotating at
// the size cap; frame(i, dst) appends record i's framed bytes to dst, so
// the cycle's records land in one buffer with no per-record allocation.
// Every touched segment is fsynced before the batch is acknowledged:
// rotation syncs the segment it retires, and the tail sync below covers
// the one left active. A call owns the stream exclusively: writeRecords
// runs under s.mu with at most one writer per stream.
func (st *stream) write(s *Store, n, sizeHint int, frame func(i int, dst []byte) []byte) error {
	if cap(st.scratch) < sizeHint {
		st.scratch = make([]byte, 0, sizeHint)
	}
	pending := st.scratch[:0]
	defer func() { st.scratch = pending[:0] }()
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if _, err := st.active.Write(pending); err != nil {
			return fmt.Errorf("translog: writing segment: %w", err)
		}
		mWALBytes.Add(uint64(len(pending)))
		st.activeSize += int64(len(pending))
		pending = pending[:0]
		return nil
	}
	next := st.count
	for i := 0; i < n; i++ {
		if st.active == nil || st.activeSize+int64(len(pending)) >= s.cfg.SegmentMaxBytes {
			if err := flush(); err != nil {
				return err
			}
			if err := st.rotate(s, next); err != nil {
				return err
			}
		}
		off := len(pending)
		pending = frame(i, pending)
		if st.idx != nil {
			st.idx.note(binary.BigEndian.Uint64(pending[off+recordHeaderLen:]), st.activeSize+int64(off))
		}
		next++
	}
	if err := flush(); err != nil {
		return err
	}
	if !s.cfg.NoSync {
		if err := st.active.Sync(); err != nil {
			return fmt.Errorf("translog: fsync segment: %w", err)
		}
		mWALFsyncs.Inc()
	}
	st.count = next
	return nil
}

// rotate closes the stream's active segment and opens a fresh one whose
// first record will be stream ordinal first.
func (st *stream) rotate(s *Store, first uint64) error {
	if st.active != nil {
		if !s.cfg.NoSync {
			if err := st.active.Sync(); err != nil {
				return fmt.Errorf("translog: fsync segment: %w", err)
			}
			mWALFsyncs.Inc()
		}
		if err := st.active.Close(); err != nil {
			return fmt.Errorf("translog: closing segment: %w", err)
		}
		st.retireIndex()
		st.active = nil
		mWALRolls.Inc()
	}
	path := filepath.Join(s.dir, st.name(first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return fmt.Errorf("translog: creating segment: %w", err)
	}
	st.active, st.activeSize, st.idx = f, 0, &coldSeg{shard: st.shard, ord: first}
	s.segMu.Lock()
	s.segs[st.shard] = append(s.segs[st.shard], st.idx)
	s.segMu.Unlock()
	if !s.cfg.NoSync {
		if err := statedir.SyncDir(s.dir); err != nil {
			f.Close()
			st.active = nil
			return err
		}
	}
	return nil
}

// retireIndex completes the tile index of the stream's active
// segment, which is being retired: no record joins it after this. The
// index is read only once the segment is cold, after a checkpoint that
// retired it.
func (st *stream) retireIndex() {
	if st.idx != nil && len(st.idx.offs) > 0 {
		st.idx.offs = append(st.idx.offs, st.activeSize)
	}
	st.idx = nil
}

// coldSegments returns each stream's cold segments under the checkpoint
// counts, oldest first.
func (s *Store) coldSegments(counts []uint64) [][]*coldSeg {
	s.segMu.Lock()
	defer s.segMu.Unlock()
	out := make([][]*coldSeg, len(counts))
	for i, count := range counts {
		k, _ := slices.BinarySearchFunc(s.segs[i], count, func(sg *coldSeg, c uint64) int { return cmp.Compare(sg.ord, c) })
		out[i] = s.segs[i][:k]
	}
	return out
}

// Close fsyncs and closes the active segment and releases any anchors
// holding resources. A closed store latches failed, so a stray later
// append errors instead of silently forking a new segment.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed == nil {
		s.failed = fmt.Errorf("%w: store closed", ErrStoreFailed)
	}
	var err error
	for _, a := range s.anchors {
		if c, ok := a.(io.Closer); ok {
			if cerr := c.Close(); err == nil {
				err = cerr
			}
		}
	}
	for _, st := range s.streams {
		if st.active == nil {
			continue
		}
		f := st.active
		st.active = nil
		if !s.cfg.NoSync {
			if serr := f.Sync(); serr != nil {
				f.Close()
				if err == nil {
					err = fmt.Errorf("translog: fsync segment: %w", serr)
				}
				continue
			}
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
