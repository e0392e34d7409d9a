package translog

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"vnfguard/internal/statedir"
	"vnfguard/internal/wire"
)

// Cold-segment compaction: WAL segments whose every record sits below
// the newest checkpoint carry data recovery no longer replays, but that
// proofs and entry reads over the cold range still need. The compactor
// rewrites them into read-optimised archive files — the canonical entry
// encodings for a contiguous global index range, length-prefixed, one
// whole-file CRC — and then deletes the WAL segments they replace.
// Hydration (log.go) loads archives back without re-marshalling a
// single entry and verifies the rebuilt prefix against the checkpoint
// root, so an archive is trusted exactly as far as a WAL segment was.
//
// No segment straddles a checkpoint: Log.Checkpoint rolls every stream
// to a fresh segment as it snapshots the per-stream record counts, and
// an open leaves a tail holding checkpointed records closed. So the
// segments that start below their stream's count at the newest
// checkpoint hold only cold records, are never open for append, and
// are the only segments compaction and hydration read; the segment a
// roll closed is archived by that same checkpoint's compaction. A
// straddling tail a store laid out before the roll carries is closed at
// open and archived whole by the next checkpoint.
//
// Crash safety is rename discipline: each archive is written
// tmp + fsync + rename + dir-sync before any WAL segment is unlinked,
// so every crash window leaves either both representations (harmless
// overlap — cold reads prefer archives and skip the duplicate WAL
// records) or the archive alone, never neither.

const (
	archiveSuffix = ".arc"
	archivePrefix = "arc-"
	// archiveTargetBytes caps one archive file's payload size.
	archiveTargetBytes = 4 << 20
)

// arcMagic identifies an archive file (and its format version).
var arcMagic = [8]byte{'V', 'N', 'F', 'G', 'A', 'R', 'C', '1'}

// archiveName renders the file name for the archive holding count
// entries starting at global index first. Both ride in the name so a
// directory listing alone yields the archived watermark.
func archiveName(first uint64, count int) string {
	return fmt.Sprintf("%s%020d-%010d%s", archivePrefix, first, count, archiveSuffix)
}

// parseArchiveName extracts the first index and entry count, ok=false
// for unrelated files.
func parseArchiveName(name string) (first uint64, count int, ok bool) {
	if !strings.HasPrefix(name, archivePrefix) || !strings.HasSuffix(name, archiveSuffix) {
		return 0, 0, false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(name, archivePrefix), archiveSuffix)
	firstDigits, countDigits, found := strings.Cut(body, "-")
	if !found || len(firstDigits) != 20 || len(countDigits) != 10 {
		return 0, 0, false
	}
	f, err := strconv.ParseUint(firstDigits, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	c, err := strconv.ParseUint(countDigits, 10, 32)
	if err != nil {
		return 0, 0, false
	}
	return f, int(c), true
}

// listArchives returns the archives in dir sorted by first index.
func listArchives(dir string) (firsts []uint64, counts []int, err error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("translog: reading store dir: %w", err)
	}
	type arc struct {
		first uint64
		count int
	}
	var arcs []arc
	for _, de := range names {
		if f, c, ok := parseArchiveName(de.Name()); ok {
			arcs = append(arcs, arc{f, c})
		}
	}
	sort.Slice(arcs, func(i, j int) bool { return arcs[i].first < arcs[j].first })
	for _, a := range arcs {
		firsts = append(firsts, a.first)
		counts = append(counts, a.count)
	}
	return firsts, counts, nil
}

// encodeArchive builds one archive file's bytes: magic, first, count,
// length-prefixed payloads, whole-file CRC-32C.
func encodeArchive(first uint64, payloads [][]byte) []byte {
	size := len(arcMagic) + 12 + 4
	for _, p := range payloads {
		size += 4 + len(p)
	}
	buf := wire.AppendU64(append(make([]byte, 0, size), arcMagic[:]...), first)
	buf = wire.AppendU32(buf, uint32(len(payloads)))
	for _, p := range payloads {
		buf = wire.AppendBytes32(buf, p)
	}
	return sealEnvelope(buf)
}

// readArchive loads one archive, verifying its CRC and that its header
// matches its name.
func readArchive(dir string, first uint64, count int) ([][]byte, error) {
	name := archiveName(first, count)
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("translog: reading archive %s: %w", name, err)
	}
	body, err := openEnvelope(data, arcMagic)
	if err != nil {
		return nil, fmt.Errorf("%w: archive %s: %w", ErrStateCorrupt, name, err)
	}
	r := wire.NewReader(body)
	if gotFirst, gotCount := r.U64(), r.U32(); gotFirst != first || int(gotCount) != count {
		return nil, fmt.Errorf("%w: archive %s header disagrees with its name", ErrStateCorrupt, name)
	}
	payloads := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		payloads = append(payloads, r.Bytes32(wire.Unbounded))
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: archive %s malformed: %w", ErrStateCorrupt, name, err)
	}
	return payloads, nil
}

// coldWALRecords scans the store's cold WAL segments — per stream, those
// starting below counts, its record count at the newest checkpoint — for
// records with global index in [lo, hi) and returns the entry encodings
// of the contiguous run of them from lo, in index order — sub-slices of
// the segment buffers, which the caller copies into an archive or the
// entry arena. Segments every record of which falls below hi are
// reported in removable (candidates for deletion once their records are
// archived), keyed by path with their max index. No segment read is
// open for append, so a torn record is damage like any other.
func coldWALRecords(dir string, lo, hi uint64, counts []uint64) (run [][]byte, removable map[string]uint64, err error) {
	shardFirsts, err := listStreams(dir)
	if err != nil {
		return nil, nil, err
	}
	var streams []walStream
	var streamFirsts [][]uint64
	for _, shard := range slices.Sorted(maps.Keys(shardFirsts)) {
		if shard >= len(counts) {
			break
		}
		cold, _ := slices.BinarySearch(shardFirsts[shard], counts[shard])
		streams = append(streams, walStream{shard: shard})
		streamFirsts = append(streamFirsts, shardFirsts[shard][:cold])
	}
	removable = map[string]uint64{}
	n := 0
	for s := range streams {
		st := &streams[s]
		for _, first := range streamFirsts[s] {
			path := filepath.Join(dir, shardSegmentName(st.shard, first))
			top, all, some := uint64(0), true, false
			err := st.read(path, first, func(_ int, index uint64) error {
				top, some = max(top, index), true
				all = all && index < hi
				if index >= lo && index < hi {
					n++
				}
				return nil
			})
			if errors.Is(err, errTornTail) {
				return nil, nil, fmt.Errorf("%w: cold segment %s ends mid-record", ErrStateCorrupt, filepath.Base(path))
			}
			if err != nil {
				return nil, nil, err
			}
			if all && some {
				removable[path] = top
			}
		}
	}
	m := newMerge(lo, n)
	for s := range streams {
		_ = streams[s].each(func(_, _ int, index uint64, entry []byte) error {
			if index >= lo && index < hi {
				m.place(index, entry, streams[s].shard)
			}
			return nil
		})
	}
	return m.payloads[:m.run()], removable, nil
}

// compact archives every cold WAL segment of the newest checkpoint and
// deletes it, leaving in place only a straddling segment a store laid
// out before the roll may carry. Safe to run concurrently with appends —
// it only reads and removes segments that start below the checkpoint's
// per-stream counts, which the append path never touches — and
// serialised against cold reads by compactMu. A run that finds nothing
// cold is a no-op.
func (s *Store) compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	c := s.lastCkpt.Load()
	if c == 0 {
		return nil
	}
	arcFirsts, arcCounts, err := listArchives(s.dir)
	if err != nil {
		return err
	}
	// watermark is the end of the contiguous archived prefix from 0.
	watermark := uint64(0)
	for i := range arcFirsts {
		if arcFirsts[i] != watermark {
			break
		}
		watermark += uint64(arcCounts[i])
	}
	// Archive the contiguous run from the watermark. A gap stops the
	// run; everything past it stays in the WAL until a later pass.
	run, removable, err := coldWALRecords(s.dir, watermark, c, s.coldCounts)
	if err != nil {
		return err
	}
	archivedEnd := watermark + uint64(len(run))
	for lo := 0; lo < len(run); {
		sz := 0
		hi := lo
		for hi < len(run) && (hi == lo || sz < archiveTargetBytes) {
			sz += len(run[hi])
			hi++
		}
		first := watermark + uint64(lo)
		buf := encodeArchive(first, run[lo:hi])
		if err := statedir.ReplaceFile(filepath.Join(s.dir, archiveName(first, hi-lo)), buf, !s.cfg.NoSync); err != nil {
			return err
		}
		lo = hi
	}
	// Only now, with every cold record durably archived up to
	// archivedEnd, unlink the WAL segments that fall entirely below it.
	removed := false
	for path, max := range removable {
		if max < archivedEnd {
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("translog: removing compacted segment: %w", err)
			}
			removed = true
		}
	}
	if removed && !s.cfg.NoSync {
		if err := statedir.SyncDir(s.dir); err != nil {
			return err
		}
	}
	if len(run) > 0 {
		mCompactRuns.Inc()
	}
	return nil
}

// loadCold reads the canonical encodings of every entry below the
// checkpoint boundary c, archives first, cold WAL records for whatever
// the archives do not yet cover, and returns them with their leaf
// hashes. The hashes are recomputed here — an archive's CRC detects
// damage, but binding payloads to the checkpointed root is the caller's
// verification, exactly as WAL replay binds records to the persisted
// head.
func (s *Store) loadCold(c uint64) ([][]byte, []Hash, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	arcFirsts, arcCounts, err := listArchives(s.dir)
	if err != nil {
		return nil, nil, err
	}
	payloads := make([][]byte, 0, c)
	for i := range arcFirsts {
		if arcFirsts[i] != uint64(len(payloads)) || uint64(len(payloads)) >= c {
			break
		}
		ps, err := readArchive(s.dir, arcFirsts[i], arcCounts[i])
		if err != nil {
			return nil, nil, err
		}
		payloads = append(payloads, ps...)
	}
	if uint64(len(payloads)) > c {
		return nil, nil, fmt.Errorf("%w: archives cover %d entries beyond the checkpoint at %d",
			ErrStateCorrupt, len(payloads), c)
	}
	if uint64(len(payloads)) < c {
		run, _, err := coldWALRecords(s.dir, uint64(len(payloads)), c, s.coldCounts)
		if err != nil {
			return nil, nil, err
		}
		payloads = append(payloads, run...)
	}
	if uint64(len(payloads)) != c {
		return nil, nil, fmt.Errorf("%w: only %d of %d cold entries present across archives and segments",
			ErrStateCorrupt, len(payloads), c)
	}
	return payloads, leafHashes(payloads), nil
}
