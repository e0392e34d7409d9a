package translog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// On-disk segment format. A store keeps one segment stream per host
// slot (StoreConfig.Shards of them, at least one). A segment is a flat
// sequence of records:
//
//	uint32 length (big endian) ‖ uint32 CRC-32C of payload ‖ payload
//
// and every payload is the entry's 8-byte big-endian global tree index
// followed by its canonical encoding, so recovery can interleave the
// streams back into the exact global order the sequencer committed; the
// CRC covers index prefix and entry alike. There is no segment header:
// the file name carries everything the recovery pass needs.
// seg-h<shard>-<first>.wal holds the records of host slot <shard>
// (4 digits) starting at stream-local ordinal <first> (20 digits), both
// zero-padded decimal, so lexical order is (shard, ordinal) order —
// streams rotate independently. Records never straddle segments, and
// every byte of a segment belongs to some record — any flipped bit lands
// in a length, a checksum or a payload, and each of those is detected on
// replay.
//
// The retired single-stream layout (seg-<first>.wal, records without the
// index prefix, no shard-count pin, checkpoints without per-stream
// counts) is refused at open with ErrLegacyLayout, and so is a store
// holding an archive of the retired cold-archive layout
// (arc-<first>-<count>.arc): its compaction unlinked WAL segments this
// layout reads the cold prefix from.

const (
	segmentSuffix = ".wal"
	segmentPrefix = "seg-"
	// recordHeaderLen is the length + checksum prefix.
	recordHeaderLen = 8
	// maxRecordBytes bounds a record payload: recovery rejects larger
	// claimed lengths instead of allocating for them.
	maxRecordBytes = 1 << 20
	// shardIndexLen is the global-index prefix every record payload
	// carries.
	shardIndexLen = 8
	// maxEntryBytes bounds a single entry's canonical encoding: the index
	// prefix rides inside the same record frame.
	maxEntryBytes = maxRecordBytes - shardIndexLen
	// defaultSegmentMaxBytes caps a segment before rotation.
	defaultSegmentMaxBytes = 1 << 20
)

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTornTail marks an incomplete final record: a crash mid-write, not
// corruption. The recovery pass truncates it; every other framing fault
// is ErrStateCorrupt.
var errTornTail = errors.New("translog: torn record at segment tail")

// zeroPadded renders n in decimal, zero-padded to width digits. The
// segment names use it rather than fmt, whose pooled printers make the
// allocation count of naming a segment vary under the race detector.
func zeroPadded(n uint64, width int) string {
	s := strconv.FormatUint(n, 10)
	return strings.Repeat("0", max(width-len(s), 0)) + s
}

// isLegacySegmentName reports a segment of the retired single-stream
// layout: seg-<20-digit first index>.wal.
func isLegacySegmentName(name string) bool {
	digits, ok := strings.CutPrefix(name, segmentPrefix)
	digits, ok2 := strings.CutSuffix(digits, segmentSuffix)
	_, err := strconv.ParseUint(digits, 10, 64)
	return ok && ok2 && len(digits) == 20 && err == nil
}

// isArchiveName reports an archive of the retired cold-archive layout:
// arc-<20-digit first index>-<10-digit count>.arc. The residue of an
// interrupted archive write (.arc.tmp…) is not one.
func isArchiveName(name string) bool {
	body, ok := strings.CutPrefix(name, "arc-")
	body, ok2 := strings.CutSuffix(body, ".arc")
	first, count, ok3 := strings.Cut(body, "-")
	_, err := strconv.ParseUint(first, 10, 64)
	_, err2 := strconv.ParseUint(count, 10, 64)
	return ok && ok2 && ok3 && len(first) == 20 && len(count) == 10 && err == nil && err2 == nil
}

// shardSegmentPrefix marks a per-host segment stream; the 4-digit shard
// slot keeps lexical order = (shard, ordinal) order.
const shardSegmentPrefix = segmentPrefix + "h"

// maxShardSlots bounds StoreConfig.Shards: the file-name encoding holds
// exactly 4 shard digits, and a slot it cannot name would write
// segments recovery silently ignores — a log that bricks itself.
// OpenDurableLog refuses larger configs up front.
const maxShardSlots = 9999

// shardSegmentName renders the file name for the sharded segment of the
// given host slot whose first record is the stream-local ordinal first.
func shardSegmentName(shard int, first uint64) string {
	return shardSegmentPrefix + zeroPadded(uint64(shard), 4) + "-" + zeroPadded(first, 20) + segmentSuffix
}

// parseShardSegmentName extracts the host slot and stream-local first
// ordinal from a segment name, ok=false for unrelated files (including
// retired single-stream seg-<first>.wal names).
func parseShardSegmentName(name string) (shard int, first uint64, ok bool) {
	if !strings.HasPrefix(name, shardSegmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
		return 0, 0, false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(name, shardSegmentPrefix), segmentSuffix)
	shardDigits, firstDigits, found := strings.Cut(body, "-")
	if !found || len(shardDigits) != 4 || len(firstDigits) != 20 {
		return 0, 0, false
	}
	s, err := strconv.ParseUint(shardDigits, 10, 32)
	if err != nil {
		return 0, 0, false
	}
	n, err := strconv.ParseUint(firstDigits, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return int(s), n, true
}

// listStreams scans dir once and returns, per shard slot, the sorted
// stream-local firsts of that slot's segments. A segment of the retired
// single-stream layout or an archive of the retired cold-archive layout
// fails the listing with ErrLegacyLayout.
func listStreams(dir string) (map[int][]uint64, error) {
	// Bare names, unsorted: every open lists the store, and sorting
	// what it then sorts per stream anyway is wasted.
	d, err := os.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("translog: reading store dir: %w", err)
	}
	names, err := d.Readdirnames(-1)
	d.Close()
	if err != nil {
		return nil, fmt.Errorf("translog: reading store dir: %w", err)
	}
	shardFirsts := make(map[int][]uint64)
	for _, name := range names {
		if shard, first, ok := parseShardSegmentName(name); ok {
			shardFirsts[shard] = append(shardFirsts[shard], first)
		} else if isLegacySegmentName(name) || isArchiveName(name) {
			return nil, fmt.Errorf("%w: %s", ErrLegacyLayout, name)
		}
	}
	for _, fs := range shardFirsts {
		slices.Sort(fs)
	}
	return shardFirsts, nil
}

// appendIndexedRecord frames one record into dst: the entry's global
// tree index, then its canonical encoding, under one CRC that runs over
// both as two updates of the same checksum.
func appendIndexedRecord(dst []byte, index uint64, payload []byte) []byte {
	var idx [shardIndexLen]byte
	binary.BigEndian.PutUint64(idx[:], index)
	var hdr [recordHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(shardIndexLen+len(payload)))
	sum := crc32.Update(crc32.Update(0, crcTable, idx[:]), crcTable, payload)
	binary.BigEndian.PutUint32(hdr[4:], sum)
	dst = append(dst, hdr[:]...)
	dst = append(dst, idx[:]...)
	return append(dst, payload...)
}

// splitIndexedRecord undoes appendIndexedRecord's payload layout.
func splitIndexedRecord(rec []byte) (index uint64, payload []byte, err error) {
	if len(rec) < shardIndexLen {
		return 0, nil, fmt.Errorf("%w: record too short for its index prefix", ErrStateCorrupt)
	}
	return binary.BigEndian.Uint64(rec[:shardIndexLen]), rec[shardIndexLen:], nil
}

// scanSegment checks every record in data, in order, and hands each
// payload to fn. A payload is a sub-slice
// of data, never a copy: it stays valid exactly as long as data does, so
// a caller that keeps one past the scan must copy it. clean is the byte
// offset of the end of the last intact record. A trailing partial record
// (fewer bytes than its header claims, or a header cut short) yields
// errTornTail; an impossible length or a checksum mismatch on a complete
// record yields ErrStateCorrupt — that is damage, not an interrupted
// write, and must never be silently dropped. Every record is checked
// before fn sees it; an error from fn stops the scan and is returned.
func scanSegment(data []byte, fn func(payload []byte) error) (clean int, err error) {
	off := 0
	for off < len(data) {
		if len(data)-off < recordHeaderLen {
			return off, errTornTail
		}
		n := binary.BigEndian.Uint32(data[off : off+4])
		if n > maxRecordBytes {
			return off, fmt.Errorf("%w: record length %d exceeds %d", ErrStateCorrupt, n, maxRecordBytes)
		}
		sum := binary.BigEndian.Uint32(data[off+4 : off+8])
		body := data[off+recordHeaderLen:]
		if uint64(len(body)) < uint64(n) {
			return off, errTornTail
		}
		payload := body[:n:n]
		if crc32.Checksum(payload, crcTable) != sum {
			return off, fmt.Errorf("%w: record checksum mismatch at offset %d", ErrStateCorrupt, off)
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += recordHeaderLen + int(n)
	}
	return off, nil
}

// walStream is one host slot's segment stream read back from disk, the
// way recovery sees it.
type walStream struct {
	shard int
	segs  []walSeg
	// count is the stream ordinal just past the last record read.
	count uint64
	// bytes is the size of the segment files read.
	bytes int
}

// walSeg is one segment of a walStream.
type walSeg struct {
	path  string
	first uint64 // stream ordinal of the segment's first record
	data  []byte // the segment's intact, checksum-verified records
}

// read loads and scans the stream's next segment, whose first record is
// stream ordinal first, calling fn with the global index of each record. The segment joins st.segs with its intact records even
// when the scan stops at a torn tail (the error is then errTornTail).
func (st *walStream) read(path string, first uint64, fn func(index uint64) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("translog: reading segment %s: %w", filepath.Base(path), err)
	}
	st.count = first
	st.bytes += len(data)
	clean, err := scanSegment(data, func(payload []byte) error {
		index, _, err := splitIndexedRecord(payload)
		if err != nil {
			return err
		}
		st.count++
		return fn(index)
	})
	st.segs = append(st.segs, walSeg{path: path, first: first, data: data[:clean]})
	return err
}

// each walks the records read so far, oldest first, handing fn each
// record's segment position, byte offset, global index and entry
// encoding. It re-reads no file and re-checks no checksum.
func (st *walStream) each(fn func(seg, off int, index uint64, entry []byte) error) error {
	for i, sg := range st.segs {
		off := 0
		for off < len(sg.data) {
			end := off + recordHeaderLen + int(binary.BigEndian.Uint32(sg.data[off:off+4]))
			index, entry, err := splitIndexedRecord(sg.data[off+recordHeaderLen : end : end])
			if err == nil {
				err = fn(i, off, index, entry)
			}
			if err != nil {
				return err
			}
			off = end
		}
	}
	return nil
}
