package translog

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math/bits"
	"os"
	"path/filepath"
	"slices"

	"vnfguard/internal/statedir"
	"vnfguard/internal/wire"
)

// Checkpoints: anchor-verified summaries of the cold prefix, so open
// replays only the WAL suffix.
//
// A checkpoint persists, for one already-committed tree size: the
// frozen subtree roots of the size's binary decomposition (≤64 hashes,
// whatever the log size), the per-stream WAL record counts, and a
// snapshot of the serial indexes (issuance map + revoked set) derived
// from the cold entries. Recovery seeds a suffix tree from the blocks,
// replays only records at or past the checkpoint, and hands the
// trust-anchor chain a RecoveredState whose roots cover every size ≥ the
// checkpoint. That is every size an honest anchor can remember, because
// a checkpoint is only ever written for a head the whole chain has
// already acknowledged; RecoveredState.check refuses a remembered size
// below it as a rollback.
//
// One signature, by the log key, covers the whole file, and load checks
// nothing else: a CRC mismatch is ErrStateCorrupt (damage), an invalid
// signature ErrStateTampered (rewrite). The blocks' root is judged where
// every other root is — by the anchors, whose remembered heads all lie
// at or past the checkpoint and so fold the blocks into the roots they
// compare. The serial snapshot is not covered by the Merkle root — it
// is derived state — so the signature covers it explicitly; editing it
// in place is tamper, not corruption. A file written while the header
// also carried the head it was taken at (an "sth" object) still opens:
// the signature covers the header bytes as written, and decoding
// ignores the field.

// checkpointFileName holds the newest durable checkpoint.
const checkpointFileName = "checkpoint.bin"

// ckptMagic identifies a checkpoint file (and its format version).
var ckptMagic = [8]byte{'V', 'N', 'F', 'G', 'C', 'K', 'P', '1'}

// ckptSigPrefix domain-separates checkpoint signatures from tree-head
// signatures under the same log key.
const ckptSigPrefix = "vnfguard-translog-ckpt-v1"

// checkpoint is the decoded, verified checkpoint state.
type checkpoint struct {
	size   uint64
	blocks []Hash
	// streamCounts is each WAL stream's record count at the checkpoint:
	// how many of its records are cold. A checkpoint without them was
	// written by the retired single-stream layout (ErrLegacyLayout).
	streamCounts []uint64
	issuance     map[string]uint64
	revoked      map[string]bool
}

// ckptHeader is the JSON header inside the checkpoint file.
type ckptHeader struct {
	Size         uint64   `json:"size"`
	Blocks       []Hash   `json:"blocks"`
	StreamCounts []uint64 `json:"stream_counts,omitempty"`
}

// ckptDigest is the SHA-256 the checkpoint signature covers: the domain
// prefix, the header encoding and the serial-snapshot encoding.
func ckptDigest(hdr, snap []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(ckptSigPrefix))
	h.Write(hdr)
	h.Write(snap)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// appendSnapshot encodes the serial indexes: both maps sorted by
// nothing in particular (order does not matter — the signature covers
// whatever order was written, and loads rebuild the maps).
func appendSnapshot(dst []byte, issuance map[string]uint64, revoked map[string]bool) []byte {
	dst = wire.AppendU32(dst, uint32(len(issuance)))
	for serial, idx := range issuance {
		dst = append(wire.AppendU16(dst, uint16(len(serial))), serial...)
		dst = wire.AppendU64(dst, idx)
	}
	dst = wire.AppendU32(dst, uint32(len(revoked)))
	for serial := range revoked {
		dst = append(wire.AppendU16(dst, uint16(len(serial))), serial...)
	}
	return dst
}

// Smallest encodings of one snapshot record: a serial's length prefix
// plus, for an issuance, its index. They cap how many records the bytes
// left can hold, so a corrupt count cannot size a huge map.
const (
	minIssuanceRecord = 2 + 8
	minRevokedRecord  = 2
)

// parseSnapshot decodes appendSnapshot's encoding. The maps are sized
// from the encoded counts up front, so the open that adopts them never
// rehashes.
func parseSnapshot(snap []byte) (map[string]uint64, map[string]bool, error) {
	r := wire.NewReader(snap)
	// count reads a record count, refusing one the bytes left cannot
	// hold before any map is sized from it.
	count := func(minRecord int) int {
		n := uint64(r.U32())
		if n > uint64(r.Len()/minRecord) {
			r.Fixed(n * uint64(minRecord)) // past the end: refused as truncated
			return 0
		}
		return int(n)
	}
	serial := func() string { return string(r.Fixed(uint64(r.U16()))) }
	n := count(minIssuanceRecord)
	issuance := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		s := serial()
		issuance[s] = r.U64()
	}
	n = count(minRevokedRecord)
	revoked := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		revoked[serial()] = true
	}
	if err := r.Done(); err != nil {
		return nil, nil, fmt.Errorf("%w: checkpoint serial snapshot undecodable: %w", ErrStateCorrupt, err)
	}
	return issuance, revoked, nil
}

// Checkpoints and tiles share one envelope: an 8-byte magic,
// the body, and a big-endian CRC-32C over magic and body.
var (
	errEnvelopeMagic = errors.New("translog: short file or wrong magic")
	errEnvelopeCRC   = errors.New("translog: checksum mismatch")
)

// sealEnvelope appends the CRC-32C of buf, which starts with its magic.
func sealEnvelope(buf []byte) []byte {
	return wire.AppendU32(buf, crc32.Checksum(buf, crcTable))
}

// openEnvelope checks data's magic and CRC-32C and returns the body
// between them.
func openEnvelope(data []byte, magic [8]byte) ([]byte, error) {
	if len(data) < len(magic)+4 || !bytes.Equal(data[:len(magic)], magic[:]) {
		return nil, errEnvelopeMagic
	}
	end := len(data) - 4
	if crc32.Checksum(data[:end], crcTable) != binary.BigEndian.Uint32(data[end:]) {
		return nil, errEnvelopeCRC
	}
	return data[len(magic):end], nil
}

// writeCheckpointFile signs and atomically persists a checkpoint. The
// caller passes state captured under the log lock for an
// already-committed size.
func writeCheckpointFile(dir string, ck *checkpoint, signer crypto.Signer, noSync bool) (int, error) {
	hdr, err := json.Marshal(ckptHeader{Size: ck.size, Blocks: ck.blocks, StreamCounts: ck.streamCounts})
	if err != nil {
		return 0, fmt.Errorf("translog: encoding checkpoint: %w", err)
	}
	snap := appendSnapshot(nil, ck.issuance, ck.revoked)
	digest := ckptDigest(hdr, snap)
	sig, err := signer.Sign(rand.Reader, digest[:], crypto.SHA256)
	if err != nil {
		return 0, fmt.Errorf("translog: signing checkpoint: %w", err)
	}
	buf := append(make([]byte, 0, len(ckptMagic)+12+len(hdr)+len(sig)+len(snap)+4), ckptMagic[:]...)
	buf = wire.AppendBytes32(buf, hdr)
	buf = wire.AppendBytes32(buf, sig)
	buf = sealEnvelope(wire.AppendBytes32(buf, snap))
	if err := statedir.ReplaceFile(filepath.Join(dir, checkpointFileName), buf, !noSync); err != nil {
		return 0, err
	}
	return len(buf), nil
}

// loadCheckpoint reads the store's checkpoint and verifies its signature
// under the log key pub; nil when none exists.
func loadCheckpoint(dir string, pub *ecdsa.PublicKey) (*checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("translog: reading checkpoint: %w", err)
	}
	body, err := openEnvelope(data, ckptMagic)
	if err != nil {
		return nil, fmt.Errorf("%w: checkpoint: %w", ErrStateCorrupt, err)
	}
	r := wire.NewReader(body)
	hdrBytes := r.Bytes32(wire.Unbounded)
	sig := r.Bytes32(wire.Unbounded)
	snap := r.Bytes32(wire.Unbounded)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: checkpoint file malformed: %w", ErrStateCorrupt, err)
	}
	var hdr ckptHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		return nil, fmt.Errorf("%w: checkpoint header undecodable: %v", ErrStateCorrupt, err)
	}
	digest := ckptDigest(hdrBytes, snap)
	if !ecdsa.VerifyASN1(pub, digest[:], sig) {
		return nil, fmt.Errorf("%w: checkpoint signature invalid", ErrStateTampered)
	}
	// A signed block set that does not decompose the signed size cannot
	// seed a suffix tree; only a buggy writer produces one.
	if hdr.Size == 0 || len(hdr.Blocks) != bits.OnesCount64(hdr.Size) {
		return nil, fmt.Errorf("%w: checkpoint holds %d frozen blocks for size %d", ErrStateTampered, len(hdr.Blocks), hdr.Size)
	}
	issuance, revoked, err := parseSnapshot(snap)
	if err != nil {
		return nil, err
	}
	return &checkpoint{
		size: hdr.Size, blocks: hdr.Blocks,
		streamCounts: hdr.StreamCounts, issuance: issuance, revoked: revoked,
	}, nil
}

// Cold reads. The entries a checkpoint summarizes stay in the WAL
// segments that framed them: Log.Checkpoint rolls every stream as it
// snapshots the per-stream record counts, so no segment straddles a
// checkpoint, and the segments starting below their stream's count hold
// only checkpointed records, are closed for append and are never
// rewritten. Recovery skips them; hydration (Log.hydrate) reads them
// back here and checks the rebuilt prefix against the checkpoint root,
// so a cold segment is trusted exactly as far as a replayed one.

// coldWALRecords reads the store's cold WAL segments — per stream, those
// starting below counts, its record count at a checkpoint covering at
// least c entries — and returns the entry encodings of the contiguous
// run of entries from index 0 below c, in index order: sub-slices of
// the segment buffers, which the entry arena copies. No segment read is
// open for append, so a torn record is damage like any other.
func coldWALRecords(dir string, c uint64, counts []uint64) ([][]byte, error) {
	shardFirsts, err := listStreams(dir)
	if err != nil {
		return nil, err
	}
	var streams []walStream
	n := 0
	for _, shard := range slices.Sorted(maps.Keys(shardFirsts)) {
		if shard >= len(counts) {
			break
		}
		st := walStream{shard: shard}
		for _, first := range shardFirsts[shard] {
			if first >= counts[shard] {
				break
			}
			path := filepath.Join(dir, shardSegmentName(shard, first))
			err := st.read(path, first, func(index uint64) error {
				if index < c {
					n++
				}
				return nil
			})
			if errors.Is(err, errTornTail) {
				return nil, fmt.Errorf("%w: cold segment %s ends mid-record", ErrStateCorrupt, filepath.Base(path))
			}
			if err != nil {
				return nil, err
			}
		}
		streams = append(streams, st)
	}
	m := newMerge(0, n)
	for s := range streams {
		_ = streams[s].each(func(_, _ int, index uint64, entry []byte) error {
			if index < c {
				m.place(index, entry, streams[s].shard)
			}
			return nil
		})
	}
	return m.payloads[:m.run()], nil
}

// loadCold reads the canonical encodings of the c entries below the
// checkpoint boundary c from the cold WAL segments and returns them with
// their leaf hashes. The hashes are recomputed here — a segment's CRCs
// detect damage, but binding payloads to the checkpointed root is the
// caller's verification, exactly as WAL replay binds records to the
// persisted head.
func (s *Store) loadCold(c uint64) ([][]byte, []Hash, error) {
	payloads, err := coldWALRecords(s.dir, c, s.ckpt.Load().counts)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(payloads)) != c {
		return nil, nil, fmt.Errorf("%w: only %d of %d cold entries present in the WAL segments",
			ErrStateCorrupt, len(payloads), c)
	}
	return payloads, leafHashes(payloads), nil
}
