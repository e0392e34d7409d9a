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
	"os"
	"path/filepath"
	"slices"

	"vnfguard/internal/statedir"
	"vnfguard/internal/wire"
)

// Checkpoints: anchor-verified summaries of the cold prefix, so open
// replays only the WAL suffix and the entries below it stay on disk.
//
// A checkpoint persists, for one already-committed tree size n: the
// tree's rows above row 0 below n (n/256 + n/65536 + … hashes: 128 KiB
// at 2^20) and the row-0 hashes of the tile holding n (at most 255), the
// per-stream WAL record counts, and a snapshot of the serial indexes
// (issuance map + revoked set, sorted by serial, so one log state always
// writes the same bytes). The rows are the whole state of the tree at
// n, as in a tiled log: recovery reopens the tree from them in the shape
// a running tree has after a checkpoint evicted its prefix, replays only
// records at or past the checkpoint, and hands the trust-anchor chain a
// RecoveredState whose roots cover every size ≥ the checkpoint. That is
// every size an honest anchor can remember, because a checkpoint is only
// ever written for a head the whole chain has already acknowledged;
// RecoveredState.check refuses a remembered size below it as a rollback.
//
// One signature, by the log key, covers the header and the serial
// snapshot; the header carries the SHA-256 of the rows section, which
// the open compares before it builds the tree. A CRC mismatch anywhere
// in the file is ErrStateCorrupt (damage), an invalid signature or rows
// that differ from the signed digest ErrStateTampered (rewrite). The
// rows' root is judged where every other root is — by the anchors,
// whose remembered heads all lie at or past the checkpoint and so fold
// the rows into the roots they compare. The serial snapshot is not
// covered by the Merkle root — it is derived state — so the signature
// covers it explicitly; editing it in place is tamper, not corruption.
// A header written with the block set older builds kept beside the rows
// (a "blocks" key) opens the same: the decoder ignores the key, and the
// signature covers the header's bytes as written. A checkpoint of the
// format before the rows (magic VNFGCKP1) is refused with
// ErrLegacyLayout: it cannot reopen a tree whose cold rows are not in
// memory.

// checkpointFileName holds the newest durable checkpoint.
const checkpointFileName = "checkpoint.bin"

// ckptMagic identifies a checkpoint file (and its format version);
// ckptMagicV1 is the retired format without rows.
var (
	ckptMagic   = [8]byte{'V', 'N', 'F', 'G', 'C', 'K', 'P', '2'}
	ckptMagicV1 = [8]byte{'V', 'N', 'F', 'G', 'C', 'K', 'P', '1'}
)

// ckptSigPrefix domain-separates checkpoint signatures from tree-head
// signatures under the same log key.
const ckptSigPrefix = "vnfguard-translog-ckpt-v2"

// checkpoint is the decoded, verified checkpoint state.
type checkpoint struct {
	size uint64
	// rows is the tree's rows section (tree.appendRows at size).
	rows []byte
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
	StreamCounts []uint64 `json:"stream_counts,omitempty"`
	RowsDigest   Hash     `json:"rows_digest"`
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

// appendSnapshot encodes the serial indexes, each sorted by serial, so
// a log state encodes to one byte string whatever order its maps
// iterate in.
func appendSnapshot(dst []byte, issuance map[string]uint64, revoked map[string]bool) []byte {
	dst = wire.AppendU32(dst, uint32(len(issuance)))
	for _, serial := range slices.Sorted(maps.Keys(issuance)) {
		dst = append(wire.AppendU16(dst, uint16(len(serial))), serial...)
		dst = wire.AppendU64(dst, issuance[serial])
	}
	dst = wire.AppendU32(dst, uint32(len(revoked)))
	for _, serial := range slices.Sorted(maps.Keys(revoked)) {
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
	hdr, err := json.Marshal(ckptHeader{Size: ck.size, StreamCounts: ck.streamCounts, RowsDigest: sha256.Sum256(ck.rows)})
	if err != nil {
		return 0, fmt.Errorf("translog: encoding checkpoint: %w", err)
	}
	snap := appendSnapshot(nil, ck.issuance, ck.revoked)
	digest := ckptDigest(hdr, snap)
	sig, err := signer.Sign(rand.Reader, digest[:], crypto.SHA256)
	if err != nil {
		return 0, fmt.Errorf("translog: signing checkpoint: %w", err)
	}
	buf := append(make([]byte, 0, len(ckptMagic)+16+len(hdr)+len(sig)+len(snap)+len(ck.rows)+4), ckptMagic[:]...)
	buf = wire.AppendBytes32(buf, hdr)
	buf = wire.AppendBytes32(buf, sig)
	buf = wire.AppendBytes32(buf, snap)
	buf = sealEnvelope(wire.AppendBytes32(buf, ck.rows))
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
	if len(data) >= len(ckptMagicV1) && bytes.Equal(data[:len(ckptMagicV1)], ckptMagicV1[:]) {
		return nil, fmt.Errorf("%w: checkpoint of the format without tree rows", ErrLegacyLayout)
	}
	body, err := openEnvelope(data, ckptMagic)
	if err != nil {
		return nil, fmt.Errorf("%w: checkpoint: %w", ErrStateCorrupt, err)
	}
	r := wire.NewReader(body)
	hdrBytes := r.Bytes32(wire.Unbounded)
	sig := r.Bytes32(wire.Unbounded)
	snap := r.Bytes32(wire.Unbounded)
	rows := r.Bytes32(wire.Unbounded)
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
	// A checkpoint without per-stream counts was written for the
	// retired single-stream layout.
	if len(hdr.StreamCounts) == 0 {
		return nil, fmt.Errorf("%w: checkpoint without per-stream record counts", ErrLegacyLayout)
	}
	// A signed empty checkpoint is never written; only a buggy writer
	// produces one. The rows section is not signed itself, only its
	// digest; its length follows from the signed size.
	if hdr.Size == 0 {
		return nil, fmt.Errorf("%w: checkpoint of an empty tree", ErrStateTampered)
	}
	if want := checkpointRowHashes(hdr.Size) * uint64(len(Hash{})); uint64(len(rows)) != want {
		return nil, fmt.Errorf("%w: checkpoint rows section holds %d bytes, size %d needs %d",
			ErrStateTampered, len(rows), hdr.Size, want)
	}
	if sha256.Sum256(rows) != hdr.RowsDigest {
		return nil, fmt.Errorf("%w: checkpoint rows differ from the digest it signed", ErrStateTampered)
	}
	issuance, revoked, err := parseSnapshot(snap)
	if err != nil {
		return nil, err
	}
	return &checkpoint{size: hdr.Size, rows: rows, streamCounts: hdr.StreamCounts, issuance: issuance, revoked: revoked}, nil
}
