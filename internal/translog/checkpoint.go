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
	"os"
	"path/filepath"
)

// Checkpoints: anchor-verified summaries of the cold prefix, so open
// replays only the WAL suffix.
//
// A checkpoint persists, for one already-committed tree head: the
// frozen subtree roots of the head size's binary decomposition (≤64
// hashes, whatever the log size), the signed tree head itself, the
// per-stream WAL record counts, and a snapshot of the
// serial indexes (issuance map + revoked set) derived from the cold
// entries. Recovery seeds a suffix tree from the blocks, replays only
// records at or past the checkpoint, and hands the trust-anchor chain a
// RootAt that covers every size ≥ the checkpoint — which is every size
// any anchor can remember, because a checkpoint is only ever written
// for a head the whole chain has already acknowledged.
//
// Verification at load is layered so each failure keeps its meaning:
// a CRC mismatch is ErrStateCorrupt (damage); an invalid checkpoint or
// inner head signature, or blocks that do not fold to the signed root,
// is ErrStateTampered (rewrite); a checkpoint claiming a size beyond
// the persisted head is ErrStateRollback (the statedir was rewound
// around a newer checkpoint). The serial snapshot is not covered by the
// Merkle root — it is derived state — so the checkpoint signature
// covers it explicitly; editing it in place is tamper, not corruption.

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
	sth    SignedTreeHead
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
	Size         uint64         `json:"size"`
	STH          SignedTreeHead `json:"sth"`
	Blocks       []Hash         `json:"blocks"`
	StreamCounts []uint64       `json:"stream_counts,omitempty"`
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
	var u32 [4]byte
	var u64 [8]byte
	var u16 [2]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(issuance)))
	dst = append(dst, u32[:]...)
	for serial, idx := range issuance {
		binary.BigEndian.PutUint16(u16[:], uint16(len(serial)))
		dst = append(dst, u16[:]...)
		dst = append(dst, serial...)
		binary.BigEndian.PutUint64(u64[:], idx)
		dst = append(dst, u64[:]...)
	}
	binary.BigEndian.PutUint32(u32[:], uint32(len(revoked)))
	dst = append(dst, u32[:]...)
	for serial := range revoked {
		binary.BigEndian.PutUint16(u16[:], uint16(len(serial)))
		dst = append(dst, u16[:]...)
		dst = append(dst, serial...)
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
	bad := fmt.Errorf("%w: checkpoint serial snapshot undecodable", ErrStateCorrupt)
	take := func(n int) ([]byte, bool) {
		if len(snap) < n {
			return nil, false
		}
		b := snap[:n]
		snap = snap[n:]
		return b, true
	}
	readStr := func() (string, bool) {
		n, ok := take(2)
		if !ok {
			return "", false
		}
		b, ok := take(int(binary.BigEndian.Uint16(n)))
		return string(b), ok
	}
	count := func(minRecord int) (int, bool) {
		b, ok := take(4)
		if !ok {
			return 0, false
		}
		n := binary.BigEndian.Uint32(b)
		return int(n), uint64(n) <= uint64(len(snap)/minRecord)
	}
	n, ok := count(minIssuanceRecord)
	if !ok {
		return nil, nil, bad
	}
	issuance := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		serial, ok := readStr()
		idx, ok2 := take(8)
		if !ok || !ok2 {
			return nil, nil, bad
		}
		issuance[serial] = binary.BigEndian.Uint64(idx)
	}
	if n, ok = count(minRevokedRecord); !ok {
		return nil, nil, bad
	}
	revoked := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		serial, ok := readStr()
		if !ok {
			return nil, nil, bad
		}
		revoked[serial] = true
	}
	if len(snap) != 0 {
		return nil, nil, bad
	}
	return issuance, revoked, nil
}

// foldBlocks folds decomposition roots (largest first) into MTH(D[0:n]):
// root([0,n)) = H(B1, root(rest)).
func foldBlocks(blocks []Hash) Hash {
	r := blocks[len(blocks)-1]
	for j := len(blocks) - 2; j >= 0; j-- {
		r = nodeHash(blocks[j], r)
	}
	return r
}

// writeCheckpointFile signs and atomically persists a checkpoint. The
// caller passes state captured under the log lock for an
// already-committed head (sth.Size == size).
func writeCheckpointFile(dir string, ck *checkpoint, signer crypto.Signer, noSync bool) (int, error) {
	hdr, err := json.Marshal(ckptHeader{Size: ck.size, STH: ck.sth, Blocks: ck.blocks, StreamCounts: ck.streamCounts})
	if err != nil {
		return 0, fmt.Errorf("translog: encoding checkpoint: %w", err)
	}
	snap := appendSnapshot(nil, ck.issuance, ck.revoked)
	digest := ckptDigest(hdr, snap)
	sig, err := signer.Sign(rand.Reader, digest[:], crypto.SHA256)
	if err != nil {
		return 0, fmt.Errorf("translog: signing checkpoint: %w", err)
	}
	buf := make([]byte, 0, len(ckptMagic)+12+len(hdr)+len(sig)+len(snap)+4)
	buf = append(buf, ckptMagic[:]...)
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], uint32(len(hdr)))
	buf = append(buf, u32[:]...)
	buf = append(buf, hdr...)
	binary.BigEndian.PutUint32(u32[:], uint32(len(sig)))
	buf = append(buf, u32[:]...)
	buf = append(buf, sig...)
	binary.BigEndian.PutUint32(u32[:], uint32(len(snap)))
	buf = append(buf, u32[:]...)
	buf = append(buf, snap...)
	binary.BigEndian.PutUint32(u32[:], crc32.Checksum(buf, crcTable))
	buf = append(buf, u32[:]...)
	if err := atomicWriteFile(filepath.Join(dir, checkpointFileName), buf, !noSync); err != nil {
		return 0, err
	}
	return len(buf), nil
}

// loadCheckpoint reads and verifies the store's checkpoint, nil when
// none exists. pub is the log public key. The persisted tree head is
// consulted for the rollback tripwire: a checkpoint claiming a size the
// persisted head does not reach means the statedir was rewound around a
// newer checkpoint.
func loadCheckpoint(dir string, pub *ecdsa.PublicKey) (*checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("translog: reading checkpoint: %w", err)
	}
	if len(data) < len(ckptMagic)+16 || !bytes.Equal(data[:len(ckptMagic)], ckptMagic[:]) {
		return nil, fmt.Errorf("%w: checkpoint file malformed", ErrStateCorrupt)
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(crcBytes) {
		return nil, fmt.Errorf("%w: checkpoint checksum mismatch", ErrStateCorrupt)
	}
	rest := body[len(ckptMagic):]
	next := func() ([]byte, bool) {
		if len(rest) < 4 {
			return nil, false
		}
		n := binary.BigEndian.Uint32(rest[:4])
		if uint64(len(rest)-4) < uint64(n) {
			return nil, false
		}
		sec := rest[4 : 4+n]
		rest = rest[4+n:]
		return sec, true
	}
	hdrBytes, ok1 := next()
	sig, ok2 := next()
	snap, ok3 := next()
	if !ok1 || !ok2 || !ok3 || len(rest) != 0 {
		return nil, fmt.Errorf("%w: checkpoint file malformed", ErrStateCorrupt)
	}
	var hdr ckptHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		return nil, fmt.Errorf("%w: checkpoint header undecodable: %v", ErrStateCorrupt, err)
	}
	digest := ckptDigest(hdrBytes, snap)
	if !ecdsa.VerifyASN1(pub, digest[:], sig) {
		return nil, fmt.Errorf("%w: checkpoint signature invalid", ErrStateTampered)
	}
	// The signed contents must be self-consistent: the inner head is a
	// valid head for exactly this size, and the frozen blocks fold to
	// its root. A mismatch under a valid signature cannot happen without
	// the signer's cooperation, but the checks are cheap and keep a
	// buggy writer from silently wedging recovery.
	if err := hdr.STH.Verify(pub); err != nil {
		return nil, fmt.Errorf("%w: checkpoint tree head signature invalid", ErrStateTampered)
	}
	if hdr.STH.Size != hdr.Size || hdr.Size == 0 {
		return nil, fmt.Errorf("%w: checkpoint size %d does not match its tree head (%d)",
			ErrStateTampered, hdr.Size, hdr.STH.Size)
	}
	want := 0
	for n := hdr.Size; n > 0; n &= n - 1 {
		want++
	}
	if len(hdr.Blocks) != want || foldBlocks(hdr.Blocks) != hdr.STH.RootHash {
		return nil, fmt.Errorf("%w: checkpoint frozen blocks do not fold to the signed root", ErrStateTampered)
	}
	issuance, revoked, err := parseSnapshot(snap)
	if err != nil {
		return nil, err
	}
	// Rollback tripwire: a checkpoint can only be written after its head
	// was durably persisted, so a persisted head older than the
	// checkpoint (or no head at all) means the statedir around the
	// checkpoint was rewound.
	sth, have, err := loadSTH(dir)
	if err != nil {
		return nil, err
	}
	if !have {
		return nil, fmt.Errorf("%w: checkpoint present but no persisted tree head", ErrStateTampered)
	}
	if sth.Size < hdr.Size {
		return nil, fmt.Errorf("%w: checkpoint covers %d entries but persisted tree head covers %d",
			ErrStateRollback, hdr.Size, sth.Size)
	}
	return &checkpoint{
		size: hdr.Size, sth: hdr.STH, blocks: hdr.Blocks,
		streamCounts: hdr.StreamCounts, issuance: issuance, revoked: revoked,
	}, nil
}
