// Package sgx implements a software model of Intel SGX faithful enough to
// drive the paper's attestation workflow: enclave construction with an
// ECREATE/EADD/EEXTEND measurement ledger, an immutable post-EINIT runtime
// with an ECALL/OCALL boundary, memory-encrypted enclave state, local
// attestation reports, sealing, and EPID quotes from a quoting enclave.
//
// Hardware costs (transitions, quote generation, sealing) are charged to a
// simtime.CostModel, so experiments run without SGX hardware yet keep the
// latency shape it would give them.
package sgx

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// PageSize is the SGX EPC page granularity.
const PageSize = 4096

// eextendChunk is the granularity of EEXTEND (256 bytes per instruction).
const eextendChunk = 256

// Measurement is an enclave measurement (MRENCLAVE or MRSIGNER).
type Measurement [32]byte

// String returns the hex form, as printed in attestation logs.
func (m Measurement) String() string { return hex.EncodeToString(m[:]) }

// IsZero reports whether the measurement is unset.
func (m Measurement) IsZero() bool { return m == Measurement{} }

// Ledger accumulates the enclave build measurement exactly as the SGX
// instructions do: ECREATE contributes the enclave attributes, each EADD
// contributes the page offset and security flags, and each EEXTEND
// contributes a 256-byte chunk digest. The final digest is MRENCLAVE.
type Ledger struct {
	h        hash.Hash
	finished bool
}

// NewLedger starts a measurement with the ECREATE record.
func NewLedger(attributes Attributes, sizeBytes uint64) *Ledger {
	l := &Ledger{h: sha256.New()}
	var rec [8 + 8 + 8]byte
	copy(rec[0:8], "ECREATE\x00")
	binary.LittleEndian.PutUint64(rec[8:16], attributes.encode())
	binary.LittleEndian.PutUint64(rec[16:24], sizeBytes)
	l.h.Write(rec[:])
	return l
}

// AddPage measures one EADD (page metadata) followed by the EEXTENDs over
// the page content. Short final pages are zero-padded to PageSize, as the
// loader would.
func (l *Ledger) AddPage(offset uint64, flags PageFlags, content []byte) {
	var rec [8 + 8 + 8]byte
	copy(rec[0:8], "EADD\x00\x00\x00\x00")
	binary.LittleEndian.PutUint64(rec[8:16], offset)
	binary.LittleEndian.PutUint64(rec[16:24], uint64(flags))
	l.h.Write(rec[:])

	var page [PageSize]byte
	copy(page[:], content)
	for chunk := 0; chunk < PageSize; chunk += eextendChunk {
		var ext [8 + 8]byte
		copy(ext[0:8], "EEXTEND\x00")
		binary.LittleEndian.PutUint64(ext[8:16], offset+uint64(chunk))
		l.h.Write(ext[:])
		sum := sha256.Sum256(page[chunk : chunk+eextendChunk])
		l.h.Write(sum[:])
	}
}

// AddRegion measures a named region (one EADD per page of content).
// Offsets advance from base in page increments; the region name itself is
// measured so that two enclaves with identical bytes in differently-named
// modules measure differently, mirroring distinct load layouts.
func (l *Ledger) AddRegion(base uint64, name string, flags PageFlags, content []byte) uint64 {
	nameSum := sha256.Sum256([]byte(name))
	l.AddPage(base, flags, nameSum[:])
	base += PageSize
	for off := 0; off < len(content); off += PageSize {
		end := off + PageSize
		if end > len(content) {
			end = len(content)
		}
		l.AddPage(base, flags, content[off:end])
		base += PageSize
	}
	return base
}

// Finalize returns MRENCLAVE. The ledger must not be extended afterwards.
func (l *Ledger) Finalize() Measurement {
	l.finished = true
	var m Measurement
	copy(m[:], l.h.Sum(nil))
	return m
}

// PageFlags are the EADD security attributes of a page.
type PageFlags uint64

// Page permission flags.
const (
	PageRead PageFlags = 1 << iota
	PageWrite
	PageExecute
	PageTCS
)

// Attributes are the SGX enclave attributes measured at ECREATE and
// reported in quotes.
type Attributes struct {
	// Debug marks a debug-launched enclave; production appraisal policies
	// reject quotes from debug enclaves.
	Debug bool
	// Mode64 is always true on the modeled platform.
	Mode64 bool
	// XFRM is the extended-feature request mask (opaque here).
	XFRM uint32
}

func (a Attributes) encode() uint64 {
	var v uint64
	if a.Debug {
		v |= 1 << 1
	}
	if a.Mode64 {
		v |= 1 << 2
	}
	v |= uint64(a.XFRM) << 32
	return v
}
