package sgx

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// ReportData is the caller-chosen 64-byte field bound into reports and
// quotes; attestation protocols put channel-binding digests here.
type ReportData [64]byte

// ReportDataFromHash places a 32-byte digest in the first half of a
// ReportData, zero-padding the rest (the SGX SDK convention).
func ReportDataFromHash(sum [32]byte) ReportData {
	var rd ReportData
	copy(rd[:32], sum[:])
	return rd
}

// ReportBody carries the attested identity fields, mirroring
// sgx_report_body_t.
type ReportBody struct {
	CPUSVN     [16]byte
	Attributes Attributes
	MRENCLAVE  Measurement
	MRSIGNER   Measurement
	ISVProdID  uint16
	ISVSVN     uint16
	ReportData ReportData
}

// Encode serialises the body deterministically; this is the byte string
// MACed in reports and signed in quotes.
func (b *ReportBody) Encode() []byte {
	out := make([]byte, 0, 16+8+32+32+2+2+64)
	out = append(out, b.CPUSVN[:]...)
	var attrs [8]byte
	binary.LittleEndian.PutUint64(attrs[:], b.Attributes.encode())
	out = append(out, attrs[:]...)
	out = append(out, b.MRENCLAVE[:]...)
	out = append(out, b.MRSIGNER[:]...)
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], b.ISVProdID)
	out = append(out, u16[:]...)
	binary.LittleEndian.PutUint16(u16[:], b.ISVSVN)
	out = append(out, u16[:]...)
	out = append(out, b.ReportData[:]...)
	return out
}

const reportBodyLen = 16 + 8 + 32 + 32 + 2 + 2 + 64

// attributesMask covers the attribute bits Attributes.encode can set.
const attributesMask = 1<<1 | 1<<2 | 0xFFFFFFFF<<32

// ErrMalformedReport is wrapped by every refusal to decode a report or a
// report body.
var ErrMalformedReport = errors.New("sgx: malformed report")

// decodeReportBody parses an encoded body. Attribute bits outside
// attributesMask are refused: they would not survive a re-encode, so the
// decoded body would differ from the bytes that were MACed or signed.
func decodeReportBody(p []byte) (ReportBody, error) {
	var b ReportBody
	if len(p) != reportBodyLen {
		return b, fmt.Errorf("%w: body is %d bytes, want %d", ErrMalformedReport, len(p), reportBodyLen)
	}
	attrs := binary.LittleEndian.Uint64(p[16:24])
	if attrs&^attributesMask != 0 {
		return b, fmt.Errorf("%w: reserved attribute bits %#x", ErrMalformedReport, attrs&^attributesMask)
	}
	copy(b.CPUSVN[:], p[0:16])
	b.Attributes = decodeAttributes(attrs)
	copy(b.MRENCLAVE[:], p[24:56])
	copy(b.MRSIGNER[:], p[56:88])
	b.ISVProdID = binary.LittleEndian.Uint16(p[88:90])
	b.ISVSVN = binary.LittleEndian.Uint16(p[90:92])
	copy(b.ReportData[:], p[92:156])
	return b, nil
}

func decodeAttributes(v uint64) Attributes {
	return Attributes{
		Debug:  v&(1<<1) != 0,
		Mode64: v&(1<<2) != 0,
		XFRM:   uint32(v >> 32),
	}
}

// TargetInfo identifies the enclave a report is destined for (EREPORT's
// TARGETINFO operand).
type TargetInfo struct {
	MRENCLAVE  Measurement
	Attributes Attributes
}

// Report is a local attestation report: a body MACed with the target
// enclave's report key. Only enclaves on the same platform can verify it.
type Report struct {
	Body ReportBody
	MAC  [32]byte
}

// Report generates a local report targeted at target, charging EREPORT.
func (c *Context) Report(target TargetInfo, data ReportData) *Report {
	c.e.platform.charge(opEReport)
	body := ReportBody{
		CPUSVN:     c.e.platform.cpusvn,
		Attributes: c.e.identity.Attributes,
		MRENCLAVE:  c.e.identity.MRENCLAVE,
		MRSIGNER:   c.e.identity.MRSIGNER,
		ISVProdID:  c.e.identity.ISVProdID,
		ISVSVN:     c.e.identity.ISVSVN,
		ReportData: data,
	}
	key := c.e.platform.reportKey(target.MRENCLAVE)
	return &Report{Body: body, MAC: reportMAC(key, &body)}
}

// VerifyReport checks a report that was targeted at the calling enclave.
func (c *Context) VerifyReport(r *Report) error {
	key := c.e.platform.reportKey(c.e.identity.MRENCLAVE)
	return verifyReportMAC(key, r)
}

func reportMAC(key [32]byte, body *ReportBody) [32]byte {
	mac := hmac.New(sha256.New, key[:])
	mac.Write(body.Encode())
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// ErrReportMAC indicates a report that fails MAC verification.
var ErrReportMAC = errors.New("sgx: report MAC mismatch")

func verifyReportMAC(key [32]byte, r *Report) error {
	want := reportMAC(key, &r.Body)
	if !hmac.Equal(want[:], r.MAC[:]) {
		return ErrReportMAC
	}
	return nil
}
