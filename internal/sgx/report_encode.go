package sgx

import "fmt"

// EncodeReport serialises a report for transport between an application
// enclave and the quoting enclave (the AESM hand-off in the SDK).
func EncodeReport(r *Report) []byte {
	out := make([]byte, 0, reportBodyLen+32)
	out = append(out, r.Body.Encode()...)
	out = append(out, r.MAC[:]...)
	return out
}

// DecodeReport parses EncodeReport output. Every refusal wraps
// ErrMalformedReport.
func DecodeReport(b []byte) (*Report, error) {
	if len(b) != reportBodyLen+32 {
		return nil, fmt.Errorf("%w: %d bytes, want %d", ErrMalformedReport, len(b), reportBodyLen+32)
	}
	body, err := decodeReportBody(b[:reportBodyLen])
	if err != nil {
		return nil, err
	}
	r := &Report{Body: body}
	copy(r.MAC[:], b[reportBodyLen:])
	return r, nil
}
