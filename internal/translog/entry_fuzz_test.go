package translog

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzEntryDecode pins the one entry parser: for any bytes, parseEntry
// and unmarshalEntry accept or refuse together, with the same sentinel
// (ErrMalformedEntry or ErrUnknownType); an accepted encoding's type and
// serial are the decoded entry's, and Marshal of the decoded entry
// reproduces the input byte for byte — the encoding is canonical, so
// recovery may hash the bytes it validated without ever re-marshalling.
func FuzzEntryDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		fields, perr := parseEntry(b)
		e, uerr := unmarshalEntry(b)
		if (perr == nil) != (uerr == nil) {
			t.Fatalf("parser and decoder disagree: parse %v, unmarshal %v", perr, uerr)
		}
		if perr != nil {
			malformed, unknown := errors.Is(perr, ErrMalformedEntry), errors.Is(perr, ErrUnknownType)
			if malformed == unknown {
				t.Fatalf("refusal %v is not exactly one of the entry sentinels", perr)
			}
			if errors.Is(uerr, ErrMalformedEntry) != malformed || errors.Is(uerr, ErrUnknownType) != unknown {
				t.Fatalf("sentinels differ: parse %v, unmarshal %v", perr, uerr)
			}
			return
		}
		if fields.typ != e.Type || string(fields.serial) != e.Serial {
			t.Fatalf("parsed type %v serial %q, decoded %v %q", fields.typ, fields.serial, e.Type, e.Serial)
		}
		if got := e.Marshal(); !bytes.Equal(got, b) {
			t.Fatalf("Marshal of the decoded entry is not the input:\n got %x\nwant %x", got, b)
		}
	})
}

// TestParseEntryAllocsNothing pins that validation is allocation-free:
// recovery runs it once per suffix record.
func TestParseEntryAllocsNothing(t *testing.T) {
	b := Entry{Type: EntryProvision, Timestamp: 7, Actor: "fw-1", Host: "host-1",
		Serial: "4242", Measurement: []byte{1, 2, 3}, Detail: "OK"}.Marshal()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := parseEntry(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("parseEntry: %v allocations per call, want 0", allocs)
	}
}
