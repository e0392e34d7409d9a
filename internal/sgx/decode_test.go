package sgx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"vnfguard/internal/epid"
	"vnfguard/internal/sigmemo"
)

// testQuote returns a linkable quote and the report it was made from.
func testQuote(t *testing.T) (*Quote, *Report, *epid.Issuer) {
	t.Helper()
	p, issuer := testPlatform(t)
	spec := echoSpec("attest")
	var report *Report
	spec.Modules[0].Handlers["r"] = func(ctx *Context, args []byte) ([]byte, error) {
		report = ctx.Report(p.QE().TargetInfo(), ReportData{7})
		return nil, nil
	}
	e := launch(t, p, spec, testSigner(t))
	if _, err := e.ECall("r", nil); err != nil {
		t.Fatal(err)
	}
	q, err := p.QE().GetQuote(report, SPID{1}, QuoteLinkable)
	if err != nil {
		t.Fatal(err)
	}
	return q, report, issuer
}

// attrsOffset is where the attribute word of a report body sits, in a
// report encoding and after the quote header in a quote encoding.
const (
	attrsOffset      = 16
	quoteBodyOffset  = 2 + 2 + 4 + 2 + 2 + 32
	reservedAttrsBit = 1 << 0
)

// TestDecodeReportErrors: every refusal of a report, or of a quote
// carrying a bad report body, matches its sentinel.
func TestDecodeReportErrors(t *testing.T) {
	q, report, _ := testQuote(t)
	enc := EncodeReport(report)
	reserved := append([]byte(nil), enc...)
	reserved[attrsOffset] |= reservedAttrsBit
	for name, b := range map[string][]byte{
		"empty":             nil,
		"short":             enc[:len(enc)-1],
		"trailing-byte":     append(append([]byte(nil), enc...), 0),
		"reserved-attr-bit": reserved,
	} {
		if _, err := DecodeReport(b); !errors.Is(err, ErrMalformedReport) {
			t.Fatalf("%s: got %v, want ErrMalformedReport", name, err)
		}
	}

	qenc := q.Encode()
	qenc[quoteBodyOffset+attrsOffset] |= reservedAttrsBit
	_, err := DecodeQuote(qenc)
	if !errors.Is(err, ErrMalformedQuote) || !errors.Is(err, ErrMalformedReport) {
		t.Fatalf("quote with reserved attribute bit: got %v, want ErrMalformedQuote and ErrMalformedReport", err)
	}
}

// TestWarmMemoSigStructRefusals launches an enclave once so the
// platform's SIGSTRUCT memo is warm, then flips one bit in each input the
// signature covers: every flip is refused with ErrBadSigStruct, exactly
// as with a cold memo, and no refusal is remembered.
func TestWarmMemoSigStructRefusals(t *testing.T) {
	p, _ := testPlatform(t)
	signer := testSigner(t)
	good, err := SignEnclave(echoSpec("e"), signer)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		e, err := p.Launch(echoSpec("e"), good)
		if err != nil {
			t.Fatal(err)
		}
		e.Destroy()
	}
	if n := p.sigs.Len(); n != 1 {
		t.Fatalf("memo holds %d SIGSTRUCTs after two launches of one image, want 1", n)
	}

	other := testSigner(t)
	otherSS, err := SignEnclave(echoSpec("e"), other)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(spec *EnclaveSpec, ss *SigStruct){
		"signer key bit":        func(_ *EnclaveSpec, ss *SigStruct) { ss.SignerPub[20] ^= 0x01 },
		"signer key substitute": func(_ *EnclaveSpec, ss *SigStruct) { ss.SignerPub = otherSS.SignerPub },
		"measurement bit":       func(_ *EnclaveSpec, ss *SigStruct) { ss.Measurement[0] ^= 0x01 },
		"code bit":              func(spec *EnclaveSpec, _ *SigStruct) { spec.Modules[0].Code[0] ^= 0x01 },
		"product ID bit":        func(_ *EnclaveSpec, ss *SigStruct) { ss.ProdID ^= 0x01 },
		// Spec and SIGSTRUCT agree, so only the signature check can
		// refuse: the memo must miss on the changed digest.
		"product ID bit, spec too": func(spec *EnclaveSpec, ss *SigStruct) { spec.ProdID ^= 0x01; ss.ProdID ^= 0x01 },
		"SVN bit, spec too":        func(spec *EnclaveSpec, ss *SigStruct) { spec.SVN ^= 0x01; ss.SVN ^= 0x01 },
		"attributes bit":           func(_ *EnclaveSpec, ss *SigStruct) { ss.Attributes.XFRM ^= 0x01 },
		"signature bit":            func(_ *EnclaveSpec, ss *SigStruct) { ss.Signature[len(ss.Signature)-1] ^= 0x01 },
	}
	for name, flip := range cases {
		spec := echoSpec("e")
		spec.Modules[0].Code = append([]byte(nil), spec.Modules[0].Code...)
		ss := *good
		ss.SignerPub = append([]byte(nil), good.SignerPub...)
		ss.Signature = append([]byte(nil), good.Signature...)
		flip(&spec, &ss)
		if _, err := p.Launch(spec, &ss); !errors.Is(err, ErrBadSigStruct) {
			t.Fatalf("%s: got %v, want ErrBadSigStruct", name, err)
		}
	}
	if n := p.sigs.Len(); n != 1 {
		t.Fatalf("memo holds %d SIGSTRUCTs after refusals, want 1", n)
	}
	if _, err := p.Launch(echoSpec("e"), good); err != nil {
		t.Fatalf("untouched SIGSTRUCT refused after the table: %v", err)
	}
}

// FuzzDecodeQuote feeds DecodeQuote what an untrusted host could send.
// Accepted bytes re-encode byte-equal and lose that property under a cut
// or an extra byte; refusals wrap ErrMalformedQuote. Accepted quotes then
// go through EPID verification under a group key no fuzzer holds: they
// are refused without a panic, and the refusal leaves the credential
// memo empty.
func FuzzDecodeQuote(f *testing.F) {
	issuer, err := epid.NewIssuer(100)
	if err != nil {
		f.Fatal(err)
	}
	gpk := issuer.GroupPublicKey()
	creds := sigmemo.New()
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeQuote(data)
		if err != nil {
			if !errors.Is(err, ErrMalformedQuote) {
				t.Fatalf("refusal without ErrMalformedQuote: %v", err)
			}
			return
		}
		enc := q.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatal("accepted quote does not re-encode byte-equal")
		}
		for name, bad := range map[string][]byte{
			"cut":   enc[:len(enc)-1],
			"extra": append(enc, 0),
		} {
			if _, err := DecodeQuote(bad); !errors.Is(err, ErrMalformedQuote) {
				t.Fatalf("%s: got %v, want ErrMalformedQuote", name, err)
			}
		}
		if err := VerifyQuote(q, gpk, nil, creds); err == nil {
			t.Fatal("quote verified under a fresh group key")
		}
		if creds.Len() != 0 {
			t.Fatal("a refused credential was remembered")
		}
	})
}

// FuzzDecodeReport: accepted reports re-encode byte-equal; refusals wrap
// ErrMalformedReport, never a panic.
func FuzzDecodeReport(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReport(data)
		if err != nil {
			if !errors.Is(err, ErrMalformedReport) {
				t.Fatalf("refusal without ErrMalformedReport: %v", err)
			}
			return
		}
		if !bytes.Equal(EncodeReport(r), data) {
			t.Fatal("accepted report does not re-encode byte-equal")
		}
		// The body alone, inside a quote frame with an empty signature,
		// decodes to the same body.
		frame := make([]byte, quoteBodyOffset, quoteFixedLen+4)
		frame = append(frame, data[:reportBodyLen]...)
		frame = binary.BigEndian.AppendUint32(frame, 0)
		q, err := DecodeQuote(frame)
		if err != nil {
			t.Fatalf("accepted body refused inside a quote: %v", err)
		}
		if q.Body != r.Body {
			t.Fatal("quote and report decode the same body differently")
		}
	})
}
