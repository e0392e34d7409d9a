package sgx

import (
	"testing"
	"testing/quick"

	"vnfguard/internal/epid"
)

func TestUnlinkableQuotesHaveDistinctPseudonyms(t *testing.T) {
	p, issuer := testPlatform(t)
	spec := echoSpec("attest")
	var report *Report
	spec.Modules[0].Handlers["r"] = func(ctx *Context, args []byte) ([]byte, error) {
		report = ctx.Report(p.QE().TargetInfo(), ReportData{})
		return nil, nil
	}
	e := launch(t, p, spec, testSigner(t))
	getPseudonym := func() [32]byte {
		t.Helper()
		if _, err := e.ECall("r", nil); err != nil {
			t.Fatal(err)
		}
		q, err := p.QE().GetQuote(report, SPID{1}, QuoteUnlinkable)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyQuote(q, issuer.GroupPublicKey(), nil, nil); err != nil {
			t.Fatal(err)
		}
		sig, err := epid.DecodeSignature(q.Signature)
		if err != nil {
			t.Fatal(err)
		}
		return sig.Pseudonym
	}
	if getPseudonym() == getPseudonym() {
		t.Fatal("unlinkable quotes share a pseudonym")
	}
}

func TestQuoteRejectsUnknownSignType(t *testing.T) {
	p, _ := testPlatform(t)
	spec := echoSpec("attest")
	var report *Report
	spec.Modules[0].Handlers["r"] = func(ctx *Context, args []byte) ([]byte, error) {
		report = ctx.Report(p.QE().TargetInfo(), ReportData{})
		return nil, nil
	}
	e := launch(t, p, spec, testSigner(t))
	if _, err := e.ECall("r", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.QE().GetQuote(report, SPID{}, QuoteSignType(7)); err == nil {
		t.Fatal("unknown sign type accepted")
	}
}

func TestAttributesEncodeDecodeProperty(t *testing.T) {
	f := func(debug, mode64 bool, xfrm uint32) bool {
		a := Attributes{Debug: debug, Mode64: mode64, XFRM: xfrm}
		return decodeAttributes(a.encode()) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReportEncodeDecodeRoundTrip(t *testing.T) {
	p, _ := testPlatform(t)
	spec := echoSpec("e")
	var report *Report
	spec.Modules[0].Handlers["r"] = func(ctx *Context, args []byte) ([]byte, error) {
		var rd ReportData
		copy(rd[:], args)
		report = ctx.Report(p.QE().TargetInfo(), rd)
		return nil, nil
	}
	e := launch(t, p, spec, testSigner(t))
	if _, err := e.ECall("r", []byte("binding-bytes")); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeReport(EncodeReport(report))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Body != report.Body || dec.MAC != report.MAC {
		t.Fatal("report round trip mismatch")
	}
	if _, err := DecodeReport([]byte("short")); err == nil {
		t.Fatal("short report decoded")
	}
}

func TestMeasurementString(t *testing.T) {
	var m Measurement
	if !m.IsZero() {
		t.Fatal("zero measurement not zero")
	}
	m[0] = 0xAB
	if m.IsZero() {
		t.Fatal("nonzero measurement reported zero")
	}
	if got := m.String(); len(got) != 64 || got[:2] != "ab" {
		t.Fatalf("String() = %q", got)
	}
}
