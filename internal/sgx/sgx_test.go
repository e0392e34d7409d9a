package sgx

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"vnfguard/internal/epid"
	"vnfguard/internal/simtime"
)

func testPlatform(t *testing.T) (*Platform, *epid.Issuer) {
	t.Helper()
	issuer, err := epid.NewIssuer(100)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform("host-a", issuer, simtime.ZeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	return p, issuer
}

func testSigner(t *testing.T) *ecdsa.PrivateKey {
	t.Helper()
	k, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func echoSpec(name string) EnclaveSpec {
	return EnclaveSpec{
		Name:       name,
		ProdID:     1,
		SVN:        2,
		Attributes: Attributes{Mode64: true},
		Modules: []CodeModule{{
			Name: "main",
			Code: []byte("echo enclave code v1"),
			Handlers: map[string]ECallHandler{
				"echo": func(ctx *Context, args []byte) ([]byte, error) {
					return args, nil
				},
				"store": func(ctx *Context, args []byte) ([]byte, error) {
					return nil, ctx.Put("secret", args)
				},
				"load": func(ctx *Context, args []byte) ([]byte, error) {
					v, ok := ctx.Get("secret")
					if !ok {
						return nil, errors.New("missing")
					}
					return v, nil
				},
			},
		}},
		HeapPages: 4,
	}
}

func launch(t *testing.T, p *Platform, spec EnclaveSpec, signer *ecdsa.PrivateKey) *Enclave {
	t.Helper()
	ss, err := SignEnclave(spec, signer)
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.Launch(spec, ss)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Destroy)
	return e
}

func TestMeasurementDeterministic(t *testing.T) {
	spec := echoSpec("e")
	if measureSpec(spec) != measureSpec(spec) {
		t.Fatal("measurement not deterministic")
	}
}

func TestMeasurementSensitivity(t *testing.T) {
	base := measureSpec(echoSpec("e"))

	tampered := echoSpec("e")
	tampered.Modules[0].Code = []byte("echo enclave code v2")
	if measureSpec(tampered) == base {
		t.Fatal("code change did not change MRENCLAVE")
	}

	renamed := echoSpec("e")
	renamed.Modules[0].Name = "other"
	if measureSpec(renamed) == base {
		t.Fatal("module rename did not change MRENCLAVE")
	}

	debug := echoSpec("e")
	debug.Attributes.Debug = true
	if measureSpec(debug) == base {
		t.Fatal("attribute change did not change MRENCLAVE")
	}
}

func TestMeasurementModuleOrderIndependent(t *testing.T) {
	a := CodeModule{Name: "a", Code: []byte("aaa")}
	b := CodeModule{Name: "b", Code: []byte("bbb")}
	s1 := EnclaveSpec{Name: "e", Modules: []CodeModule{a, b}}
	s2 := EnclaveSpec{Name: "e", Modules: []CodeModule{b, a}}
	if measureSpec(s1) != measureSpec(s2) {
		t.Fatal("module order changed measurement")
	}
}

func TestLedgerPropertyDistinctContentsDistinctMeasurements(t *testing.T) {
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		l1 := NewLedger(Attributes{}, 0)
		l1.AddRegion(0x1000, "m", PageRead, a)
		l2 := NewLedger(Attributes{}, 0)
		l2.AddRegion(0x1000, "m", PageRead, b)
		return l1.Finalize() != l2.Finalize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchAndECall(t *testing.T) {
	p, _ := testPlatform(t)
	e := launch(t, p, echoSpec("e"), testSigner(t))
	out, err := e.ECall("echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "hi" {
		t.Fatalf("echo returned %q", out)
	}
}

func TestLaunchRejectsMismatchedSigStruct(t *testing.T) {
	p, _ := testPlatform(t)
	signer := testSigner(t)
	spec := echoSpec("e")
	ss, err := SignEnclave(spec, signer)
	if err != nil {
		t.Fatal(err)
	}
	spec.Modules[0].Code = []byte("tampered after signing")
	if _, err := p.Launch(spec, ss); !errors.Is(err, ErrBadSigStruct) {
		t.Fatalf("got %v, want ErrBadSigStruct", err)
	}
}

func TestLaunchRejectsForgedSignature(t *testing.T) {
	p, _ := testPlatform(t)
	spec := echoSpec("e")
	ss, err := SignEnclave(spec, testSigner(t))
	if err != nil {
		t.Fatal(err)
	}
	ss.Signature[8] ^= 0xFF
	if _, err := p.Launch(spec, ss); !errors.Is(err, ErrBadSigStruct) {
		t.Fatalf("got %v, want ErrBadSigStruct", err)
	}
}

func TestUnknownECall(t *testing.T) {
	p, _ := testPlatform(t)
	e := launch(t, p, echoSpec("e"), testSigner(t))
	if _, err := e.ECall("nope", nil); !errors.Is(err, ErrUnknownECall) {
		t.Fatalf("got %v, want ErrUnknownECall", err)
	}
}

func TestDestroyedEnclaveRejectsCallsAndWipesMemory(t *testing.T) {
	p, _ := testPlatform(t)
	e := launch(t, p, echoSpec("e"), testSigner(t))
	if _, err := e.ECall("store", []byte("super-secret")); err != nil {
		t.Fatal(err)
	}
	e.Destroy()
	if _, err := e.ECall("echo", nil); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("got %v, want ErrDestroyed", err)
	}
	if img := e.MemoryImage(); len(img) != 0 {
		t.Fatalf("memory image after destroy has %d records", len(img))
	}
	// Destroy is idempotent.
	e.Destroy()
}

func TestHeapCiphertextHidesSecrets(t *testing.T) {
	p, _ := testPlatform(t)
	e := launch(t, p, echoSpec("e"), testSigner(t))
	secret := []byte("AKIA-this-is-a-credential-7f3a9")
	if _, err := e.ECall("store", secret); err != nil {
		t.Fatal(err)
	}
	img := e.MemoryImage()
	if len(img) != 1 {
		t.Fatalf("expected 1 heap record, got %d", len(img))
	}
	for _, ct := range img {
		if bytes.Contains(ct, secret) {
			t.Fatal("plaintext secret visible in host memory image")
		}
	}
	// The secret is still retrievable through the ECALL interface.
	out, err := e.ECall("load", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, secret) {
		t.Fatal("load did not return stored secret")
	}
}

func TestECallChargesTransitions(t *testing.T) {
	issuer, err := epid.NewIssuer(5)
	if err != nil {
		t.Fatal(err)
	}
	model := simtime.ZeroCosts()
	p, err := NewPlatform("host", issuer, model)
	if err != nil {
		t.Fatal(err)
	}
	e := launch(t, p, echoSpec("e"), testSigner(t))
	for i := 0; i < 3; i++ {
		if _, err := e.ECall("echo", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := model.Count(simtime.OpECall); got != 3 {
		t.Fatalf("ECall count = %d, want 3", got)
	}
}

func TestOCallRoundTrip(t *testing.T) {
	p, _ := testPlatform(t)
	spec := echoSpec("e")
	spec.Modules[0].Handlers["out"] = func(ctx *Context, args []byte) ([]byte, error) {
		return ctx.OCall("host-service", args)
	}
	e := launch(t, p, spec, testSigner(t))
	e.SetOCallHandler(func(name string, payload []byte) ([]byte, error) {
		if name != "host-service" {
			t.Errorf("ocall name %q", name)
		}
		return append(payload, '!'), nil
	})
	out, err := e.ECall("out", []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ping!" {
		t.Fatalf("ocall result %q", out)
	}
}

func TestOCallWithoutHandler(t *testing.T) {
	p, _ := testPlatform(t)
	spec := echoSpec("e")
	spec.Modules[0].Handlers["out"] = func(ctx *Context, args []byte) ([]byte, error) {
		return ctx.OCall("x", nil)
	}
	e := launch(t, p, spec, testSigner(t))
	if _, err := e.ECall("out", nil); !errors.Is(err, ErrNoOCallHandler) {
		t.Fatalf("got %v, want ErrNoOCallHandler", err)
	}
}

func TestReportVerifyByTarget(t *testing.T) {
	p, _ := testPlatform(t)
	signer := testSigner(t)
	specA := echoSpec("a")
	specB := echoSpec("b")
	specB.Modules[0].Code = []byte("different code for b")

	var report *Report
	specA.Modules[0].Handlers["make-report"] = func(ctx *Context, args []byte) ([]byte, error) {
		var ti TargetInfo
		copy(ti.MRENCLAVE[:], args)
		ti.Attributes = Attributes{Mode64: true}
		var rd ReportData
		copy(rd[:], "channel binding")
		report = ctx.Report(ti, rd)
		return nil, nil
	}
	var verifyErr error
	specB.Modules[0].Handlers["check-report"] = func(ctx *Context, args []byte) ([]byte, error) {
		verifyErr = ctx.VerifyReport(report)
		return nil, nil
	}

	ea := launch(t, p, specA, signer)
	eb := launch(t, p, specB, signer)

	mrB := eb.Identity().MRENCLAVE
	if _, err := ea.ECall("make-report", mrB[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := eb.ECall("check-report", nil); err != nil {
		t.Fatal(err)
	}
	if verifyErr != nil {
		t.Fatalf("target verification failed: %v", verifyErr)
	}
	if report.Body.MRENCLAVE != ea.Identity().MRENCLAVE {
		t.Fatal("report carries wrong identity")
	}

	// A third enclave (wrong target) must fail verification.
	specC := echoSpec("c")
	specC.Modules[0].Code = []byte("different code for c")
	specC.Modules[0].Handlers["check-report"] = specB.Modules[0].Handlers["check-report"]
	ec := launch(t, p, specC, signer)
	if _, err := ec.ECall("check-report", nil); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(verifyErr, ErrReportMAC) {
		t.Fatalf("non-target verified report: %v", verifyErr)
	}
}

func TestReportTamperDetected(t *testing.T) {
	p, _ := testPlatform(t)
	spec := echoSpec("a")
	var report *Report
	spec.Modules[0].Handlers["self-report"] = func(ctx *Context, args []byte) ([]byte, error) {
		report = ctx.Report(TargetInfo{MRENCLAVE: ctx.Identity().MRENCLAVE}, ReportData{})
		return nil, nil
	}
	var verifyErr error
	spec.Modules[0].Handlers["verify"] = func(ctx *Context, args []byte) ([]byte, error) {
		verifyErr = ctx.VerifyReport(report)
		return nil, nil
	}
	e := launch(t, p, spec, testSigner(t))
	if _, err := e.ECall("self-report", nil); err != nil {
		t.Fatal(err)
	}
	report.Body.ISVSVN = 99
	if _, err := e.ECall("verify", nil); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(verifyErr, ErrReportMAC) {
		t.Fatal("tampered report accepted")
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	p, _ := testPlatform(t)
	spec := echoSpec("e")
	spec.Modules[0].Handlers["seal"] = func(ctx *Context, args []byte) ([]byte, error) {
		return ctx.Seal(SealToMRENCLAVE, args, []byte("aad"))
	}
	spec.Modules[0].Handlers["unseal"] = func(ctx *Context, args []byte) ([]byte, error) {
		return ctx.Unseal(args, []byte("aad"))
	}
	e := launch(t, p, spec, testSigner(t))
	blob, err := e.ECall("seal", []byte("key material"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := e.ECall("unseal", blob)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "key material" {
		t.Fatalf("unsealed %q", pt)
	}
}

func TestSealBoundToMeasurement(t *testing.T) {
	p, _ := testPlatform(t)
	signer := testSigner(t)
	mk := func(name, code string) EnclaveSpec {
		s := echoSpec(name)
		s.Modules[0].Code = []byte(code)
		s.Modules[0].Handlers["seal"] = func(ctx *Context, args []byte) ([]byte, error) {
			return ctx.Seal(SealToMRENCLAVE, args, nil)
		}
		s.Modules[0].Handlers["unseal"] = func(ctx *Context, args []byte) ([]byte, error) {
			return ctx.Unseal(args, nil)
		}
		return s
	}
	e1 := launch(t, p, mk("a", "code one"), signer)
	e2 := launch(t, p, mk("b", "code two"), signer)
	blob, err := e1.ECall("seal", []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.ECall("unseal", blob); !errors.Is(err, ErrSealWrongKey) {
		t.Fatalf("cross-enclave unseal: got %v, want ErrSealWrongKey", err)
	}
}

func TestSealMRSIGNERUpgradePath(t *testing.T) {
	p, _ := testPlatform(t)
	signer := testSigner(t)
	mk := func(svn uint16, code string) EnclaveSpec {
		s := echoSpec("vnf")
		s.SVN = svn
		s.Modules[0].Code = []byte(code)
		s.Modules[0].Handlers["seal"] = func(ctx *Context, args []byte) ([]byte, error) {
			return ctx.Seal(SealToMRSIGNER, args, nil)
		}
		s.Modules[0].Handlers["unseal"] = func(ctx *Context, args []byte) ([]byte, error) {
			return ctx.Unseal(args, nil)
		}
		return s
	}
	old := launch(t, p, mk(2, "old build"), signer)
	upgraded := launch(t, p, mk(3, "new build"), signer)

	blob, err := old.ECall("seal", []byte("persisted"))
	if err != nil {
		t.Fatal(err)
	}
	// Newer SVN from same signer can read older blobs.
	pt, err := upgraded.ECall("unseal", blob)
	if err != nil {
		t.Fatalf("upgrade unseal failed: %v", err)
	}
	if string(pt) != "persisted" {
		t.Fatalf("unsealed %q", pt)
	}
	// Older SVN cannot read newer blobs (anti-rollback).
	newBlob, err := upgraded.ECall("seal", []byte("v3 data"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.ECall("unseal", newBlob); !errors.Is(err, ErrSealSVNRollback) {
		t.Fatalf("rollback unseal: got %v, want ErrSealSVNRollback", err)
	}
}

func TestSealRejectsCorruptBlob(t *testing.T) {
	p, _ := testPlatform(t)
	spec := echoSpec("e")
	spec.Modules[0].Handlers["seal"] = func(ctx *Context, args []byte) ([]byte, error) {
		return ctx.Seal(SealToMRENCLAVE, args, nil)
	}
	spec.Modules[0].Handlers["unseal"] = func(ctx *Context, args []byte) ([]byte, error) {
		return ctx.Unseal(args, nil)
	}
	e := launch(t, p, spec, testSigner(t))
	blob, err := e.ECall("seal", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x01
	if _, err := e.ECall("unseal", blob); !errors.Is(err, ErrSealWrongKey) {
		t.Fatalf("corrupt unseal: got %v, want ErrSealWrongKey", err)
	}
	if _, err := e.ECall("unseal", []byte{1, 2}); !errors.Is(err, ErrSealWrongKey) {
		t.Fatalf("short unseal: got %v", err)
	}
}

func TestQuoteLifecycle(t *testing.T) {
	p, issuer := testPlatform(t)
	spec := echoSpec("attest")
	var report *Report
	spec.Modules[0].Handlers["report-for-qe"] = func(ctx *Context, args []byte) ([]byte, error) {
		var rd ReportData
		copy(rd[:], args)
		report = ctx.Report(p.QE().TargetInfo(), rd)
		return nil, nil
	}
	e := launch(t, p, spec, testSigner(t))
	if _, err := e.ECall("report-for-qe", []byte("nonce-binding")); err != nil {
		t.Fatal(err)
	}
	spid := SPID{1, 2, 3}
	q, err := p.QE().GetQuote(report, spid, QuoteLinkable)
	if err != nil {
		t.Fatal(err)
	}
	if q.Body.MRENCLAVE != e.Identity().MRENCLAVE {
		t.Fatal("quote body identity mismatch")
	}
	if err := VerifyQuote(q, issuer.GroupPublicKey(), nil, nil); err != nil {
		t.Fatalf("valid quote rejected: %v", err)
	}

	// Round-trip encoding.
	dec, err := DecodeQuote(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyQuote(dec, issuer.GroupPublicKey(), nil, nil); err != nil {
		t.Fatalf("decoded quote rejected: %v", err)
	}

	// Tampering with the body invalidates the signature.
	dec.Body.ReportData[0] ^= 0xFF
	if err := VerifyQuote(dec, issuer.GroupPublicKey(), nil, nil); err == nil {
		t.Fatal("tampered quote accepted")
	}
}

func TestQuoteRejectsForeignReport(t *testing.T) {
	p1, _ := testPlatform(t)
	issuer2, err := epid.NewIssuer(101)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlatform("host-b", issuer2, simtime.ZeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	spec := echoSpec("attest")
	var report *Report
	spec.Modules[0].Handlers["report-for-qe"] = func(ctx *Context, args []byte) ([]byte, error) {
		report = ctx.Report(p2.QE().TargetInfo(), ReportData{})
		return nil, nil
	}
	// Enclave on p1 produces a report "targeted" at p2's QE; p2's QE must
	// reject it because the report key derives from p2's root, not p1's.
	e := launch(t, p1, spec, testSigner(t))
	if _, err := e.ECall("report-for-qe", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.QE().GetQuote(report, SPID{}, QuoteLinkable); err == nil {
		t.Fatal("cross-platform report quoted")
	}
}

func TestQuoteLinkablePseudonymStable(t *testing.T) {
	p, _ := testPlatform(t)
	spec := echoSpec("attest")
	var report *Report
	spec.Modules[0].Handlers["r"] = func(ctx *Context, args []byte) ([]byte, error) {
		report = ctx.Report(p.QE().TargetInfo(), ReportData{})
		return nil, nil
	}
	e := launch(t, p, spec, testSigner(t))
	spid := SPID{9}
	getSig := func() [32]byte {
		t.Helper()
		if _, err := e.ECall("r", nil); err != nil {
			t.Fatal(err)
		}
		q, err := p.QE().GetQuote(report, spid, QuoteLinkable)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := epid.DecodeSignature(q.Signature)
		if err != nil {
			t.Fatal(err)
		}
		return sig.Pseudonym
	}
	if getSig() != getSig() {
		t.Fatal("linkable quotes from same platform+SPID have different pseudonyms")
	}
}

func TestEPCAccountingAndOvercommit(t *testing.T) {
	issuer, err := epid.NewIssuer(1)
	if err != nil {
		t.Fatal(err)
	}
	model := simtime.ZeroCosts()
	p, err := NewPlatform("tiny", issuer, model, WithEPCPages(8))
	if err != nil {
		t.Fatal(err)
	}
	spec := echoSpec("big")
	spec.HeapPages = 16 // module ~1 page + name page + 16 heap > 8 EPC pages
	e := launch(t, p, spec, testSigner(t))
	if p.EPCUsedPages() <= 8 {
		t.Fatalf("EPC used = %d, expected oversubscription", p.EPCUsedPages())
	}
	if _, err := e.ECall("echo", nil); err != nil {
		t.Fatal(err)
	}
	if model.Count(simtime.OpPageIn) == 0 {
		t.Fatal("oversubscribed enclave charged no page faults")
	}
	e.Destroy()
	if p.EPCUsedPages() != 0 {
		t.Fatalf("EPC not released: %d pages", p.EPCUsedPages())
	}
}

func TestConcurrentECallsBoundedByTCS(t *testing.T) {
	p, _ := testPlatform(t)
	spec := echoSpec("e")
	spec.TCSCount = 2
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	block := make(chan struct{})
	spec.Modules[0].Handlers["slow"] = func(ctx *Context, args []byte) ([]byte, error) {
		mu.Lock()
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		mu.Unlock()
		<-block
		mu.Lock()
		inFlight--
		mu.Unlock()
		return nil, nil
	}
	e := launch(t, p, spec, testSigner(t))
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = e.ECall("slow", nil)
		}()
	}
	// Let goroutines pile up, then release.
	for i := 0; i < 100; i++ {
		mu.Lock()
		n := inFlight
		mu.Unlock()
		if n == 2 {
			break
		}
	}
	close(block)
	wg.Wait()
	if maxInFlight > 2 {
		t.Fatalf("max in-flight ECALLs = %d, TCS limit 2", maxInFlight)
	}
}

func TestReportDataFromHash(t *testing.T) {
	sum := [32]byte{1, 2, 3}
	rd := ReportDataFromHash(sum)
	if !bytes.Equal(rd[:32], sum[:]) {
		t.Fatal("hash not placed in first half")
	}
	for _, b := range rd[32:] {
		if b != 0 {
			t.Fatal("padding not zero")
		}
	}
}

func TestDecodeQuoteErrors(t *testing.T) {
	if _, err := DecodeQuote(nil); !errors.Is(err, ErrMalformedQuote) {
		t.Fatalf("nil quote: got %v, want ErrMalformedQuote", err)
	}
	if _, err := DecodeQuote(make([]byte, quoteFixedLen+3)); !errors.Is(err, ErrMalformedQuote) {
		t.Fatalf("short quote: got %v, want ErrMalformedQuote", err)
	}
	buf := make([]byte, quoteFixedLen+4+10)
	buf[quoteFixedLen+3] = 99 // sigLen=99 but only 10 bytes follow
	if _, err := DecodeQuote(buf); !errors.Is(err, ErrMalformedQuote) {
		t.Fatalf("length-mismatched quote: got %v, want ErrMalformedQuote", err)
	}
}
