package ias

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"encoding/base64"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vnfguard/internal/epid"
	"vnfguard/internal/httpbody"
	"vnfguard/internal/sgx"
	"vnfguard/internal/simtime"
)

// quoteFixture builds a platform with one attestable enclave and returns
// an encoded quote plus the supporting actors.
type quoteFixture struct {
	issuer   *epid.Issuer
	platform *sgx.Platform
	enclave  *sgx.Enclave
	quote    []byte
}

func newQuoteFixture(t *testing.T) *quoteFixture {
	t.Helper()
	issuer, err := epid.NewIssuer(64)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sgx.NewPlatform("host", issuer, simtime.ZeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	var report *sgx.Report
	spec := sgx.EnclaveSpec{
		Name:       "attest",
		ProdID:     1,
		SVN:        1,
		Attributes: sgx.Attributes{Mode64: true},
		Modules: []sgx.CodeModule{{
			Name: "main",
			Code: []byte("attestation code"),
			Handlers: map[string]sgx.ECallHandler{
				"report": func(ctx *sgx.Context, args []byte) ([]byte, error) {
					var rd sgx.ReportData
					copy(rd[:], args)
					report = ctx.Report(p.QE().TargetInfo(), rd)
					return nil, nil
				},
			},
		}},
	}
	signer, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sgx.SignEnclave(spec, signer)
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.Launch(spec, ss)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Destroy)
	if _, err := e.ECall("report", []byte("binding")); err != nil {
		t.Fatal(err)
	}
	q, err := p.QE().GetQuote(report, sgx.SPID{1}, sgx.QuoteLinkable)
	if err != nil {
		t.Fatal(err)
	}
	return &quoteFixture{issuer: issuer, platform: p, enclave: e, quote: q.Encode()}
}

func newServiceAndClient(t *testing.T, fx *quoteFixture) (*Service, *Client, *httptest.Server) {
	t.Helper()
	svc, err := NewService(fx.issuer.GroupPublicKey())
	if err != nil {
		t.Fatal(err)
	}
	svc.AddSubscriptionKey("test-key")
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	client, err := NewClient(srv.URL, "test-key", svc.SigningCertPEM(), simtime.ZeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	return svc, client, srv
}

func TestVerifyQuoteOK(t *testing.T) {
	fx := newQuoteFixture(t)
	_, client, _ := newServiceAndClient(t, fx)
	avr, err := client.VerifyQuote(fx.quote, "nonce-1")
	if err != nil {
		t.Fatal(err)
	}
	if avr.Status() != StatusOK {
		t.Fatalf("status = %s", avr.Status())
	}
	if !avr.Status().Trusted() {
		t.Fatal("OK not trusted")
	}
	q, err := avr.Quote()
	if err != nil {
		t.Fatal(err)
	}
	if q.Body.MRENCLAVE != fx.enclave.Identity().MRENCLAVE {
		t.Fatal("AVR echoes wrong quote body")
	}
	if avr.Nonce != "nonce-1" {
		t.Fatalf("nonce = %q", avr.Nonce)
	}
}

func TestVerifyQuoteTamperedSignature(t *testing.T) {
	fx := newQuoteFixture(t)
	_, client, _ := newServiceAndClient(t, fx)
	bad := append([]byte(nil), fx.quote...)
	bad[50] ^= 0xFF // inside the report body → EPID signature breaks
	avr, err := client.VerifyQuote(bad, "n")
	if err != nil {
		t.Fatal(err)
	}
	if avr.Status() != StatusSignatureInvalid {
		t.Fatalf("status = %s, want SIGNATURE_INVALID", avr.Status())
	}
	if avr.Status().Trusted() {
		t.Fatal("SIGNATURE_INVALID reported trusted")
	}
}

func TestRevocationStatuses(t *testing.T) {
	fx := newQuoteFixture(t)
	svc, client, _ := newServiceAndClient(t, fx)

	svc.RevokeGroup(fx.issuer.GroupID())
	avr, err := client.VerifyQuote(fx.quote, "n")
	if err != nil {
		t.Fatal(err)
	}
	if avr.Status() != StatusGroupRevoked {
		t.Fatalf("status = %s, want GROUP_REVOKED", avr.Status())
	}
}

func TestKeyRevocation(t *testing.T) {
	fx := newQuoteFixture(t)
	svc, client, _ := newServiceAndClient(t, fx)
	svc.RevokePlatformKey(fx.platform.EPIDMember().PseudonymSecret())
	avr, err := client.VerifyQuote(fx.quote, "n")
	if err != nil {
		t.Fatal(err)
	}
	if avr.Status() != StatusKeyRevoked {
		t.Fatalf("status = %s, want KEY_REVOKED", avr.Status())
	}
}

func TestSignatureRevocation(t *testing.T) {
	fx := newQuoteFixture(t)
	svc, client, _ := newServiceAndClient(t, fx)
	q, err := sgx.DecodeQuote(fx.quote)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := epid.DecodeSignature(q.Signature)
	if err != nil {
		t.Fatal(err)
	}
	svc.RevokeSignature(sig.Pseudonym)
	avr, err := client.VerifyQuote(fx.quote, "n")
	if err != nil {
		t.Fatal(err)
	}
	if avr.Status() != StatusSignatureRevoked {
		t.Fatalf("status = %s, want SIGNATURE_REVOKED", avr.Status())
	}
	// And the SigRL distribution path reflects it.
	rl, err := client.SigRL(fx.issuer.GroupID())
	if err != nil {
		t.Fatal(err)
	}
	if len(rl) != 1 || rl[0] != sig.Pseudonym {
		t.Fatalf("sigrl = %v", rl)
	}
}

func TestGroupOutOfDate(t *testing.T) {
	fx := newQuoteFixture(t)
	svc, client, _ := newServiceAndClient(t, fx)
	svc.SetMinCPUSVN(99)
	avr, err := client.VerifyQuote(fx.quote, "n")
	if err != nil {
		t.Fatal(err)
	}
	if avr.Status() != StatusGroupOutOfDate {
		t.Fatalf("status = %s, want GROUP_OUT_OF_DATE", avr.Status())
	}
	if avr.Status().Trusted() {
		t.Fatal("GROUP_OUT_OF_DATE must not be trusted (fail closed)")
	}
}

func TestUnknownGroupRejected(t *testing.T) {
	fx := newQuoteFixture(t)
	otherIssuer, err := epid.NewIssuer(9999)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(otherIssuer.GroupPublicKey())
	if err != nil {
		t.Fatal(err)
	}
	svc.AddSubscriptionKey("k")
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client, err := NewClient(srv.URL, "k", svc.SigningCertPEM(), simtime.ZeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.VerifyQuote(fx.quote, "n"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown group: %v", err)
	}
}

func TestSubscriptionKeyEnforced(t *testing.T) {
	fx := newQuoteFixture(t)
	svc, _, srv := newServiceAndClient(t, fx)
	badClient, err := NewClient(srv.URL, "wrong-key", svc.SigningCertPEM(), simtime.ZeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := badClient.VerifyQuote(fx.quote, "n"); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("bad key: %v", err)
	}
	if _, err := badClient.SigRL(1); err == nil {
		t.Fatal("sigrl with bad key accepted")
	}
}

func TestAVRSignatureVerification(t *testing.T) {
	fx := newQuoteFixture(t)
	svc, _, _ := newServiceAndClient(t, fx)
	avr, err := svc.VerifyQuote(fx.quote, "n")
	if err != nil {
		t.Fatal(err)
	}
	signed, err := svc.Sign(avr)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := parsePEMCert(svc.SigningCertPEM())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAVR(cert, signed); err != nil {
		t.Fatalf("valid AVR rejected: %v", err)
	}
	// Body tamper must be detected.
	tampered := &SignedAVR{
		Body:      []byte(strings.Replace(string(signed.Body), string(StatusOK), string(StatusGroupRevoked), 1)),
		Signature: signed.Signature,
	}
	if err := VerifyAVR(cert, tampered); !errors.Is(err, ErrAVRSignature) {
		t.Fatalf("tampered AVR: %v", err)
	}
}

func TestClientRejectsForgedService(t *testing.T) {
	fx := newQuoteFixture(t)
	// A man-in-the-middle IAS with its own signing key.
	mitm, err := NewService(fx.issuer.GroupPublicKey())
	if err != nil {
		t.Fatal(err)
	}
	mitm.AddSubscriptionKey("k")
	srv := httptest.NewServer(mitm.Handler())
	defer srv.Close()
	// Client pins the *real* service's certificate.
	real, err := NewService(fx.issuer.GroupPublicKey())
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(srv.URL, "k", real.SigningCertPEM(), simtime.ZeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.VerifyQuote(fx.quote, "n"); !errors.Is(err, ErrAVRSignature) {
		t.Fatalf("MITM AVR accepted: %v", err)
	}
}

func TestClientDetectsNonceReplay(t *testing.T) {
	fx := newQuoteFixture(t)
	svc, err := NewService(fx.issuer.GroupPublicKey())
	if err != nil {
		t.Fatal(err)
	}
	svc.AddSubscriptionKey("k")
	// Replay proxy: always answers with a cached (nonce-A) response.
	var cachedBody []byte
	var cachedSig string
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+reportPath, func(w http.ResponseWriter, r *http.Request) {
		if cachedBody == nil {
			avr, err := svc.VerifyQuote(fx.quote, "nonce-A")
			if err != nil {
				http.Error(w, err.Error(), 500)
				return
			}
			signed, err := svc.Sign(avr)
			if err != nil {
				http.Error(w, err.Error(), 500)
				return
			}
			cachedBody = signed.Body
			cachedSig = base64.StdEncoding.EncodeToString(signed.Signature)
		}
		w.Header().Set(headerReportSignature, cachedSig)
		w.WriteHeader(200)
		w.Write(cachedBody)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client, err := NewClient(srv.URL, "k", svc.SigningCertPEM(), simtime.ZeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	// First call primes the cache with nonce-A; second call uses nonce-B
	// and must detect the replay.
	if _, err := client.VerifyQuote(fx.quote, "nonce-A"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.VerifyQuote(fx.quote, "nonce-B"); err == nil ||
		!strings.Contains(err.Error(), "nonce mismatch") {
		t.Fatalf("replayed AVR accepted: %v", err)
	}
}

func TestDirectClientMatchesHTTP(t *testing.T) {
	fx := newQuoteFixture(t)
	svc, httpClient, _ := newServiceAndClient(t, fx)
	model := simtime.ZeroCosts()
	direct := &DirectClient{Service: svc, Model: model}

	a1, err := httpClient.VerifyQuote(fx.quote, "n")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := direct.VerifyQuote(fx.quote, "n")
	if err != nil {
		t.Fatal(err)
	}
	if a1.Status() != a2.Status() {
		t.Fatalf("status divergence: http=%s direct=%s", a1.Status(), a2.Status())
	}
	if model.Count(simtime.OpIASRoundTrip) != 1 {
		t.Fatal("direct client did not charge the WAN round trip")
	}
}

func TestHandlerRejectsMalformedRequests(t *testing.T) {
	fx := newQuoteFixture(t)
	_, _, srv := newServiceAndClient(t, fx)
	post := func(body string) int {
		req, _ := http.NewRequest("POST", srv.URL+reportPath, strings.NewReader(body))
		req.Header.Set(subscriptionHeader, "test-key")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Fatalf("bad json: %d", code)
	}
	if code := post(`{"isvEnclaveQuote":"!!!"}`); code != http.StatusBadRequest {
		t.Fatalf("bad base64: %d", code)
	}
	if code := post(`{"isvEnclaveQuote":"AAAA"}`); code != http.StatusBadRequest {
		t.Fatalf("truncated quote: %d", code)
	}
	longNonce := strings.Repeat("x", 40)
	if code := post(`{"isvEnclaveQuote":"AAAA","nonce":"` + longNonce + `"}`); code != http.StatusBadRequest {
		t.Fatalf("long nonce: %d", code)
	}
	// One byte over the cap is refused whole, not decoded truncated.
	over := `{"isvEnclaveQuote":"` + strings.Repeat("A", maxBodyBytes) + `"}`
	if code := post(over); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte request: %d", len(over), code)
	}
}

// TestClientReplyTooLarge: a report or SigRL reply over the client's
// cap is refused as too large. A correctly signed AVR past the cap is
// never read truncated and then called forged.
func TestClientReplyTooLarge(t *testing.T) {
	fx := newQuoteFixture(t)
	svc, err := NewService(fx.issuer.GroupPublicKey())
	if err != nil {
		t.Fatal(err)
	}
	signed, err := svc.Sign(&AVR{ID: strings.Repeat("9", 2<<20), ISVEnclaveQuoteStatus: string(StatusOK), Nonce: "n"})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+reportPath, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(headerReportSignature, base64.StdEncoding.EncodeToString(signed.Signature))
		w.Write(signed.Body)
	})
	mux.HandleFunc("GET "+sigrlPath+"{gid}", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`["` + strings.Repeat("A", maxBodyBytes) + `"]`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client, err := NewClient(srv.URL, "k", svc.SigningCertPEM(), simtime.ZeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.VerifyQuote(fx.quote, "n"); !errors.Is(err, httpbody.ErrResponseTooLarge) || errors.Is(err, ErrAVRSignature) {
		t.Fatalf("%d-byte signed AVR: got %v, want ErrResponseTooLarge", len(signed.Body), err)
	}
	if _, err := client.SigRL(fx.issuer.GroupID()); !errors.Is(err, httpbody.ErrResponseTooLarge) {
		t.Fatalf("over-cap SigRL: got %v, want ErrResponseTooLarge", err)
	}
}

func TestReportsCounter(t *testing.T) {
	fx := newQuoteFixture(t)
	svc, client, _ := newServiceAndClient(t, fx)
	for i := 0; i < 3; i++ {
		if _, err := client.VerifyQuote(fx.quote, "n"); err != nil {
			t.Fatal(err)
		}
	}
	if svc.Reports() != 3 {
		t.Fatalf("reports = %d", svc.Reports())
	}
}

// TestClientTimesOutOnHungService: an attestation service that accepts
// the connection but never answers must fail the request with a timeout
// error, not hang the enrollment that asked.
func TestClientTimesOutOnHungService(t *testing.T) {
	issuer, err := epid.NewIssuer(7)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(issuer.GroupPublicKey())
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
	t.Cleanup(func() {
		close(release)
		srv.Close()
	})
	client, err := NewClient(srv.URL, "k", svc.SigningCertPEM(), simtime.ZeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	if got := client.httpClient.Timeout; got != clientTimeout {
		t.Fatalf("client timeout %v, want %v", got, clientTimeout)
	}
	// Tighten the bound so the test does not wait out the default.
	client.httpClient.Timeout = 150 * time.Millisecond
	isTimeout := func(err error) bool {
		var ne net.Error
		return errors.As(err, &ne) && ne.Timeout()
	}
	start := time.Now()
	if _, err := client.VerifyQuote([]byte("quote"), "nonce"); !isTimeout(err) {
		t.Fatalf("report against a hung service: got %v, want a timeout", err)
	}
	if _, err := client.SigRL(issuer.GroupPublicKey().GID); !isTimeout(err) {
		t.Fatalf("sigrl against a hung service: got %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("client hung %v despite a 150ms timeout", elapsed)
	}
}
