package ra

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"testing"

	"vnfguard/internal/epid"
	"vnfguard/internal/sgx"
	"vnfguard/internal/simtime"
)

// raFixture wires a platform with an enclave that can produce channel-
// bound quotes, plus the challenger's long-term key and IAS-side issuer.
type raFixture struct {
	issuer  *epid.Issuer
	plat    *sgx.Platform
	enclave *sgx.Enclave
	spKey   *ecdsa.PrivateKey
	// quoteFn produces quotes inside the enclave.
	quoteFn QuoteFunc
}

func newRAFixture(t *testing.T) *raFixture {
	t.Helper()
	issuer, err := epid.NewIssuer(200)
	if err != nil {
		t.Fatal(err)
	}
	plat, err := sgx.NewPlatform("host", issuer, simtime.ZeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	spKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var lastReport *sgx.Report
	spec := sgx.EnclaveSpec{
		Name:       "cred",
		ProdID:     2,
		SVN:        1,
		Attributes: sgx.Attributes{Mode64: true},
		Modules: []sgx.CodeModule{{
			Name: "main",
			Code: []byte("credential enclave"),
			Handlers: map[string]sgx.ECallHandler{
				"report": func(ctx *sgx.Context, args []byte) ([]byte, error) {
					var rd sgx.ReportData
					copy(rd[:], args)
					lastReport = ctx.Report(plat.QE().TargetInfo(), rd)
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
	enclave, err := plat.Launch(spec, ss)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(enclave.Destroy)
	fx := &raFixture{issuer: issuer, plat: plat, enclave: enclave, spKey: spKey}
	fx.quoteFn = func(rd sgx.ReportData) ([]byte, error) {
		if _, err := enclave.ECall("report", rd[:]); err != nil {
			return nil, err
		}
		q, err := plat.QE().GetQuote(lastReport, sgx.SPID{7}, sgx.QuoteLinkable)
		if err != nil {
			return nil, err
		}
		return q.Encode(), nil
	}
	return fx
}

// runExchange performs a full msg1..msg4 round trip with the given
// evidence check, returning both parties.
func runExchange(t *testing.T, fx *raFixture, check EvidenceCheck) (*Attester, *Challenger, error) {
	t.Helper()
	att, m1, err := NewAttester(fx.issuer.GroupID(), &fx.spKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChallenger(sgx.SPID{7}, fx.spKey, sgx.QuoteLinkable)
	m2, err := ch.ProcessMsg1(m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := att.ProcessMsg2(m2, fx.quoteFn)
	if err != nil {
		t.Fatal(err)
	}
	m4, chErr := ch.ProcessMsg3(m3, check)
	if m4 == nil {
		return att, ch, chErr
	}
	attErr := att.ProcessMsg4(m4)
	if chErr != nil {
		return att, ch, chErr
	}
	return att, ch, attErr
}

func acceptAll(quote []byte) (string, error) { return "OK", nil }

func TestExchangeHappyPath(t *testing.T) {
	fx := newRAFixture(t)
	att, ch, err := runExchange(t, fx, acceptAll)
	if err != nil {
		t.Fatalf("exchange failed: %v", err)
	}
	skA, err := att.SessionKey()
	if err != nil {
		t.Fatal(err)
	}
	skC, err := ch.SessionKey()
	if err != nil {
		t.Fatal(err)
	}
	if skA != skC {
		t.Fatal("session keys diverge")
	}
	mkA, _ := att.MACKey()
	mkC, _ := ch.MACKey()
	if mkA != mkC {
		t.Fatal("MAC keys diverge")
	}
	if ch.Quote() == nil {
		t.Fatal("challenger kept no evidence")
	}
	if ch.Quote().Body.MRENCLAVE != fx.enclave.Identity().MRENCLAVE {
		t.Fatal("evidence identity mismatch")
	}
}

func TestDistinctSessionsDeriveDistinctKeys(t *testing.T) {
	fx := newRAFixture(t)
	att1, _, err := runExchange(t, fx, acceptAll)
	if err != nil {
		t.Fatal(err)
	}
	att2, _, err := runExchange(t, fx, acceptAll)
	if err != nil {
		t.Fatal(err)
	}
	k1, _ := att1.SessionKey()
	k2, _ := att2.SessionKey()
	if k1 == k2 {
		t.Fatal("two sessions derived the same SK")
	}
}

func TestAttesterRejectsWrongChallengerKey(t *testing.T) {
	fx := newRAFixture(t)
	rogue, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	att, m1, err := NewAttester(fx.issuer.GroupID(), &fx.spKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	// Rogue challenger signs msg2 with a key the enclave does not trust.
	ch := NewChallenger(sgx.SPID{7}, rogue, sgx.QuoteLinkable)
	m2, err := ch.ProcessMsg1(m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := att.ProcessMsg2(m2, fx.quoteFn); !errors.Is(err, ErrMsg2Signature) {
		t.Fatalf("got %v, want ErrMsg2Signature", err)
	}
}

func TestAttesterRejectsTamperedMsg2(t *testing.T) {
	fx := newRAFixture(t)
	att, m1, err := NewAttester(fx.issuer.GroupID(), &fx.spKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChallenger(sgx.SPID{7}, fx.spKey, sgx.QuoteLinkable)
	m2, err := ch.ProcessMsg1(m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2.QuoteType ^= 1 // covered by MAC but not by the SP signature
	if _, err := att.ProcessMsg2(m2, fx.quoteFn); !errors.Is(err, ErrMsg2MAC) {
		t.Fatalf("got %v, want ErrMsg2MAC", err)
	}
}

func TestChallengerRejectsTamperedMsg3(t *testing.T) {
	fx := newRAFixture(t)
	att, m1, err := NewAttester(fx.issuer.GroupID(), &fx.spKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChallenger(sgx.SPID{7}, fx.spKey, sgx.QuoteLinkable)
	m2, err := ch.ProcessMsg1(m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := att.ProcessMsg2(m2, fx.quoteFn)
	if err != nil {
		t.Fatal(err)
	}
	m3.Quote[10] ^= 0xFF
	if _, err := ch.ProcessMsg3(m3, acceptAll); !errors.Is(err, ErrMsg3MAC) {
		t.Fatalf("got %v, want ErrMsg3MAC", err)
	}
}

func TestChallengerRejectsUnboundQuote(t *testing.T) {
	fx := newRAFixture(t)
	att, m1, err := NewAttester(fx.issuer.GroupID(), &fx.spKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChallenger(sgx.SPID{7}, fx.spKey, sgx.QuoteLinkable)
	m2, err := ch.ProcessMsg1(m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The enclave (maliciously) quotes unrelated report data.
	evilQuote := func(rd sgx.ReportData) ([]byte, error) {
		var unrelated sgx.ReportData
		copy(unrelated[:], "unrelated binding")
		return fx.quoteFn(unrelated)
	}
	m3, err := att.ProcessMsg2(m2, evilQuote)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.ProcessMsg3(m3, acceptAll); !errors.Is(err, ErrQuoteBinding) {
		t.Fatalf("got %v, want ErrQuoteBinding", err)
	}
}

func TestEvidenceRejectionFlowsToBothSides(t *testing.T) {
	fx := newRAFixture(t)
	revoked := errors.New("platform revoked")
	reject := func(quote []byte) (string, error) {
		return "GROUP_REVOKED", revoked
	}
	att, ch, err := runExchange(t, fx, reject)
	// The challenger's error names the RA verdict and keeps the check's
	// own refusal, so a caller can tell why the evidence was rejected.
	if !errors.Is(err, ErrEvidenceRejected) || !errors.Is(err, revoked) {
		t.Fatalf("exchange error = %v, want ErrEvidenceRejected wrapping the check's error", err)
	}
	if ch.Quote() != nil {
		t.Fatal("challenger kept evidence for rejected platform")
	}
	if _, err := ch.SessionKey(); !errors.Is(err, ErrSessionState) {
		t.Fatal("challenger session key available after rejection")
	}
	_ = att
}

func TestAttesterLearnsRejectionViaMsg4(t *testing.T) {
	fx := newRAFixture(t)
	att, m1, err := NewAttester(fx.issuer.GroupID(), &fx.spKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChallenger(sgx.SPID{7}, fx.spKey, sgx.QuoteLinkable)
	m2, err := ch.ProcessMsg1(m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := att.ProcessMsg2(m2, fx.quoteFn)
	if err != nil {
		t.Fatal(err)
	}
	m4, _ := ch.ProcessMsg3(m3, func([]byte) (string, error) {
		return "SIGNATURE_INVALID", errors.New("nope")
	})
	if m4 == nil {
		t.Fatal("no msg4 produced on rejection")
	}
	if err := att.ProcessMsg4(m4); !errors.Is(err, ErrNotTrusted) {
		t.Fatalf("got %v, want ErrNotTrusted", err)
	}
	if _, err := att.SessionKey(); err != nil {
		// Keys exist but the exchange failed; either behaviour is
		// acceptable as long as no panic — document completion.
		t.Logf("session key after rejection: %v", err)
	}
}

func TestAttesterRejectsForgedMsg4(t *testing.T) {
	fx := newRAFixture(t)
	att, m1, err := NewAttester(fx.issuer.GroupID(), &fx.spKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChallenger(sgx.SPID{7}, fx.spKey, sgx.QuoteLinkable)
	m2, err := ch.ProcessMsg1(m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := att.ProcessMsg2(m2, fx.quoteFn); err != nil {
		t.Fatal(err)
	}
	forged := &Msg4{Trusted: true, Status: "OK"} // no valid MAC
	if err := att.ProcessMsg4(forged); !errors.Is(err, ErrMsg4MAC) {
		t.Fatalf("got %v, want ErrMsg4MAC", err)
	}
}

func TestSessionOrderEnforced(t *testing.T) {
	fx := newRAFixture(t)
	att, m1, err := NewAttester(fx.issuer.GroupID(), &fx.spKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := att.ProcessMsg4(&Msg4{}); !errors.Is(err, ErrSessionState) {
		t.Fatal("msg4 before msg2 accepted")
	}
	ch := NewChallenger(sgx.SPID{7}, fx.spKey, sgx.QuoteLinkable)
	if _, err := ch.ProcessMsg3(&Msg3{}, acceptAll); !errors.Is(err, ErrSessionState) {
		t.Fatal("msg3 before msg1 accepted")
	}
	if _, err := ch.ProcessMsg1(m1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.ProcessMsg1(m1, nil); !errors.Is(err, ErrSessionState) {
		t.Fatal("duplicate msg1 accepted")
	}
}

func TestMessageEncodingRoundTrips(t *testing.T) {
	fx := newRAFixture(t)
	att, m1, err := NewAttester(fx.issuer.GroupID(), &fx.spKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := DecodeMsg1(m1.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if d1.GID != m1.GID || string(d1.Ga) != string(m1.Ga) {
		t.Fatal("msg1 round trip mismatch")
	}

	ch := NewChallenger(sgx.SPID{7}, fx.spKey, sgx.QuoteLinkable)
	sigrl := [][32]byte{{1}, {2}}
	m2, err := ch.ProcessMsg1(d1, sigrl)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DecodeMsg2(m2.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.SigRL) != 2 || d2.SigRL[0] != sigrl[0] {
		t.Fatal("msg2 sigrl round trip mismatch")
	}

	m3, err := att.ProcessMsg2(d2, fx.quoteFn)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := DecodeMsg3(m3.Encode())
	if err != nil {
		t.Fatal(err)
	}
	m4, err := ch.ProcessMsg3(d3, acceptAll)
	if err != nil {
		t.Fatal(err)
	}
	d4, err := DecodeMsg4(m4.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := att.ProcessMsg4(d4); err != nil {
		t.Fatalf("full serialized exchange failed: %v", err)
	}
}

func TestDecodeTruncation(t *testing.T) {
	for _, n := range []int{0, 3, 7} {
		buf := make([]byte, n)
		if _, err := DecodeMsg1(buf); err == nil {
			t.Errorf("msg1 decoded from %d bytes", n)
		}
		if _, err := DecodeMsg2(buf); err == nil {
			t.Errorf("msg2 decoded from %d bytes", n)
		}
		if _, err := DecodeMsg3(buf); err == nil {
			t.Errorf("msg3 decoded from %d bytes", n)
		}
		if _, err := DecodeMsg4(buf); err == nil {
			t.Errorf("msg4 decoded from %d bytes", n)
		}
	}
}

func TestKDFDeterministicAndLabelSeparated(t *testing.T) {
	secret := []byte("shared secret bytes")
	k1 := deriveKeys(secret)
	k2 := deriveKeys(secret)
	if k1.smk != k2.smk || k1.sk != k2.sk || k1.mk != k2.mk || k1.vk != k2.vk {
		t.Fatal("KDF not deterministic")
	}
	if k1.smk == k1.mk || k1.smk == k1.vk || k1.mk == k1.vk {
		t.Fatal("subkeys collide across labels")
	}
	k3 := deriveKeys([]byte("different secret"))
	if k3.sk == k1.sk {
		t.Fatal("distinct secrets derive the same SK")
	}
}
