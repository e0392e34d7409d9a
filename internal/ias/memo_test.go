package ias

import (
	"crypto/ecdsa"
	"errors"
	"math/big"
	"testing"

	"vnfguard/internal/epid"
	"vnfguard/internal/sgx"
)

// warmService returns a service whose membership-credential memo has
// already accepted fx's platform.
func warmService(t *testing.T, fx *quoteFixture) *Service {
	t.Helper()
	svc, err := NewService(fx.issuer.GroupPublicKey())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		expectStatus(t, svc, fx.quote, StatusOK)
	}
	if n := svc.creds.Len(); n != 1 {
		t.Fatalf("memo holds %d credentials after two quotes from one platform, want 1", n)
	}
	return svc
}

func expectStatus(t *testing.T, svc *Service, quote []byte, want QuoteStatus) {
	t.Helper()
	avr, err := svc.VerifyQuote(quote, "nonce")
	if err != nil {
		t.Fatal(err)
	}
	if avr.Status() != want {
		t.Fatalf("status = %s, want %s", avr.Status(), want)
	}
}

// resign re-encodes fx's quote with its EPID signature changed by edit.
func resign(t *testing.T, fx *quoteFixture, edit func(*epid.Signature)) (*sgx.Quote, []byte) {
	t.Helper()
	q, err := sgx.DecodeQuote(fx.quote)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := epid.DecodeSignature(q.Signature)
	if err != nil {
		t.Fatal(err)
	}
	edit(sig)
	q.Signature = sig.Encode()
	return q, q.Encode()
}

// TestWarmMemoCredentialRefusals flips one bit in each input of the
// membership-credential check with the memo warm: each is refused
// SIGNATURE_INVALID for epid.ErrBadCredential, as with a cold memo, and
// no refusal is remembered.
func TestWarmMemoCredentialRefusals(t *testing.T) {
	fx := newQuoteFixture(t)
	stranger, err := fx.issuer.Join()
	if err != nil {
		t.Fatal(err)
	}
	strangerSig, err := stranger.Sign([]byte("m"), []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(*epid.Signature){
		"credential bit":     func(s *epid.Signature) { s.Credential[len(s.Credential)-1] ^= 0x01 },
		"member key bit":     func(s *epid.Signature) { s.MemberPub[40] ^= 0x01 },
		"member key swapped": func(s *epid.Signature) { s.MemberPub = strangerSig.MemberPub },
		"member ID bit":      func(s *epid.Signature) { s.MemberID ^= 0x01 },
	} {
		svc := warmService(t, fx)
		q, bad := resign(t, fx, edit)
		expectStatus(t, svc, bad, StatusSignatureInvalid)
		if err := sgx.VerifyQuote(q, fx.issuer.GroupPublicKey(), nil, svc.creds); !errors.Is(err, epid.ErrBadCredential) {
			t.Fatalf("%s: got %v, want epid.ErrBadCredential", name, err)
		}
		if n := svc.creds.Len(); n != 1 {
			t.Fatalf("%s: memo holds %d credentials after the refusal, want 1", name, n)
		}
	}

	other, err := epid.NewIssuer(fx.issuer.GroupID())
	if err != nil {
		t.Fatal(err)
	}
	good := fx.issuer.GroupPublicKey().Key
	flipped := &ecdsa.PublicKey{Curve: good.Curve, X: new(big.Int).Xor(good.X, big.NewInt(1)), Y: good.Y}
	for name, key := range map[string]*ecdsa.PublicKey{
		"group key bit":     flipped,
		"group key swapped": other.GroupPublicKey().Key,
	} {
		svc := warmService(t, fx)
		svc.RegisterGroup(&epid.GroupPublicKey{GID: fx.issuer.GroupID(), Key: key})
		expectStatus(t, svc, fx.quote, StatusSignatureInvalid)
		q, err := sgx.DecodeQuote(fx.quote)
		if err != nil {
			t.Fatal(err)
		}
		gpk := &epid.GroupPublicKey{GID: fx.issuer.GroupID(), Key: key}
		if err := sgx.VerifyQuote(q, gpk, nil, svc.creds); !errors.Is(err, epid.ErrBadCredential) {
			t.Fatalf("%s: got %v, want epid.ErrBadCredential", name, err)
		}
	}
}

// TestWarmMemoRevocation revokes a platform after its credential is in
// the memo: the quote is refused with the revocation's own status.
func TestWarmMemoRevocation(t *testing.T) {
	fx := newQuoteFixture(t)
	q, err := sgx.DecodeQuote(fx.quote)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := epid.DecodeSignature(q.Signature)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		want   QuoteStatus
		revoke func(*Service)
	}{
		{StatusKeyRevoked, func(s *Service) { s.RevokePlatformKey(fx.platform.EPIDMember().PseudonymSecret()) }},
		{StatusSignatureRevoked, func(s *Service) { s.RevokeSignature(sig.Pseudonym) }},
		{StatusGroupRevoked, func(s *Service) { s.RevokeGroup(fx.issuer.GroupID()) }},
	} {
		svc := warmService(t, fx)
		tc.revoke(svc)
		expectStatus(t, svc, fx.quote, tc.want)
	}
}
