package epid

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"
	"testing/quick"
)

func newGroup(t *testing.T) (*Issuer, *Member) {
	t.Helper()
	is, err := NewIssuer(7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := is.Join()
	if err != nil {
		t.Fatal(err)
	}
	return is, m
}

func TestSignVerifyRoundTrip(t *testing.T) {
	is, m := newGroup(t)
	msg := []byte("quote body")
	bsn := []byte("spid-0001")
	sig, err := m.Sign(msg, bsn)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(is.GroupPublicKey(), msg, sig, nil, nil); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	is, m := newGroup(t)
	sig, err := m.Sign([]byte("original"), []byte("bsn"))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(is.GroupPublicKey(), []byte("tampered"), sig, nil, nil); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("got %v, want ErrBadSignature", err)
	}
}

func TestVerifyRejectsForeignGroup(t *testing.T) {
	_, m := newGroup(t)
	other, err := NewIssuer(8)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := m.Sign([]byte("m"), []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(other.GroupPublicKey(), []byte("m"), sig, nil, nil); !errors.Is(err, ErrWrongGroup) {
		t.Fatalf("got %v, want ErrWrongGroup", err)
	}
}

func TestVerifyRejectsForgedCredential(t *testing.T) {
	is, _ := newGroup(t)
	// A non-member fabricates its own key and credential.
	rogue, err := NewIssuer(7) // same GID, different issuing key
	if err != nil {
		t.Fatal(err)
	}
	m, err := rogue.Join()
	if err != nil {
		t.Fatal(err)
	}
	sig, err := m.Sign([]byte("m"), []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(is.GroupPublicKey(), []byte("m"), sig, nil, nil); !errors.Is(err, ErrBadCredential) {
		t.Fatalf("got %v, want ErrBadCredential", err)
	}
}

func TestPrivRLRevocation(t *testing.T) {
	is, m := newGroup(t)
	sig, err := m.Sign([]byte("m"), []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	rl := &RevocationLists{Priv: [][32]byte{m.PseudonymSecret()}}
	if err := Verify(is.GroupPublicKey(), []byte("m"), sig, rl, nil); !errors.Is(err, ErrMemberRevoked) {
		t.Fatalf("got %v, want ErrMemberRevoked", err)
	}
	// A different member stays valid under the same RL.
	m2, err := is.Join()
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := m2.Sign([]byte("m"), []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(is.GroupPublicKey(), []byte("m"), sig2, rl, nil); err != nil {
		t.Fatalf("unrevoked member rejected: %v", err)
	}
}

func TestSigRLRevocation(t *testing.T) {
	is, m := newGroup(t)
	bsn := []byte("controller-basename")
	sig, err := m.Sign([]byte("m"), bsn)
	if err != nil {
		t.Fatal(err)
	}
	rl := &RevocationLists{Sig: [][32]byte{sig.Pseudonym}}
	if err := Verify(is.GroupPublicKey(), []byte("m"), sig, rl, nil); !errors.Is(err, ErrSignatureRevoked) {
		t.Fatalf("got %v, want ErrSignatureRevoked", err)
	}
	// Same member, different basename → different pseudonym → accepted.
	sig2, err := m.Sign([]byte("m"), []byte("other-basename"))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(is.GroupPublicKey(), []byte("m"), sig2, rl, nil); err != nil {
		t.Fatalf("different basename rejected: %v", err)
	}
}

func TestGroupRevocation(t *testing.T) {
	is, m := newGroup(t)
	sig, err := m.Sign([]byte("m"), []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	rl := &RevocationLists{Groups: []GroupID{7}}
	if err := Verify(is.GroupPublicKey(), []byte("m"), sig, rl, nil); !errors.Is(err, ErrGroupRevoked) {
		t.Fatalf("got %v, want ErrGroupRevoked", err)
	}
}

func TestPseudonymStableAndBasenameScoped(t *testing.T) {
	_, m := newGroup(t)
	a1 := m.Pseudonym([]byte("a"))
	a2 := m.Pseudonym([]byte("a"))
	b := m.Pseudonym([]byte("b"))
	if a1 != a2 {
		t.Fatal("pseudonym not deterministic for same basename")
	}
	if a1 == b {
		t.Fatal("pseudonym does not depend on basename")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	_, m := newGroup(t)
	sig, err := m.Sign([]byte("payload"), []byte("bsn"))
	if err != nil {
		t.Fatal(err)
	}
	enc := sig.Encode()
	dec, err := DecodeSignature(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.GID != sig.GID || dec.MemberID != sig.MemberID ||
		!bytes.Equal(dec.MemberPub, sig.MemberPub) ||
		!bytes.Equal(dec.Credential, sig.Credential) ||
		dec.Pseudonym != sig.Pseudonym ||
		!bytes.Equal(dec.Basename, sig.Basename) ||
		!bytes.Equal(dec.Sig, sig.Sig) {
		t.Fatal("decode mismatch")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	_, m := newGroup(t)
	sig, err := m.Sign([]byte("payload"), []byte("bsn"))
	if err != nil {
		t.Fatal(err)
	}
	enc := sig.Encode()
	for _, n := range []int{0, 5, 11, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeSignature(enc[:n]); !errors.Is(err, ErrTruncated) || !errors.Is(err, ErrMalformedSignature) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrTruncated", n, err)
		}
	}
	if _, err := DecodeSignature(append(enc, 0x00)); !errors.Is(err, ErrMalformedSignature) || errors.Is(err, ErrTruncated) {
		t.Fatalf("trailing byte: got %v, want ErrMalformedSignature", err)
	}
}

func TestDecodeEncodePropertyRandomMessages(t *testing.T) {
	is, err := NewIssuer(42)
	if err != nil {
		t.Fatal(err)
	}
	m, err := is.Join()
	if err != nil {
		t.Fatal(err)
	}
	gpk := is.GroupPublicKey()
	f := func(msg, bsn []byte) bool {
		sig, err := m.Sign(msg, bsn)
		if err != nil {
			return false
		}
		dec, err := DecodeSignature(sig.Encode())
		if err != nil {
			return false
		}
		return Verify(gpk, msg, dec, nil, nil) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSignaturesNotReplayableAcrossMessages(t *testing.T) {
	is, m := newGroup(t)
	sig, err := m.Sign([]byte("msg-A"), []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	// Forwarding A's signature for message B must fail even with a valid
	// credential and pseudonym.
	if err := Verify(is.GroupPublicKey(), []byte("msg-B"), sig, nil, nil); err == nil {
		t.Fatal("cross-message replay accepted")
	}
}

func TestRandomGarbageDecode(t *testing.T) {
	buf := make([]byte, 256)
	for i := 0; i < 50; i++ {
		if _, err := rand.Read(buf); err != nil {
			t.Fatal(err)
		}
		// Must never panic; error or (vanishingly unlikely) success both fine.
		_, _ = DecodeSignature(buf)
	}
}
