package enclaveapp

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"

	"vnfguard/internal/ra"
	"vnfguard/internal/secchan"
	"vnfguard/internal/sgx"
)

// ecallRefusals are the named errors the credential enclave may refuse a
// host's ECall with. A refusal outside this list is an unnamed one.
var ecallRefusals = []error{
	sgx.ErrUnknownECall,
	ErrECallEncoding, ErrUnknownSession, ErrNotHandshaken, ErrHandshaken,
	ErrNoSession,
	ra.ErrMalformed, ra.ErrSessionState, ra.ErrMsg2Signature, ra.ErrMsg4MAC,
	secchan.ErrAuth,
}

// FuzzECall sends arbitrary handler names and arguments across the ECall
// boundary of a launched credential enclave that is enrolled,
// provisioned and holds an open in-enclave TLS session. No input
// panics, and every refusal wraps a named error. Afterwards the
// provisioned key still signs for its certificate and the open session
// still carries records. The host owns its session ids, so a tls_read,
// tls_write or tls_close naming the open session is the host using or
// ending its own session, not an attack on it, and is skipped.
func FuzzECall(f *testing.F) {
	_, ce, _, addr, stop := provisionedEnclave(f)
	f.Cleanup(stop)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		f.Fatal(err)
	}
	conn, err := ce.DialTLS(raw, "controller")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { conn.Close() })
	certDER, _, err := ce.Certificate()
	if err != nil {
		f.Fatal(err)
	}
	signer, err := ce.Signer()
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, name string, args []byte) {
		switch name {
		case "tls_read", "tls_write", "tls_close":
			if len(args) >= 4 && binary.BigEndian.Uint32(args) == conn.id {
				return
			}
		}
		if _, err := ce.enclave.ECall(name, args); err != nil && !isNamedRefusal(err) {
			t.Fatalf("ECall %q refused without a named error: %v", name, err)
		}

		if der, _, err := ce.Certificate(); err != nil || !bytes.Equal(der, certDER) {
			t.Fatalf("after ECall %q: certificate %v", name, err)
		}
		digest := sha256.Sum256(args)
		sig, err := signer.Sign(nil, digest[:], nil)
		if err != nil || !ecdsa.VerifyASN1(signer.Public().(*ecdsa.PublicKey), digest[:], sig) {
			t.Fatalf("after ECall %q: enclave signature %v", name, err)
		}
		msg := append([]byte("echo "), name...)
		if _, err := conn.Write(msg); err != nil {
			t.Fatalf("after ECall %q: session write: %v", name, err)
		}
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(conn, got); err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("after ECall %q: session read %q: %v", name, got, err)
		}
	})
}

func isNamedRefusal(err error) bool {
	for _, named := range ecallRefusals {
		if errors.Is(err, named) {
			return true
		}
	}
	return false
}
