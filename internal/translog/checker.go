package translog

import (
	"crypto/ecdsa"
	"crypto/x509"
	"fmt"

	"vnfguard/internal/sigmemo"
)

// ProofSource supplies credential proof bundles: a TileProofSource over
// the in-process log or a remote log server, so the controller can sit
// next to the VM or audit a remote log with the same hook. A source
// authenticates nothing: a bundle, its head's signature included, is
// unauthenticated until the relying party verifies it (ProofBundle.Verify,
// or the credential checkers below).
type ProofSource interface {
	ProveSerial(serial string) (*ProofBundle, error)
}

// NewCredentialChecker returns the controller-side gate for trusted-HTTPS
// mode: given a presented client certificate, it demands a verifiable
// inclusion proof that the Verification Manager logged the credential's
// issuance, and rejects certificates the VM never logged — even ones
// correctly signed by the CA. This closes the "trusted oracle" gap: a
// compromised VM (or stolen CA key) can still mint certificates, but it
// cannot use them against the controller without committing evidence to
// the append-only log.
//
// The checker is the one place a bundle's head signature is verified,
// and it remembers the heads whose signature it has verified, so a client
// reconnecting while the log has not moved costs one inclusion proof, not
// another ECDSA verification — over an in-process log and a remote log
// server (NewTileProofSource) alike.
func NewCredentialChecker(pub *ecdsa.PublicKey, source ProofSource) func(*x509.Certificate) error {
	return newCredentialChecker(pub, source, sigmemo.New())
}

// newCredentialChecker is NewCredentialChecker with the head memo
// supplied, so tests can watch it.
func newCredentialChecker(pub *ecdsa.PublicKey, source ProofSource, heads *sigmemo.Memo) func(*x509.Certificate) error {
	return func(cert *x509.Certificate) error {
		_, err := proveCredential(pub, source, heads, cert)
		return err
	}
}

// proveCredential fetches the proof bundle for cert's serial, verifies
// it against pub (remembering verified heads in heads) and checks that
// it records the credential's issuance. It returns the verified bundle.
func proveCredential(pub *ecdsa.PublicKey, source ProofSource, heads *sigmemo.Memo, cert *x509.Certificate) (*ProofBundle, error) {
	serial := cert.SerialNumber.String()
	pb, err := source.ProveSerial(serial)
	if err != nil {
		return nil, fmt.Errorf("translog: credential %s: %w", serial, err)
	}
	if err := pb.verify(pub, heads); err != nil {
		return nil, fmt.Errorf("translog: credential %s: %w", serial, err)
	}
	if pb.Entry.Serial != serial || (pb.Entry.Type != EntryEnroll && pb.Entry.Type != EntryProvision) {
		return nil, fmt.Errorf("%w: proof bundle does not cover serial %s", ErrNotLogged, serial)
	}
	return pb, nil
}
