// Package epid implements a group-membership signature scheme shaped like
// Intel EPID (Enhanced Privacy ID), which SGX quoting enclaves use to sign
// quotes. The scheme reproduces the properties the attestation workflow
// depends on:
//
//   - only provisioned group members can produce signatures that verify
//     under the group public key;
//   - signatures carry a basename-scoped pseudonym, enabling
//     signature-based revocation (SigRL) without identifying the member;
//   - leaked member keys can be revoked via a private-key revocation list
//     (PrivRL);
//   - whole groups can be revoked (GroupRL).
//
// It does NOT reproduce EPID's cryptographic unlinkability across
// basenames (a zero-knowledge property irrelevant to the paper's
// workflow); the simplification is confined to this package.
//
// Construction: the issuer holds an ECDSA P-256 group issuing key. A
// joining member generates an ECDSA member key plus a 32-byte pseudonym
// secret; the issuer signs (memberID, memberPub) producing the membership
// credential. A signature over msg with basename bsn is the member's ECDSA
// signature over H(msg ‖ bsn ‖ K) together with the credential and the
// pseudonym K = HMAC(secret, bsn).
package epid

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"vnfguard/internal/sigmemo"
)

// GroupID identifies an EPID group (the GID field of SGX messages).
type GroupID uint32

// Errors returned by Verify.
var (
	ErrGroupRevoked     = errors.New("epid: group revoked")
	ErrMemberRevoked    = errors.New("epid: member private key revoked")
	ErrSignatureRevoked = errors.New("epid: signature pseudonym revoked")
	ErrBadCredential    = errors.New("epid: invalid membership credential")
	ErrBadSignature     = errors.New("epid: signature verification failed")
	ErrWrongGroup       = errors.New("epid: signature from different group")
)

// Issuer provisions members into a group and owns the group issuing key.
// The verifier side only needs the GroupPublicKey.
type Issuer struct {
	mu      sync.Mutex
	gid     GroupID
	key     *ecdsa.PrivateKey
	members int
}

// NewIssuer creates a group with the given ID.
func NewIssuer(gid GroupID) (*Issuer, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("epid: generating group issuing key: %w", err)
	}
	return &Issuer{gid: gid, key: key}, nil
}

// GroupID returns the group's identifier.
func (is *Issuer) GroupID() GroupID { return is.gid }

// GroupPublicKey returns the verification key distributed to verifiers
// (in deployments, embedded in IAS).
func (is *Issuer) GroupPublicKey() *GroupPublicKey {
	return &GroupPublicKey{GID: is.gid, Key: &is.key.PublicKey}
}

// Join provisions a new member (in SGX, this is the provisioning enclave
// flow executed at platform manufacture/boot).
func (is *Issuer) Join() (*Member, error) {
	memberKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("epid: generating member key: %w", err)
	}
	var secret [32]byte
	if _, err := rand.Read(secret[:]); err != nil {
		return nil, fmt.Errorf("epid: generating pseudonym secret: %w", err)
	}
	is.mu.Lock()
	is.members++
	id := uint64(is.members)
	is.mu.Unlock()

	cred, err := signCredential(is.key, is.gid, id, &memberKey.PublicKey)
	if err != nil {
		return nil, err
	}
	return &Member{
		gid:        is.gid,
		id:         id,
		key:        memberKey,
		secret:     secret,
		credential: cred,
	}, nil
}

// GroupPublicKey is the public verification key of an EPID group.
type GroupPublicKey struct {
	GID GroupID
	Key *ecdsa.PublicKey
}

// Member holds a provisioned member's signing material. On a real platform
// this never leaves the quoting enclave.
type Member struct {
	gid        GroupID
	id         uint64
	key        *ecdsa.PrivateKey
	secret     [32]byte
	credential []byte
}

// GroupID returns the group the member belongs to.
func (m *Member) GroupID() GroupID { return m.gid }

// PseudonymSecret exposes the member's pseudonym secret. It exists so that
// tests and the revocation workflow can simulate a leaked platform key
// being added to a PrivRL.
func (m *Member) PseudonymSecret() [32]byte { return m.secret }

// Pseudonym computes the member's basename-scoped pseudonym.
func (m *Member) Pseudonym(basename []byte) [32]byte {
	return pseudonym(m.secret, basename)
}

func pseudonym(secret [32]byte, basename []byte) [32]byte {
	mac := hmac.New(sha256.New, secret[:])
	mac.Write(basename)
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// Signature is an EPID-shaped group signature.
type Signature struct {
	GID        GroupID
	MemberID   uint64
	MemberPub  []byte // uncompressed P-256 point
	Credential []byte // issuer signature over (gid, memberID, memberPub)
	Pseudonym  [32]byte
	Basename   []byte
	Sig        []byte // member ECDSA (ASN.1) over digest(msg, basename, pseudonym)
}

// Sign produces a group signature over msg scoped to basename. SGX uses
// the SPID as basename for linkable quotes; unlinkable mode passes a random
// basename.
func (m *Member) Sign(msg, basename []byte) (*Signature, error) {
	k := pseudonym(m.secret, basename)
	digest := signatureDigest(msg, basename, k)
	sig, err := ecdsa.SignASN1(rand.Reader, m.key, digest[:])
	if err != nil {
		return nil, fmt.Errorf("epid: signing: %w", err)
	}
	return &Signature{
		GID:        m.gid,
		MemberID:   m.id,
		MemberPub:  elliptic.Marshal(elliptic.P256(), m.key.PublicKey.X, m.key.PublicKey.Y),
		Credential: append([]byte(nil), m.credential...),
		Pseudonym:  k,
		Basename:   append([]byte(nil), basename...),
		Sig:        sig,
	}, nil
}

// RevocationLists carries the three EPID revocation lists consulted at
// verification time (IAS distributes the SigRL to challengers and checks
// the rest itself).
type RevocationLists struct {
	// Priv lists leaked member pseudonym secrets.
	Priv [][32]byte
	// Sig lists revoked pseudonyms (basename-scoped).
	Sig [][32]byte
	// Groups lists wholly revoked groups.
	Groups []GroupID
}

// Verify checks sig over msg under the group public key, honoring the
// revocation lists (rl may be nil). creds, when non-nil, remembers
// membership credentials that verified: the issuer's signature over a
// member key never changes, so a verifier that sees the same platform
// again skips that check. The revocation lists and the member's
// signature over msg are checked on every call, before and after it.
func Verify(gpk *GroupPublicKey, msg []byte, sig *Signature, rl *RevocationLists, creds *sigmemo.Memo) error {
	if sig.GID != gpk.GID {
		return ErrWrongGroup
	}
	if rl != nil {
		for _, g := range rl.Groups {
			if g == sig.GID {
				return ErrGroupRevoked
			}
		}
		for _, s := range rl.Sig {
			if s == sig.Pseudonym {
				return ErrSignatureRevoked
			}
		}
		for _, secret := range rl.Priv {
			if pseudonym(secret, sig.Basename) == sig.Pseudonym {
				return ErrMemberRevoked
			}
		}
	}
	x, y := elliptic.Unmarshal(elliptic.P256(), sig.MemberPub)
	if x == nil {
		return ErrBadCredential
	}
	memberPub := &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}
	credDigest := credentialDigest(sig.GID, sig.MemberID, sig.MemberPub)
	if !creds.Verify(gpk.Key, credDigest, sig.Credential) {
		return ErrBadCredential
	}
	digest := signatureDigest(msg, sig.Basename, sig.Pseudonym)
	if !ecdsa.VerifyASN1(memberPub, digest[:], sig.Sig) {
		return ErrBadSignature
	}
	return nil
}

func signCredential(issuer *ecdsa.PrivateKey, gid GroupID, id uint64, pub *ecdsa.PublicKey) ([]byte, error) {
	pubBytes := elliptic.Marshal(elliptic.P256(), pub.X, pub.Y)
	digest := credentialDigest(gid, id, pubBytes)
	cred, err := ecdsa.SignASN1(rand.Reader, issuer, digest[:])
	if err != nil {
		return nil, fmt.Errorf("epid: signing credential: %w", err)
	}
	return cred, nil
}

func credentialDigest(gid GroupID, id uint64, memberPub []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("epid-credential-v1"))
	var buf [12]byte
	binary.BigEndian.PutUint32(buf[0:4], uint32(gid))
	binary.BigEndian.PutUint64(buf[4:12], id)
	h.Write(buf[:])
	h.Write(memberPub)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func signatureDigest(msg, basename []byte, k [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("epid-signature-v1"))
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(msg)))
	h.Write(n[:])
	h.Write(msg)
	binary.BigEndian.PutUint64(n[:], uint64(len(basename)))
	h.Write(n[:])
	h.Write(basename)
	h.Write(k[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
