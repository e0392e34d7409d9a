// Package sigmemo remembers P-256 ECDSA signatures that have already
// verified, so a relying party that sees the same signed bytes again —
// the vendor SIGSTRUCT on every credential-enclave launch, an EPID
// membership credential on every quote, an unchanged transparency-log
// head on every handshake — skips the repeated verification.
//
// Only positive results are kept, keyed by SHA-256 over the uncompressed
// public key, the digest and the signature, so a changed byte in any of
// the three is a miss and pays a full verification. Never memoize a
// verdict that carries a nonce or a timestamp: this package only ever
// answers "does this signature verify under this key", which no later
// event can change.
//
// Each memo belongs to the relying party that uses it; there is no
// package-level instance. A nil *Memo verifies every time.
package sigmemo

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"sync"
)

// maxEntries is the most verified signatures a memo holds. Each site sees
// a small working set — one SIGSTRUCT per image, one credential per
// platform, the log's latest heads — while a relying party that checks
// every new log head fills its memo with heads it never sees again, so
// the cap keeps that memory to a few kilobytes.
const maxEntries = 256

// Memo is a bounded set of signatures that verified.
type Memo struct {
	mu   sync.Mutex
	seen map[[sha256.Size]byte]struct{}
}

// New returns an empty memo.
func New() *Memo {
	return &Memo{seen: make(map[[sha256.Size]byte]struct{})}
}

// Verify reports whether sig is a valid ASN.1 ECDSA signature over digest
// under pub, as ecdsa.VerifyASN1 would, verifying only if this memo has
// not already seen the same key, digest and signature verify.
func (m *Memo) Verify(pub *ecdsa.PublicKey, digest [sha256.Size]byte, sig []byte) bool {
	if m == nil || pub.Curve != elliptic.P256() || !pub.Curve.IsOnCurve(pub.X, pub.Y) {
		// Only P-256 points have the fixed-length encoding memoKey
		// relies on; an off-curve key never verifies anyway.
		return ecdsa.VerifyASN1(pub, digest[:], sig)
	}
	key := memoKey(pub, digest, sig)
	m.mu.Lock()
	_, ok := m.seen[key]
	m.mu.Unlock()
	if ok {
		return true
	}
	if !ecdsa.VerifyASN1(pub, digest[:], sig) {
		return false
	}
	m.mu.Lock()
	if len(m.seen) >= maxEntries {
		// Drop an arbitrary entry: a dropped signature is only verified
		// again, never wrongly accepted.
		for k := range m.seen {
			delete(m.seen, k)
			break
		}
	}
	m.seen[key] = struct{}{}
	m.mu.Unlock()
	return true
}

// Len reports how many verified signatures the memo holds.
func (m *Memo) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.seen)
}

// memoKey is SHA-256(uncompressed pub ‖ digest ‖ sig). The key and the
// digest have fixed lengths on P-256, so the concatenation is unambiguous.
func memoKey(pub *ecdsa.PublicKey, digest [sha256.Size]byte, sig []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(elliptic.Marshal(elliptic.P256(), pub.X, pub.Y))
	h.Write(digest[:])
	h.Write(sig)
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k
}
