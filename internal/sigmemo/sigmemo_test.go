package sigmemo

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"math/big"
	"sync"
	"testing"
)

type signed struct {
	pub    *ecdsa.PublicKey
	digest [sha256.Size]byte
	sig    []byte
}

func sign(t testing.TB, key *ecdsa.PrivateKey, msg string) signed {
	t.Helper()
	digest := sha256.Sum256([]byte(msg))
	sig, err := ecdsa.SignASN1(rand.Reader, key, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	return signed{pub: &key.PublicKey, digest: digest, sig: sig}
}

func newKey(t testing.TB) *ecdsa.PrivateKey {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestMemoCap fills a memo past its cap: every valid signature still
// verifies and the memo never holds more than maxEntries.
func TestMemoCap(t *testing.T) {
	key := newKey(t)
	m := New()
	for i := 0; i < maxEntries+64; i++ {
		s := sign(t, key, fmt.Sprintf("head %d", i))
		if !m.Verify(s.pub, s.digest, s.sig) {
			t.Fatalf("signature %d refused", i)
		}
		if n := m.Len(); n > maxEntries {
			t.Fatalf("memo holds %d entries after %d inserts, cap %d", n, i+1, maxEntries)
		}
	}
	if n := m.Len(); n != maxEntries {
		t.Fatalf("memo holds %d entries, want the cap %d", n, maxEntries)
	}
}

// TestMemoRefusals warms the memo with one signature and flips one bit
// in each part of the key: every flip is refused, and no refusal is
// remembered.
func TestMemoRefusals(t *testing.T) {
	key := newKey(t)
	good := sign(t, key, "tree head")
	m := New()
	if !m.Verify(good.pub, good.digest, good.sig) || !m.Verify(good.pub, good.digest, good.sig) {
		t.Fatal("valid signature refused")
	}
	if m.Len() != 1 {
		t.Fatalf("warm memo holds %d entries, want 1", m.Len())
	}

	flippedDigest := good.digest
	flippedDigest[7] ^= 0x01
	flippedSig := append([]byte(nil), good.sig...)
	flippedSig[len(flippedSig)-1] ^= 0x01
	other := newKey(t)
	offCurve := &ecdsa.PublicKey{Curve: good.pub.Curve, X: new(big.Int).Xor(good.pub.X, big.NewInt(1)), Y: good.pub.Y}
	cases := []struct {
		name   string
		pub    *ecdsa.PublicKey
		digest [sha256.Size]byte
		sig    []byte
	}{
		{"digest", good.pub, flippedDigest, good.sig},
		{"signature", good.pub, good.digest, flippedSig},
		{"key", &other.PublicKey, good.digest, good.sig},
		{"key bit", offCurve, good.digest, good.sig},
	}
	for _, tc := range cases {
		for round := 0; round < 2; round++ {
			if m.Verify(tc.pub, tc.digest, tc.sig) {
				t.Fatalf("%s flipped: accepted by a warm memo (round %d)", tc.name, round)
			}
		}
	}
	if m.Len() != 1 {
		t.Fatalf("memo holds %d entries after refusals, want 1", m.Len())
	}
}

// TestNilMemoVerifiesEveryTime pins the nil memo's contract.
func TestNilMemoVerifiesEveryTime(t *testing.T) {
	key := newKey(t)
	s := sign(t, key, "sigstruct")
	var m *Memo
	if !m.Verify(s.pub, s.digest, s.sig) {
		t.Fatal("nil memo refused a valid signature")
	}
	s.sig[len(s.sig)-1] ^= 0x01
	if m.Verify(s.pub, s.digest, s.sig) {
		t.Fatal("nil memo accepted a flipped signature")
	}
	if m.Len() != 0 {
		t.Fatal("nil memo reports entries")
	}
}

// TestMemoConcurrent shares one memo between goroutines verifying the
// same and distinct signatures, for the race detector.
func TestMemoConcurrent(t *testing.T) {
	key := newKey(t)
	shared := sign(t, key, "shared")
	own := make([]signed, 8)
	for i := range own {
		own[i] = sign(t, key, fmt.Sprintf("own %d", i))
	}
	m := New()
	var wg sync.WaitGroup
	for i := range own {
		wg.Add(1)
		go func(s signed) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if !m.Verify(shared.pub, shared.digest, shared.sig) || !m.Verify(s.pub, s.digest, s.sig) {
					t.Error("valid signature refused")
				}
			}
		}(own[i])
	}
	wg.Wait()
	if n := m.Len(); n != len(own)+1 {
		t.Fatalf("memo holds %d entries, want %d", n, len(own)+1)
	}
}
