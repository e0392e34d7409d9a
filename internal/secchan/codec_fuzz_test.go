package secchan

import (
	"bytes"
	"errors"
	"testing"
)

// openFixture returns a receiver that has already opened its sender's
// first frame ("first"), the sender's next two genuine frames ("second",
// "third") and, for seeding, the first frame itself. Sealing is
// deterministic — fixed key, sequence nonces — so the checked-in seeds
// under testdata/fuzz/FuzzRecordCodecOpen are exactly these frames and
// corruptions of them: a valid frame, a truncated header, an over-cap
// length, a flipped tag, a replayed frame and a wrong-role frame.
func openFixture(t testing.TB) (recv *RecordCodec, first []byte, next [2][]byte) {
	t.Helper()
	var sk [16]byte
	copy(sk[:], "0123456789abcdef")
	send, err := NewCodec(sk, RoleInitiator)
	if err != nil {
		t.Fatal(err)
	}
	recv, err = NewCodec(sk, RoleResponder)
	if err != nil {
		t.Fatal(err)
	}
	if first, err = send.Seal(TypeProvision, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := recv.Open(first); err != nil {
		t.Fatal(err)
	}
	for i, p := range []string{"second", "third"} {
		if next[i], err = send.Seal(TypeProvision, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	return recv, first, next
}

// FuzzRecordCodecOpen feeds arbitrary bytes to a receiver mid-session,
// the position of a credential enclave handed frames by its untrusted
// host. No input panics; every refusal is ErrAuth or ErrRecordTooLarge;
// a refused frame never advances the receive sequence, so the sender's
// genuine next frame still opens; and the only frame that opens is that
// genuine next frame, after which the one following it opens too.
func FuzzRecordCodecOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recv, _, next := openFixture(t)
		_, _, err := recv.Open(data)
		if err != nil {
			if !errors.Is(err, ErrAuth) && !errors.Is(err, ErrRecordTooLarge) {
				t.Fatalf("refusal not named: %v", err)
			}
			if _, got, err := recv.Open(next[0]); err != nil || string(got) != "second" {
				t.Fatalf("genuine next frame after a refusal: %q, %v", got, err)
			}
			return
		}
		if !bytes.Equal(data, next[0]) {
			t.Fatalf("accepted a frame the sender did not seal next: %x", data)
		}
		if _, got, err := recv.Open(next[1]); err != nil || string(got) != "third" {
			t.Fatalf("genuine frame after the accepted one: %q, %v", got, err)
		}
	})
}
