package secchan

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func newCodec(t *testing.T, key string, role Role) *RecordCodec {
	t.Helper()
	var sk [16]byte
	copy(sk[:], key)
	c, err := NewCodec(sk, role)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newCodecPair(t *testing.T) (*RecordCodec, *RecordCodec) {
	t.Helper()
	return newCodec(t, "0123456789abcdef", RoleInitiator), newCodec(t, "0123456789abcdef", RoleResponder)
}

func TestInvalidRole(t *testing.T) {
	if _, err := NewCodec([16]byte{}, Role(9)); err == nil {
		t.Fatal("invalid role accepted")
	}
}

// TestBidirectionalSequences: each direction keeps its own sequence, so
// records in both directions open in order on the same pair.
func TestBidirectionalSequences(t *testing.T) {
	a, b := newCodecPair(t)
	for _, dir := range []struct {
		from, to *RecordCodec
		typ      uint8
	}{{a, b, TypeProvision}, {b, a, TypeAck}} {
		var frames [][]byte
		for i := 0; i < 5; i++ {
			f, err := dir.from.Seal(dir.typ, []byte{byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, f)
		}
		for i, f := range frames {
			typ, p, err := dir.to.Open(f)
			if err != nil {
				t.Fatal(err)
			}
			if typ != dir.typ || p[0] != byte(i) {
				t.Fatalf("type %d record %d: got type %d payload %v", dir.typ, i, typ, p)
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	a, b := newCodecPair(t)
	f := func(payload []byte, typ uint8) bool {
		frame, err := a.Seal(typ, payload)
		if err != nil {
			return false
		}
		gotType, gotPayload, err := b.Open(frame)
		return err == nil && gotType == typ && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecSealOpenRoundTrip(t *testing.T) {
	a, b := newCodecPair(t)
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		bytes.Repeat([]byte{0xAB}, 1024),
		make([]byte, MaxRecordSize),
	}
	for i, payload := range payloads {
		frame, err := a.Seal(TypeProvision, payload)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		msgType, got, err := b.Open(frame)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if msgType != TypeProvision || !bytes.Equal(got, payload) {
			t.Fatalf("case %d: type=%d len=%d", i, msgType, len(got))
		}
	}
}

// TestSendRecvRoundTrip runs one provisioning exchange as the protocol
// does: the initiator sends a record and the responder answers on the
// same codec pair.
func TestSendRecvRoundTrip(t *testing.T) {
	vm, enclave := newCodecPair(t)
	req, err := vm.Seal(TypeProvision, []byte("credential blob"))
	if err != nil {
		t.Fatal(err)
	}
	typ, payload, err := enclave.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeProvision || string(payload) != "credential blob" {
		t.Fatalf("request: got type=%d payload=%q", typ, payload)
	}
	resp, err := enclave.Seal(TypeAck, []byte("provisioned"))
	if err != nil {
		t.Fatal(err)
	}
	typ, payload, err = vm.Open(resp)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeAck || string(payload) != "provisioned" {
		t.Fatalf("response: got type=%d payload=%q", typ, payload)
	}
}

// TestOversizeRejected checks a refused Seal spends no sequence number:
// the next record still opens at the peer.
func TestOversizeRejected(t *testing.T) {
	a, b := newCodecPair(t)
	if _, err := a.Seal(TypeProvision, make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("got %v, want ErrRecordTooLarge", err)
	}
	frame, err := a.Seal(TypeProvision, []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if _, got, err := b.Open(frame); err != nil || string(got) != "after" {
		t.Fatalf("record after refused seal: %q, %v", got, err)
	}
}

// TestTamperedRecordFailsAuth flips one bit in each byte of the sealed
// body in turn: every altered frame fails with ErrAuth, and none of them
// advances the receive sequence.
func TestTamperedRecordFailsAuth(t *testing.T) {
	a, b := newCodecPair(t)
	frame, err := a.Seal(TypeProvision, []byte("sensitive"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 5; i < len(frame); i++ {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x80
		if _, _, err := b.Open(bad); !errors.Is(err, ErrAuth) {
			t.Fatalf("byte %d flipped: got %v, want ErrAuth", i, err)
		}
	}
	if _, got, err := b.Open(frame); err != nil || string(got) != "sensitive" {
		t.Fatalf("intact frame after tampering: %q, %v", got, err)
	}
}

func TestCodecOversizeRejected(t *testing.T) {
	a, _ := newCodecPair(t)
	if _, err := a.Seal(TypeProvision, make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversize seal: %v", err)
	}
}

// TestCodecOpenTruncation feeds every strict prefix of a valid frame to
// Open: each must fail cleanly with ErrAuth and must not advance the
// receive sequence (a later valid frame still opens).
func TestCodecOpenTruncation(t *testing.T) {
	a, b := newCodecPair(t)
	frame, err := a.Seal(TypeProvision, []byte("credential material"))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(frame); n++ {
		if _, _, err := b.Open(frame[:n]); !errors.Is(err, ErrAuth) {
			t.Fatalf("prefix %d/%d: %v", n, len(frame), err)
		}
	}
	// The intact frame must still open: no state was corrupted.
	if _, got, err := b.Open(frame); err != nil || string(got) != "credential material" {
		t.Fatalf("after truncation attempts: %v", err)
	}
}

// TestCodecOpenMalformed covers structured corruption beyond truncation,
// and the receivers that must not open an intact frame: one under
// another key, one that took the sender's role, and one that already
// opened it (a replay).
func TestCodecOpenMalformed(t *testing.T) {
	intact := func(f []byte) []byte { return f }
	mutate := []struct {
		name string
		mod  func(frame []byte) []byte
		// recv, when set, replaces the sender's true peer.
		recv func(t *testing.T) *RecordCodec
		// replay opens the intact frame once before the mutated one.
		replay bool
	}{
		{name: "wrong key", mod: intact, recv: func(t *testing.T) *RecordCodec {
			return newCodec(t, "fedcba9876543210", RoleResponder)
		}},
		{name: "same role both ends", mod: intact, recv: func(t *testing.T) *RecordCodec {
			return newCodec(t, "0123456789abcdef", RoleInitiator)
		}},
		{name: "replay", mod: intact, replay: true},
		{name: "type forged as revoke", mod: func(f []byte) []byte {
			out := append([]byte(nil), f...)
			out[4] = TypeRevoke
			return out
		}},
		{name: "trailing garbage", mod: func(f []byte) []byte { return append(append([]byte(nil), f...), 0xFF) }},
		{name: "length too large", mod: func(f []byte) []byte {
			out := append([]byte(nil), f...)
			binary.BigEndian.PutUint32(out[:4], uint32(len(f)-5)+1)
			return out
		}},
		{name: "length zeroed", mod: func(f []byte) []byte {
			out := append([]byte(nil), f...)
			binary.BigEndian.PutUint32(out[:4], 0)
			return out
		}},
		{name: "type flipped", mod: func(f []byte) []byte {
			out := append([]byte(nil), f...)
			out[4] ^= 0xFF
			return out
		}},
		{name: "first ct byte flipped", mod: func(f []byte) []byte {
			out := append([]byte(nil), f...)
			out[5] ^= 0x01
			return out
		}},
		{name: "last tag byte flipped", mod: func(f []byte) []byte {
			out := append([]byte(nil), f...)
			out[len(out)-1] ^= 0x80
			return out
		}},
	}
	for _, tc := range mutate {
		t.Run(tc.name, func(t *testing.T) {
			a, b := newCodecPair(t)
			if tc.recv != nil {
				b = tc.recv(t)
			}
			frame, err := a.Seal(TypeAck, []byte("payload"))
			if err != nil {
				t.Fatal(err)
			}
			if tc.replay {
				if _, _, err := b.Open(frame); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := b.Open(tc.mod(frame)); !errors.Is(err, ErrAuth) {
				t.Fatalf("corrupted frame accepted: %v", err)
			}
		})
	}
}

// TestCodecOpenRandomGarbage fuzzes Open with deterministic pseudo-random
// junk of many lengths: never panic, never accept.
func TestCodecOpenRandomGarbage(t *testing.T) {
	_, b := newCodecPair(t)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		junk := make([]byte, rng.Intn(256))
		rng.Read(junk)
		if _, _, err := b.Open(junk); err == nil {
			t.Fatalf("garbage frame %d accepted", i)
		}
	}
}

// TestCodecSequenceBinding checks a frame cannot be replayed or
// reordered: sequence numbers are baked into the nonce.
func TestCodecSequenceBinding(t *testing.T) {
	a, b := newCodecPair(t)
	f1, err := a.Seal(TypeProvision, []byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := a.Seal(TypeProvision, []byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	// Out of order: frame 2 under receive sequence 0 fails.
	if _, _, err := b.Open(f2); !errors.Is(err, ErrAuth) {
		t.Fatalf("reordered frame accepted: %v", err)
	}
	if _, _, err := b.Open(f1); err != nil {
		t.Fatal(err)
	}
	// Replay of frame 1 under receive sequence 1 fails.
	if _, _, err := b.Open(f1); !errors.Is(err, ErrAuth) {
		t.Fatalf("replayed frame accepted: %v", err)
	}
	if _, _, err := b.Open(f2); err != nil {
		t.Fatal(err)
	}
}

// TestCodecOpenConcurrentReplay hands one sealed frame to several
// concurrent Opens, round after round — what an untrusted host can do to
// a credential enclave that runs ECalls in parallel. Each round the frame
// must be accepted exactly once, and the sender's next frame must open.
func TestCodecOpenConcurrentReplay(t *testing.T) {
	const openers = 4
	for round := 0; round < 2000; round++ {
		a, b := newCodecPair(t)
		frame, err := a.Seal(TypeRevoke, []byte("revoke fw-1"))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var accepted atomic.Int32
		start := make(chan struct{})
		for i := 0; i < openers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, _, err := b.Open(frame); err == nil {
					accepted.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := accepted.Load(); n != 1 {
			t.Fatalf("round %d: one frame accepted %d times", round, n)
		}
		next, err := a.Seal(TypeProvision, []byte("next"))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.Open(next); err != nil {
			t.Fatalf("round %d: next frame after the race: %v", round, err)
		}
	}
}
