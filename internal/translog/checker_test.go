package translog

import (
	"errors"
	"testing"

	"vnfguard/internal/sigmemo"
)

// editedSource serves the log's proof bundles with edit applied.
type editedSource struct {
	log  *Log
	edit func(*ProofBundle)
}

func (s editedSource) ProveSerial(serial string) (*ProofBundle, error) {
	pb, err := logProofs(s.log).ProveSerial(serial)
	if err != nil {
		return nil, err
	}
	s.edit(pb)
	return pb, nil
}

// TestWarmMemoTreeHeadRefusals: with the checker's head memo warm, a
// bundle whose head differs in one bit — signature, root, size or
// timestamp — is refused with ErrBadSTH, as with a cold memo, and is not
// remembered. Checks against an unmoved log reuse the remembered head.
func TestWarmMemoTreeHeadRefusals(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Entry{Type: EntryEnroll, Timestamp: 1, Actor: "fw-0", Serial: "77"}); err != nil {
		t.Fatal(err)
	}
	foreign, err := NewLog(testSigner(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := foreign.Append(Entry{Type: EntryEnroll, Timestamp: 1, Actor: "fw-0", Serial: "77"}); err != nil {
		t.Fatal(err)
	}
	foreignHead := foreign.STH()

	heads := sigmemo.New()
	var edit func(*ProofBundle)
	check := newCredentialChecker(&key.PublicKey, editedSource{log: l, edit: func(pb *ProofBundle) {
		if edit != nil {
			edit(pb)
		}
	}}, heads)
	for i := 0; i < 3; i++ {
		if err := check(certWithSerial(77)); err != nil {
			t.Fatalf("logged credential rejected: %v", err)
		}
	}
	if n := heads.Len(); n != 1 {
		t.Fatalf("memo holds %d heads after three checks of an unmoved log, want 1", n)
	}

	for name, flip := range map[string]func(*ProofBundle){
		"signature bit": func(pb *ProofBundle) {
			pb.STH.Signature = append([]byte(nil), pb.STH.Signature...)
			pb.STH.Signature[len(pb.STH.Signature)-1] ^= 0x01
		},
		"root bit":      func(pb *ProofBundle) { pb.STH.RootHash[0] ^= 0x01 },
		"size bit":      func(pb *ProofBundle) { pb.STH.Size ^= 0x02 },
		"timestamp bit": func(pb *ProofBundle) { pb.STH.Timestamp ^= 0x01 },
		"foreign head":  func(pb *ProofBundle) { pb.STH = foreignHead },
	} {
		edit = flip
		if err := check(certWithSerial(77)); !errors.Is(err, ErrBadSTH) {
			t.Fatalf("%s: got %v, want ErrBadSTH", name, err)
		}
	}
	edit = nil
	if n := heads.Len(); n != 1 {
		t.Fatalf("memo holds %d heads after refusals, want 1", n)
	}

	if _, err := l.Append(Entry{Type: EntryEnroll, Timestamp: 2, Actor: "fw-1", Serial: "78"}); err != nil {
		t.Fatal(err)
	}
	if err := check(certWithSerial(77)); err != nil {
		t.Fatalf("logged credential rejected after the log moved: %v", err)
	}
	if n := heads.Len(); n != 2 {
		t.Fatalf("memo holds %d heads after the log moved, want 2", n)
	}
}
