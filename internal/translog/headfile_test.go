package translog

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"vnfguard/internal/statedir"
)

// TestAnchorPinRaceNeverRewinds races a commit of an older head against
// a commit of a newer one on the anchor that persists a head file. It
// must hold its lock across the write, or the older head's file can land
// last and a reopened anchor accepts a rewind to it.
func TestAnchorPinRaceNeverRewinds(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(mixedEntries(3)); err != nil {
		t.Fatal(err)
	}
	h1 := l.STH()
	if _, err := l.AppendBatch(mixedEntries(2)); err != nil {
		t.Fatal(err)
	}
	h2 := l.STH()
	rewound := &RecoveredState{Size: h1.Size, rootAt: func(n uint64) (Hash, error) { return rootAt(l, n) }}

	// older commits h1, newer commits h2, reopen returns a fresh anchor
	// over the same statedir.
	type racer struct {
		older, newer func() error
		reopen       func() TrustAnchor
	}
	impls := []struct {
		name string
		mk   func(dir *statedir.Dir) racer
	}{
		{"witness-head", func(dir *statedir.Dir) racer {
			a := NewWitnessAnchor(dir, "anchor", &key.PublicKey)
			return racer{
				older:  func() error { return a.CommitHead(h1) },
				newer:  func() error { return a.CommitHead(h2) },
				reopen: func() TrustAnchor { return NewWitnessAnchor(dir, "anchor", &key.PublicKey) },
			}
		}},
	}
	const rounds = 200
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			base := t.TempDir()
			for round := 0; round < rounds; round++ {
				dir, err := statedir.Open(filepath.Join(base, fmt.Sprint(round)))
				if err != nil {
					t.Fatal(err)
				}
				r := impl.mk(dir)
				var wg sync.WaitGroup
				errs := make([]error, 2)
				wg.Add(2)
				go func() { defer wg.Done(); errs[0] = r.older() }()
				go func() { defer wg.Done(); errs[1] = r.newer() }()
				wg.Wait()
				if err := errors.Join(errs...); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if err := r.reopen().CheckRecovery(rewound); !errors.Is(err, ErrStateRollback) {
					t.Fatalf("round %d: reopened anchor on a rewind to h1: got %v, want ErrStateRollback", round, err)
				}
			}
		})
	}
}

// fixedKey derives a P-256 key from a repeated seed byte, so the
// checked-in FuzzHeadFile corpus can carry heads that verify on every
// run.
func fixedKey(t testing.TB, seed byte) *ecdsa.PrivateKey {
	t.Helper()
	k, err := ecdh.P256().NewPrivateKey(bytes.Repeat([]byte{seed}, 32))
	if err != nil {
		t.Fatal(err)
	}
	der, err := x509.MarshalPKCS8PrivateKey(k)
	if err != nil {
		t.Fatal(err)
	}
	key, err := x509.ParsePKCS8PrivateKey(der)
	if err != nil {
		t.Fatal(err)
	}
	return key.(*ecdsa.PrivateKey)
}

// headFileFixture is what FuzzHeadFile feeds each input against: the
// fixed log key, the reference log of headFileEntries entries, and a
// durable store holding the same entries, minus its sth.json.
type headFileFixture struct {
	key   *ecdsa.PrivateKey
	ref   *Log
	store map[string][]byte
}

const headFileEntries = 3

func newHeadFileFixture(t testing.TB) *headFileFixture {
	t.Helper()
	fx := &headFileFixture{key: fixedKey(t, 1)}
	var err error
	if fx.ref, err = NewLog(fx.key); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.ref.AppendBatch(mixedEntries(headFileEntries)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l, err := OpenDurableLog(fx.key, dir, StoreConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(mixedEntries(headFileEntries)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fx.store = make(map[string][]byte)
	for _, e := range names {
		if e.Name() == sthFileName {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fx.store[e.Name()] = data
	}
	return fx
}

// consistent reports whether sth is a log-signed head the reference
// log's first entries hash to: a head no honest recovery may refuse.
func (fx *headFileFixture) consistent(sth SignedTreeHead) bool {
	if sth.Verify(&fx.key.PublicKey) != nil || sth.Size > headFileEntries {
		return false
	}
	root, err := rootAt(fx.ref, sth.Size)
	return err == nil && root == sth.RootHash
}

// FuzzHeadFile feeds arbitrary bytes in as every remembered head file:
// the store's sth.json and a witness's head (read by both a WitnessAnchor
// and OpenWitnessState — a relying party's quorum-head pin included). No
// input may panic; every refusal must be one of the named state
// sentinels; and a file is accepted only when its head verifies under
// the log key. The store and both witness readers must give the same bad
// file the same sentinel.
func FuzzHeadFile(f *testing.F) {
	fx := newHeadFileFixture(f)
	pub := &fx.key.PublicKey
	state := &RecoveredState{Size: headFileEntries, rootAt: func(n uint64) (Hash, error) { return rootAt(fx.ref, n) }}
	named := func(err error) bool {
		return errors.Is(err, ErrStateCorrupt) || errors.Is(err, ErrStateTampered) || errors.Is(err, ErrStateRollback)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sth SignedTreeHead
		decoded := json.Unmarshal(data, &sth) == nil

		// As the witness head, read by OpenWitnessState and a WitnessAnchor.
		dir, err := statedir.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := dir.Write(witnessHeadFile("w"), data); err != nil {
			t.Fatal(err)
		}
		w, werr := OpenWitnessState(dir, "w", pub)
		switch {
		case werr == nil:
			if !decoded || sth.Verify(pub) != nil {
				t.Fatalf("witness restored a head the log key did not sign: %q", data)
			}
			if last, seen := w.Last(); !seen || last.Size != sth.Size || last.RootHash != sth.RootHash {
				t.Fatalf("witness restored %+v (seen=%v), file holds %+v", last, seen, sth)
			}
		case !errors.Is(werr, ErrStateCorrupt) && !errors.Is(werr, ErrStateTampered):
			t.Fatalf("witness state refusal not named: %v", werr)
		}
		aerr := NewWitnessAnchor(dir, "w", pub).CheckRecovery(state)
		if aerr == nil && !fx.consistent(sth) {
			t.Fatalf("witness anchor accepted %q", data)
		}
		if aerr != nil && !named(aerr) {
			t.Fatalf("witness anchor refusal not named: %v", aerr)
		}
		sameRefusal := func(who string, err error) {
			for _, s := range []error{ErrStateCorrupt, ErrStateTampered} {
				if errors.Is(werr, s) && !errors.Is(err, s) {
					t.Fatalf("witness state refused with %v, %s with %v", werr, who, err)
				}
			}
		}
		sameRefusal("witness anchor", aerr)

		// As the store's own sth.json beside valid segments.
		storeDir := t.TempDir()
		for name, body := range fx.store {
			if err := os.WriteFile(filepath.Join(storeDir, name), body, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(storeDir, sthFileName), data, 0o600); err != nil {
			t.Fatal(err)
		}
		l, serr := OpenDurableLog(fx.key, storeDir, StoreConfig{NoSync: true})
		if serr == nil {
			l.Close()
			if !fx.consistent(sth) {
				t.Fatalf("store opened under sth.json %q", data)
			}
		} else if !named(serr) {
			t.Fatalf("store refusal not named: %v", serr)
		}
		sameRefusal("store", serr)
	})
}

// cursorRefusals are persisted shard-cursor files a witness refuses, each
// with its sentinel.
var cursorRefusals = []struct {
	name, data string
	want       error
}{
	{"truncated", `{"0":`, ErrStateCorrupt},
	{"shard key", `{"x":{"count":0}}`, ErrStateCorrupt},
	{"null cursor", `{"0":null}`, ErrStateCorrupt},
	{"unsigned head", `{"0":{"count":1,"head":{"size":1,"signature":"AA=="}}}`, ErrStateTampered},
}

// TestRestoreCursorsRefusalsNamed: a witness's persisted shard cursors
// are refused with the same sentinels as its head file — undecodable is
// ErrStateCorrupt, a cursor head the log key did not sign is
// ErrStateTampered.
func TestRestoreCursorsRefusalsNamed(t *testing.T) {
	key := testSigner(t)
	for _, tc := range cursorRefusals {
		if err := NewWitness(&key.PublicKey).restoreCursors([]byte(tc.data)); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestOpenWitnessStateRefusesBadCursors: the one opener of a witness's
// state restores its shard cursors beside its head, so a corrupt or
// tampered cursor file refuses the open with the sentinels
// TestRestoreCursorsRefusalsNamed pins, and cursors an audit persisted
// come back on reopen.
func TestOpenWitnessStateRefusesBadCursors(t *testing.T) {
	l, key := shardedTestLog(t, 2, 4, 3)
	pub := &key.PublicKey
	for _, tc := range cursorRefusals {
		dir := testStatedir(t)
		if err := dir.Write(witnessCursorFile("w0"), []byte(tc.data)); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenWitnessState(dir, "w0", pub); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	dir := testStatedir(t)
	w, err := OpenWitnessState(dir, "w0", pub)
	if err != nil {
		t.Fatal(err)
	}
	w.SetAssignedShards([]int{0, 1})
	if caughtUp, err := w.AuditShards(l.STH(), logProofs(l), 0); err != nil || !caughtUp {
		t.Fatalf("audit: caught up %v, err %v", caughtUp, err)
	}
	re, err := OpenWitnessState(dir, "w0", pub)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.shardMarks(), w.shardMarks(); len(want) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened cursors %+v, want the audited %+v", got, want)
	}
}
