package translog

import (
	"crypto/ecdsa"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vnfguard/internal/epid"
	"vnfguard/internal/sgx"
	"vnfguard/internal/simtime"
	"vnfguard/internal/statedir"
)

// testPlatform builds an SGX platform for sealed-anchor tests.
func testPlatform(t *testing.T, opts ...sgx.PlatformOption) *sgx.Platform {
	t.Helper()
	issuer, err := epid.NewIssuer(900)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sgx.NewPlatform("anchor-host", issuer, simtime.ZeroCosts(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testStatedir(t *testing.T) *statedir.Dir {
	t.Helper()
	d, err := statedir.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestAnchorConformance runs every TrustAnchor implementation through
// the shared interface contract: a fresh anchor accepts an empty state;
// committed heads are remembered; a state rewound behind — or
// contradicting — the newest committed head is refused; a state whose
// checkpoint lies past the remembered head, a genesis head included, is
// refused with the anchor's rollback sentinel; re-checking a matching
// state stays accepted.
func TestAnchorConformance(t *testing.T) {
	impls := []struct {
		name     string
		mk       func(t *testing.T, pub *ecdsa.PublicKey) TrustAnchor
		rollback error
	}{
		{"statedir-sth", func(t *testing.T, pub *ecdsa.PublicKey) TrustAnchor {
			return newSTHAnchor(t.TempDir(), pub)
		}, ErrStateRollback},
		{"witness-head", func(t *testing.T, pub *ecdsa.PublicKey) TrustAnchor {
			return NewWitnessAnchor(testStatedir(t), "anchor", pub)
		}, ErrStateRollback},
		{"sealed-counter", func(t *testing.T, pub *ecdsa.PublicKey) TrustAnchor {
			vendor := testSigner(t)
			a, err := NewSealedHeadAnchor(testPlatform(t), vendor,
				filepath.Join(t.TempDir(), SealedHeadFileName), pub)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { a.Close() })
			return a
		}, ErrSealedRollback},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			key := testSigner(t)
			l, err := NewLog(key)
			if err != nil {
				t.Fatal(err)
			}
			genesis := l.STH()
			if _, err := l.AppendBatch(mixedEntries(2)); err != nil {
				t.Fatal(err)
			}
			h1 := l.STH()
			if _, err := l.AppendBatch(mixedEntries(3)); err != nil {
				t.Fatal(err)
			}
			h2 := l.STH()
			treeRoot := func(n uint64) (Hash, error) { return rootAt(l, n) }
			stateAt := func(size uint64) *RecoveredState {
				return &RecoveredState{Size: size, rootAt: treeRoot}
			}

			a := impl.mk(t, &key.PublicKey)
			if err := a.CheckRecovery(stateAt(0)); err != nil {
				t.Fatalf("fresh anchor refused empty state: %v", err)
			}
			if err := a.CommitHead(h1); err != nil {
				t.Fatalf("CommitHead(h1): %v", err)
			}
			if err := a.CheckRecovery(stateAt(h1.Size)); err != nil {
				t.Fatalf("state matching h1 refused: %v", err)
			}
			if err := a.CommitHead(h2); err != nil {
				t.Fatalf("CommitHead(h2): %v", err)
			}
			if err := a.CheckRecovery(stateAt(h2.Size)); err != nil {
				t.Fatalf("state matching h2 refused: %v", err)
			}
			// Newer-than-remembered state is fine (entries beyond the
			// newest head are a legitimate crash artifact).
			if _, err := l.AppendBatch(mixedEntries(1)); err != nil {
				t.Fatal(err)
			}
			if err := a.CheckRecovery(stateAt(h2.Size + 1)); err != nil {
				t.Fatalf("state beyond h2 refused: %v", err)
			}
			// The rewind: a state at h1's size after h2 was committed.
			if err := a.CheckRecovery(stateAt(h1.Size)); err == nil {
				t.Fatal("rewound state accepted")
			}
			// A state at the right size whose root contradicts the
			// remembered head.
			tampered := &RecoveredState{Size: h2.Size, rootAt: func(n uint64) (Hash, error) {
				return Hash{0xde, 0xad}, nil
			}}
			if err := a.CheckRecovery(tampered); err == nil {
				t.Fatal("tampered state accepted")
			}
			// A checkpoint past the remembered head: the state was rewound
			// around a checkpoint no honest chain writes before its head.
			ahead := &RecoveredState{Size: h2.Size + 1, checkpoint: h2.Size + 1, rootAt: treeRoot}
			if err := a.CheckRecovery(ahead); !errors.Is(err, impl.rollback) {
				t.Fatalf("checkpoint past the remembered head: got %v, want %v", err, impl.rollback)
			}
			// The same for an anchor remembering only the genesis head,
			// whose empty root needs no entries to recompute.
			g := impl.mk(t, &key.PublicKey)
			if err := g.CommitHead(genesis); err != nil {
				t.Fatalf("CommitHead(genesis): %v", err)
			}
			if err := g.CheckRecovery(&RecoveredState{Size: h2.Size, checkpoint: h1.Size, rootAt: treeRoot}); !errors.Is(err, impl.rollback) {
				t.Fatalf("checkpoint past a genesis head: got %v, want %v", err, impl.rollback)
			}
			// And the matching state still passes afterwards: refusals
			// must not corrupt the anchor.
			if err := a.CheckRecovery(stateAt(h2.Size)); err != nil {
				t.Fatalf("matching state refused after refusals: %v", err)
			}
		})
	}
}

// TestAnchorConformanceShardedStore runs all three anchors over a
// sharded durable store: every anchor must behave over per-host segment
// streams exactly as over the single stream — clean restarts accepted,
// a whole-store rewind refused — because the anchors see recovered
// sizes and roots, never the WAL layout.
func TestAnchorConformanceShardedStore(t *testing.T) {
	impls := []struct {
		name    string
		mk      func(t *testing.T, dir string, pub *ecdsa.PublicKey) func() []TrustAnchor
		rewound error
	}{
		{"statedir-sth", func(t *testing.T, dir string, pub *ecdsa.PublicKey) func() []TrustAnchor {
			// The built-in anchor alone: a *consistent* rewind fools it,
			// so the conformance check uses a partial rewind (segments
			// only) it must catch.
			return func() []TrustAnchor { return nil }
		}, ErrStateRollback},
		{"witness-head", func(t *testing.T, dir string, pub *ecdsa.PublicKey) func() []TrustAnchor {
			wd := testStatedir(t)
			return func() []TrustAnchor {
				return []TrustAnchor{NewWitnessAnchor(wd, "anchor", pub)}
			}
		}, ErrStateRollback},
		{"sealed-counter", func(t *testing.T, dir string, pub *ecdsa.PublicKey) func() []TrustAnchor {
			platform := testPlatform(t)
			vendor := testSigner(t)
			return func() []TrustAnchor {
				a, err := NewSealedHeadAnchor(platform, vendor,
					filepath.Join(dir, SealedHeadFileName), pub)
				if err != nil {
					t.Fatal(err)
				}
				return []TrustAnchor{a}
			}
		}, ErrSealedRollback},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			key := testSigner(t)
			dir := t.TempDir()
			mk := impl.mk(t, dir, &key.PublicKey)
			cfg := func() StoreConfig {
				return StoreConfig{Shards: 3, SegmentMaxBytes: 1024, Anchors: mk()}
			}
			l, err := OpenDurableLog(key, dir, cfg())
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, hostEntries(120, 5))
			snap := snapshotDir(t, dir)
			grownAt := l.Size()
			appendAll(t, l, hostEntries(80, 5))
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// Clean restart over the interleaved streams: accepted.
			re, err := OpenDurableLog(key, dir, cfg())
			if err != nil {
				t.Fatalf("clean sharded restart refused: %v", err)
			}
			if re.Size() != 200 {
				t.Fatalf("recovered %d entries, want 200", re.Size())
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}

			// The rewind: whole statedir back to the snapshot — for the
			// plain anchor, segments only (a consistent rewind is the
			// witness/sealed anchors' job, pinned below).
			if impl.name == "statedir-sth" {
				sthData, err := os.ReadFile(filepath.Join(dir, sthFileName))
				if err != nil {
					t.Fatal(err)
				}
				restoreDir(t, dir, snap)
				if err := os.WriteFile(filepath.Join(dir, sthFileName), sthData, 0o600); err != nil {
					t.Fatal(err)
				}
			} else {
				restoreDir(t, dir, snap)
			}
			if _, err := OpenDurableLog(key, dir, cfg()); !errors.Is(err, impl.rewound) {
				t.Fatalf("sharded rewind to size %d: got %v, want %v", grownAt, err, impl.rewound)
			}
		})
	}
}

// TestSingleShardAmnesiaRewind is the sharded store's own attack: rewind
// ONE host's segment stream together with sth.json (and the witness
// state) to an earlier snapshot, leaving every other stream intact. The
// result is byte-for-byte indistinguishable from a crash mid-cycle —
// the other streams' newer records sit beyond the restored head with an
// index gap where the rewound stream's records were — so the plain
// anchor accepts it and recovery would trim the surviving history away.
// A witness anchor whose statedir outlived the rewind, and the sealed
// counter even when nothing else survived (total amnesia for that
// shard), must still convict.
func TestSingleShardAmnesiaRewind(t *testing.T) {
	key := testSigner(t)
	platform := testPlatform(t)
	vendor := testSigner(t)
	dir := t.TempDir()
	witnessDir := testStatedir(t)

	mkAnchors := func(sealed bool) []TrustAnchor {
		anchors := []TrustAnchor{NewWitnessAnchor(witnessDir, "w0", &key.PublicKey)}
		if sealed {
			a, err := NewSealedHeadAnchor(platform, vendor,
				filepath.Join(dir, SealedHeadFileName), &key.PublicKey)
			if err != nil {
				t.Fatal(err)
			}
			anchors = append(anchors, a)
		}
		return anchors
	}
	cfg := func(anchors []TrustAnchor) StoreConfig {
		return StoreConfig{Shards: 2, SegmentMaxBytes: 512, Anchors: anchors}
	}

	l, err := OpenDurableLog(key, dir, cfg(mkAnchors(true)))
	if err != nil {
		t.Fatal(err)
	}
	hostA, hostB := hostForShard(t, 2, 0), hostForShard(t, 2, 1)
	grow := func(from, to int) {
		var batch []Entry
		for i := from; i < to; i++ {
			host := hostA
			if i%2 == 1 {
				host = hostB
			}
			batch = append(batch, Entry{Type: EntryAttestOK, Timestamp: int64(i), Actor: fmt.Sprintf("fw-%d", i), Host: host, Detail: "OK"})
		}
		if _, err := l.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	grow(0, 40)
	snapLog := snapshotDir(t, dir)
	snapWitness := snapshotDir(t, witnessDir.Path(""))
	grow(40, 80)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The single-shard rewind: restore shard 0's segments, sth.json and
	// the sealed blob from the snapshot; leave shard 1's stream at its
	// grown state.
	shardZeroRewind := func(witnessToo bool) {
		for name, data := range snapLog {
			if shard, _, ok := parseShardSegmentName(name); ok && shard != 0 {
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		// Shard 0 segments created after the snapshot vanish in the
		// rewind.
		shardFirsts, err := listStreams(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, first := range shardFirsts[0] {
			name := shardSegmentName(0, first)
			if _, ok := snapLog[name]; !ok {
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if witnessToo {
			restoreDir(t, witnessDir.Path(""), snapWitness)
		}
	}
	shardZeroRewind(false)

	// Sanity: with no anchors beyond the built-in head check, the rewind
	// reads as an innocent crash mid-cycle — the open succeeds at the
	// snapshot size. This is the gap the other anchors close; run it on
	// a scratch copy so the trim does not disturb the evidence.
	scratch := t.TempDir()
	for name := range snapshotDir(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(scratch, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	os.Remove(filepath.Join(scratch, SealedHeadFileName))
	blind, err := OpenDurableLog(key, scratch, StoreConfig{Shards: 2, SegmentMaxBytes: 512})
	if err != nil {
		t.Fatalf("single-shard rewind should read as a crash to the plain anchor, got: %v", err)
	}
	if blind.Size() != 40 {
		t.Fatalf("blind open recovered %d entries, want the rewound 40", blind.Size())
	}
	if err := blind.Close(); err != nil {
		t.Fatal(err)
	}

	// The witness anchor's statedir survived: rollback convicted.
	if _, err := OpenDurableLog(key, dir, cfg([]TrustAnchor{NewWitnessAnchor(witnessDir, "w0", &key.PublicKey)})); !errors.Is(err, ErrStateRollback) {
		t.Fatalf("single-shard rewind with surviving witness state: got %v, want ErrStateRollback", err)
	}

	// Total amnesia: the witness state is rewound too. Only the counter
	// in platform NV remembers — ErrSealedRollback.
	shardZeroRewind(true)
	if _, err := OpenDurableLog(key, dir, cfg(mkAnchors(true))); !errors.Is(err, ErrSealedRollback) {
		t.Fatalf("single-shard total-amnesia rewind: got %v, want ErrSealedRollback", err)
	}
}

// TestSealedAnchorTotalAmnesia is the acceptance scenario: segments,
// sth.json, the sealed blob AND every witness's persisted head are
// rewound together — the whole filesystem is self-consistent — and the
// open is still refused, because the monotonic counter in platform NV
// remembers that a newer head was sealed.
func TestSealedAnchorTotalAmnesia(t *testing.T) {
	key := testSigner(t)
	platform := testPlatform(t)
	vendor := testSigner(t)
	dir := t.TempDir()
	witnessDir := testStatedir(t)

	mkAnchors := func() []TrustAnchor {
		sealed, err := NewSealedHeadAnchor(platform, vendor,
			filepath.Join(dir, SealedHeadFileName), &key.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
		return []TrustAnchor{
			NewWitnessAnchor(witnessDir, "w0", &key.PublicKey),
			sealed,
		}
	}

	l, err := OpenDurableLog(key, dir, StoreConfig{Anchors: mkAnchors()})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(5))
	snapLog := snapshotDir(t, dir)
	snapWitness := snapshotDir(t, witnessDir.Path(""))
	appendAll(t, l, mixedEntries(3))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The total rewind: log statedir and witness statedir restored to
	// the size-5 snapshot, sealed blob included.
	restoreDir(t, dir, snapLog)
	restoreDir(t, witnessDir.Path(""), snapWitness)

	// Sanity: without the sealed anchor the rewound state is perfectly
	// consistent — the plain head check and even the rewound witness
	// accept it. This is the attack the counter exists to catch.
	noSealed, err := OpenDurableLog(key, dir, StoreConfig{
		Anchors: []TrustAnchor{NewWitnessAnchor(witnessDir, "w0", &key.PublicKey)},
	})
	if err != nil {
		t.Fatalf("consistent rewind should fool every disk-rooted anchor, got: %v", err)
	}
	if noSealed.Size() != 5 {
		t.Fatalf("rewound log has %d entries, want 5", noSealed.Size())
	}
	if err := noSealed.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenDurableLog(key, dir, StoreConfig{Anchors: mkAnchors()}); !errors.Is(err, ErrSealedRollback) {
		t.Fatalf("total-amnesia rewind: got %v, want ErrSealedRollback", err)
	}
}

// TestSealedAnchorCleanRestart: closing and reopening with a fresh
// anchor enclave on the same platform is not a rollback.
func TestSealedAnchorCleanRestart(t *testing.T) {
	key := testSigner(t)
	platform := testPlatform(t)
	vendor := testSigner(t)
	dir := t.TempDir()
	path := filepath.Join(dir, SealedHeadFileName)

	mk := func() []TrustAnchor {
		a, err := NewSealedHeadAnchor(platform, vendor, path, &key.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
		return []TrustAnchor{a}
	}
	l, err := OpenDurableLog(key, dir, StoreConfig{Anchors: mk()})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(64))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurableLog(key, dir, StoreConfig{Anchors: mk()})
	if err != nil {
		t.Fatalf("clean restart refused: %v", err)
	}
	if re.Size() != 64 {
		t.Fatalf("recovered %d entries, want 64", re.Size())
	}
	appendAll(t, re, mixedEntries(8))
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSealedAnchorCrashHeal simulates the commit protocol's only crash
// window — blob persisted, counter increment lost — and checks recovery
// accepts the state and heals the counter instead of raising a false
// rollback verdict.
func TestSealedAnchorCrashHeal(t *testing.T) {
	key := testSigner(t)
	platform := testPlatform(t)
	vendor := testSigner(t)
	dir := t.TempDir()
	path := filepath.Join(dir, SealedHeadFileName)

	a, err := NewSealedHeadAnchor(platform, vendor, path, &key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(mixedEntries(4)); err != nil {
		t.Fatal(err)
	}
	h1 := l.STH()
	if err := a.CommitHead(h1); err != nil {
		t.Fatal(err)
	}

	// The "crash": seal and persist the next head, skip the bump.
	if _, err := l.AppendBatch(mixedEntries(2)); err != nil {
		t.Fatal(err)
	}
	h2 := l.STH()
	raw, err := a.enclave.ECall(ecallSealedCommit, mustJSON(sealedCommitArgs{
		Counter: a.counter, TreeSize: h2.Size, RootHash: h2.RootHash, AAD: a.aad,
	}))
	if err != nil {
		t.Fatal(err)
	}
	var rep sealedCommitReply
	mustUnmarshal(t, raw, &rep)
	if err := a.writeBlob(rep.Blob); err != nil {
		t.Fatal(err)
	}

	state := &RecoveredState{Size: h2.Size, rootAt: func(n uint64) (Hash, error) { return rootAt(l, n) }}
	if err := a.CheckRecovery(state); err != nil {
		t.Fatalf("crash window raised a false verdict: %v", err)
	}
	// Healed: a second check passes (counter now matches the blob), and
	// the next commit continues the sequence.
	if err := a.CheckRecovery(state); err != nil {
		t.Fatalf("post-heal check: %v", err)
	}
	if _, err := l.AppendBatch(mixedEntries(1)); err != nil {
		t.Fatal(err)
	}
	if err := a.CommitHead(l.STH()); err != nil {
		t.Fatalf("commit after heal: %v", err)
	}
	// But a rewind behind the healed head is still refused.
	if err := a.CheckRecovery(&RecoveredState{Size: h1.Size,
		rootAt: func(n uint64) (Hash, error) { return rootAt(l, n) }}); !errors.Is(err, ErrSealedRollback) {
		t.Fatalf("rewind after heal: got %v, want ErrSealedRollback", err)
	}
}

// TestSealedAnchorErrorMapping is the operator-facing error table: each
// way a sealed head can fail to open surfaces its own distinct
// sentinel, so "enclave downgraded" is never confused with "statedir
// copied to another machine" or with an actual rollback.
func TestSealedAnchorErrorMapping(t *testing.T) {
	type setup struct {
		check func(t *testing.T) error // runs CheckRecovery on a prepared scene
	}
	key := testSigner(t)
	vendor := testSigner(t)

	// seedScene commits one head with an anchor at the given SVN and
	// returns the shared pieces.
	seedScene := func(t *testing.T, platform *sgx.Platform, svn uint16) (string, *Log) {
		t.Helper()
		dir := t.TempDir()
		a, err := newSealedHeadAnchor(platform, vendor,
			filepath.Join(dir, SealedHeadFileName), &key.PublicKey, svn)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		l, err := NewLog(key)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendBatch(mixedEntries(3)); err != nil {
			t.Fatal(err)
		}
		if err := a.CommitHead(l.STH()); err != nil {
			t.Fatal(err)
		}
		return dir, l
	}
	checkWith := func(t *testing.T, platform *sgx.Platform, svn uint16, dir string, l *Log) error {
		t.Helper()
		a, err := newSealedHeadAnchor(platform, vendor,
			filepath.Join(dir, SealedHeadFileName), &key.PublicKey, svn)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		return a.CheckRecovery(&RecoveredState{Size: l.Size(),
			rootAt: func(n uint64) (Hash, error) { return rootAt(l, n) }})
	}

	for _, tc := range []struct {
		name string
		want error // nil = must succeed
		run  func(t *testing.T) error
	}{
		{
			// The upgrade path must stay readable: same measurement,
			// higher SVN (pins the sgx error-mapping fix).
			name: "enclave upgraded reads old blob",
			want: nil,
			run: func(t *testing.T) error {
				p := testPlatform(t)
				dir, l := seedScene(t, p, 1)
				return checkWith(t, p, 2, dir, l)
			},
		},
		{
			name: "enclave downgraded: SVN rollback",
			want: sgx.ErrSealSVNRollback,
			run: func(t *testing.T) error {
				p := testPlatform(t)
				dir, l := seedScene(t, p, 2)
				return checkWith(t, p, 1, dir, l)
			},
		},
		{
			name: "statedir copied to another machine: wrong key",
			want: sgx.ErrSealWrongKey,
			run: func(t *testing.T) error {
				dir, l := seedScene(t, testPlatform(t), 1)
				return checkWith(t, testPlatform(t), 1, dir, l)
			},
		},
		{
			name: "sealed blob corrupted: wrong key",
			want: sgx.ErrSealWrongKey,
			run: func(t *testing.T) error {
				p := testPlatform(t)
				dir, l := seedScene(t, p, 1)
				path := filepath.Join(dir, SealedHeadFileName)
				blob, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				blob[len(blob)-1] ^= 0x01
				if err := os.WriteFile(path, blob, 0o600); err != nil {
					t.Fatal(err)
				}
				return checkWith(t, p, 1, dir, l)
			},
		},
		{
			name: "sealed blob deleted: rollback",
			want: ErrSealedRollback,
			run: func(t *testing.T) error {
				p := testPlatform(t)
				dir, l := seedScene(t, p, 1)
				if err := os.Remove(filepath.Join(dir, SealedHeadFileName)); err != nil {
					t.Fatal(err)
				}
				return checkWith(t, p, 1, dir, l)
			},
		},
		{
			name: "stale blob restored: rollback",
			want: ErrSealedRollback,
			run: func(t *testing.T) error {
				p := testPlatform(t)
				dir, l := seedScene(t, p, 1)
				path := filepath.Join(dir, SealedHeadFileName)
				stale, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				// Commit a newer head, then restore the stale blob.
				a, err := newSealedHeadAnchor(p, vendor, path, &key.PublicKey, 1)
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				if _, err := l.AppendBatch(mixedEntries(2)); err != nil {
					t.Fatal(err)
				}
				if err := a.CommitHead(l.STH()); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, stale, 0o600); err != nil {
					t.Fatal(err)
				}
				return checkWith(t, p, 1, dir, l)
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("got %v, want success", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			// Distinctness: exactly one of the three sentinels matches.
			matches := 0
			for _, sentinel := range []error{sgx.ErrSealSVNRollback, sgx.ErrSealWrongKey, ErrSealedRollback} {
				if errors.Is(err, sentinel) {
					matches++
				}
			}
			if matches != 1 {
				t.Fatalf("error %v matches %d sentinels, want exactly 1", err, matches)
			}
		})
	}
}

// TestSealedAnchorHealsLaggingPinAtOpen: a crash between sth.json's
// persist and the sealed anchor's commit leaves the sealed pin one
// batch behind the (non-stale) persisted head. The next successful
// open must re-commit the head through the whole anchor chain, so a
// later rewind to the lagging pin's snapshot is still convicted.
func TestSealedAnchorHealsLaggingPinAtOpen(t *testing.T) {
	key := testSigner(t)
	platform := testPlatform(t)
	vendor := testSigner(t)
	dir := t.TempDir()
	mk := func() []TrustAnchor {
		a, err := NewSealedHeadAnchor(platform, vendor,
			filepath.Join(dir, SealedHeadFileName), &key.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
		return []TrustAnchor{a}
	}

	l, err := OpenDurableLog(key, dir, StoreConfig{Anchors: mk()})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(4))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap := snapshotDir(t, dir) // blob pins size 4, counter in step

	// The "crash window": segments and sth.json advance to size 6 but
	// the sealed anchor never sees the commit — exactly the on-disk
	// state a crash between the two anchors leaves behind.
	crashed, err := OpenDurableLog(key, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, crashed, mixedEntries(2))
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery accepts the lagging pin (size 4 ≤ 6, roots match) and
	// must heal it to pin size 6.
	healed, err := OpenDurableLog(key, dir, StoreConfig{Anchors: mk()})
	if err != nil {
		t.Fatalf("crash-lagged pin refused an honest open: %v", err)
	}
	if err := healed.Close(); err != nil {
		t.Fatal(err)
	}

	// The rewind to the lagging snapshot: before the heal this passed
	// every anchor (blob and counter both at the old state); now the
	// re-committed pin convicts it.
	restoreDir(t, dir, snap)
	if _, err := OpenDurableLog(key, dir, StoreConfig{Anchors: mk()}); !errors.Is(err, ErrSealedRollback) {
		t.Fatalf("rewind to crash-lagged snapshot: got %v, want ErrSealedRollback", err)
	}
}

// TestHeadlessTornStoreRefused: deleting sth.json and tearing the lone
// segment down to a partial first record leaves zero decodable entries
// — but the segment file itself proves a genesis head once existed, so
// the open must refuse as tampering rather than re-sign a fresh log.
func TestHeadlessTornStoreRefused(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(10))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, sthFileName)); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, shardSegmentName(0, 0)), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurableLog(key, dir, StoreConfig{}); !errors.Is(err, ErrStateTampered) {
		t.Fatalf("headless torn store: got %v, want ErrStateTampered", err)
	}
}

// TestWitnessAnchorConvictsConsistentRewind: rewinding the log statedir
// (segments + sth.json together) fools the built-in head check but not
// a witness anchor whose statedir survived — and the head the anchor
// persisted is exactly what a gossiping witness restores.
func TestWitnessAnchorConvictsConsistentRewind(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	witnessDir := testStatedir(t)
	anchors := func() []TrustAnchor {
		return []TrustAnchor{NewWitnessAnchor(witnessDir, "w0", &key.PublicKey)}
	}

	l, err := OpenDurableLog(key, dir, StoreConfig{Anchors: anchors()})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, mixedEntries(5))
	snap := snapshotDir(t, dir)
	appendAll(t, l, mixedEntries(3))
	grown := l.STH()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Interop: a gossiping witness opened over the anchor's statedir
	// remembers the newest committed head without a single exchange.
	w, err := OpenWitnessState(witnessDir, "w0", &key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if last, seen := w.Last(); !seen || last.Size != grown.Size {
		t.Fatalf("witness restored size %d (seen=%v), want %d", last.Size, seen, grown.Size)
	}

	restoreDir(t, dir, snap)
	if _, err := OpenDurableLog(key, dir, StoreConfig{Anchors: anchors()}); !errors.Is(err, ErrStateRollback) {
		t.Fatalf("consistent rewind with surviving witness state: got %v, want ErrStateRollback", err)
	}
	// Without the witness anchor the same rewind opens cleanly: the gap
	// the anchor closes.
	re, err := OpenDurableLog(key, dir, StoreConfig{})
	if err != nil {
		t.Fatalf("rewound statedir should be locally consistent: %v", err)
	}
	re.Close()
}

func mustUnmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
}
