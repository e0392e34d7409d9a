package translog

import (
	"bytes"
	"crypto/ecdsa"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vnfguard/internal/statedir"
)

// testPool spins up a named witness with a gossip HTTP endpoint, watching
// the log served at logURL. Returns the pool and its own gossip URL.
func testPool(t *testing.T, name string, pub *ecdsa.PublicKey, logURL string) (*GossipPool, string) {
	t.Helper()
	p := NewGossipPool(name, NewWitness(pub), NewClient(logURL, pub))
	srv := httptest.NewServer(GossipHandler(p))
	t.Cleanup(srv.Close)
	return p, srv.URL
}

// gossipTo serves w's side of head gossip (a pool watching the log at
// logURL) and returns a function that offers it one peer head over
// POST /translog/v1/gossip — the path a remembered head takes into a
// witness.
func gossipTo(t *testing.T, w *Witness, logURL string) func(SignedTreeHead) error {
	t.Helper()
	srv := httptest.NewServer(GossipHandler(NewGossipPool("receiver", w, NewClient(logURL, w.pub))))
	t.Cleanup(srv.Close)
	peer := NewClient(srv.URL, w.pub)
	return func(head SignedTreeHead) error {
		_, err := peer.exchangeView(wireGossip{Name: "peer", Seen: true, Head: head})
		return err
	}
}

// TestGossipConvergence: N witnesses, only some of which saw the log
// grow, converge on the newest head through gossip exchanges alone.
func TestGossipConvergence(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	logSrv := httptest.NewServer(Handler(l))
	defer logSrv.Close()

	pools := make([]*GossipPool, 3)
	urls := make([]string, 3)
	for i := range pools {
		pools[i], urls[i] = testPool(t, fmt.Sprintf("w%d", i), &key.PublicKey, logSrv.URL)
	}
	// Ring topology: w0→w1→w2→w0. Convergence must not need a full mesh.
	for i := range pools {
		pools[i].AddPeer(NewClient(urls[(i+1)%len(urls)], &key.PublicKey))
	}

	// Everyone anchors at genesis.
	for _, p := range pools {
		if err := p.Exchange(); err != nil {
			t.Fatal(err)
		}
	}
	// The log grows; only w0 polls it (the others' view must come from
	// gossip). Detach w1/w2 from the log so adoption is gossip-driven —
	// they keep the log client for consistency proofs only.
	if _, err := l.AppendBatch([]Entry{testEntry(0), testEntry(1), testEntry(2)}); err != nil {
		t.Fatal(err)
	}
	want := l.STH()
	if err := pools[0].Witness().Advance(want, pools[0].proofs.ConsistencyProof); err != nil {
		t.Fatal(err)
	}
	// w0 exchanges with w1 (pushes its head), then w1 with w2.
	for _, p := range []*GossipPool{pools[0], pools[1], pools[2]} {
		if err := p.Exchange(); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range pools {
		last, seen := p.Witness().Last()
		if !seen || last.Size != want.Size || last.RootHash != want.RootHash {
			t.Fatalf("w%d did not converge: seen=%v size=%d want %d", i, seen, last.Size, want.Size)
		}
		if p.Conflict() != nil {
			t.Fatalf("w%d latched a conflict on an honest log: %v", i, p.Conflict())
		}
	}
}

// snapshotDir captures a directory's files so a test can "restore from an
// old snapshot" — the consistent local rollback the gossip network exists
// to catch.
func snapshotDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := make(map[string][]byte)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		snap[e.Name()] = data
	}
	return snap
}

func restoreDir(t *testing.T, dir string, snap map[string][]byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range snap {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGossipCatchesConsistentRollback is the acceptance scenario: the
// log's statedir (WAL segments *and* persisted signed head together) is
// rewound to an earlier consistent state. The open succeeds — locally
// nothing is wrong — and a witness with no memory and no peers anchors
// happily (undetected). A peer that remembers the newer head convicts
// the log with ErrRollback and both signed heads as evidence.
func TestGossipCatchesConsistentRollback(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()

	l, err := OpenDurableLog(key, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch([]Entry{testEntry(0), testEntry(1), testEntry(2), testEntry(3), testEntry(4)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap := snapshotDir(t, dir) // the attacker's "old snapshot" at size 5

	l, err = OpenDurableLog(key, dir, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch([]Entry{testEntry(5), testEntry(6), testEntry(7)}); err != nil {
		t.Fatal(err)
	}
	grown := l.STH() // size 8, witnessed by the peer before the rewind
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The rewind: segments and signed head restored together, then a
	// "restart". The open succeeds — the state is self-consistent.
	restoreDir(t, dir, snap)
	rolled, err := OpenDurableLog(key, dir, StoreConfig{})
	if err != nil {
		t.Fatalf("consistent rollback refused locally (should need peers): %v", err)
	}
	defer rolled.Close()
	if rolled.Size() != 5 {
		t.Fatalf("rolled-back log has %d entries, want 5", rolled.Size())
	}
	logSrv := httptest.NewServer(Handler(rolled))
	defer logSrv.Close()

	// Zero peers, no memory: the rollback is undetectable.
	amnesiac, amnesiacURL := testPool(t, "amnesiac", &key.PublicKey, logSrv.URL)
	if err := amnesiac.Exchange(); err != nil {
		t.Fatalf("amnesiac witness with zero peers must not detect the rollback (it can't): %v", err)
	}
	if amnesiac.Conflict() != nil {
		t.Fatalf("amnesiac witness convicted without evidence: %v", amnesiac.Conflict())
	}

	// A peer that witnessed the grown head — and persisted it across its
	// own restart — convicts via direct poll.
	peerDir, err := statedir.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := NewWitnessAnchor(peerDir, "remember", &key.PublicKey).CommitHead(grown); err != nil {
		t.Fatal(err)
	}
	remember, err := OpenWitnessState(peerDir, "remember", &key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	pollErr := remember.Advance(rolled.STH(), logProofs(rolled).ConsistencyProof)
	var ce *ConflictError
	if !errors.As(pollErr, &ce) || !errors.Is(pollErr, ErrRollback) {
		t.Fatalf("remembering witness did not convict: %v", pollErr)
	}
	if ce.Have.Size != 8 || ce.Got.Size != 5 {
		t.Fatalf("evidence heads %d/%d, want 8/5", ce.Have.Size, ce.Got.Size)
	}
	if err := ce.Verify(&key.PublicKey); err != nil {
		t.Fatalf("evidence does not self-certify: %v", err)
	}

	// And the amnesiac witness convicts the moment a peer gossips the
	// remembered head to it: served(5) < peer-remembered(8).
	_, err = NewClient(amnesiacURL, &key.PublicKey).exchangeView(wireGossip{Name: "remember", Seen: true, Head: grown})
	if !errors.Is(err, ErrRollback) {
		t.Fatalf("gossiped head did not convict the rolled-back log: %v", err)
	}
	if amnesiac.Conflict() == nil {
		t.Fatal("conviction not latched")
	}
	if got := amnesiac.Conflict(); got.Have.Size != 8 || got.Got.Size != 5 {
		t.Fatalf("latched evidence %d/%d, want 8/5", got.Have.Size, got.Got.Size)
	}
	if err := amnesiac.Conflict().Verify(&key.PublicKey); err != nil {
		t.Fatalf("latched evidence does not verify: %v", err)
	}
}

// TestGossipEvidenceRoundTrip: a conviction raised server-side travels
// the wire as HTTP 409 and reconstructs client-side as the same
// errors.Is-able ConflictError with both signed heads intact.
func TestGossipEvidenceRoundTrip(t *testing.T) {
	key := testSigner(t)
	honest, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := honest.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The receiving witness follows the honest log.
	logSrv := httptest.NewServer(Handler(honest))
	defer logSrv.Close()
	p, gossipURL := testPool(t, "upright", &key.PublicKey, logSrv.URL)
	if err := p.Exchange(); err != nil {
		t.Fatal(err)
	}

	// A forked log of the same size, signed by the same (stolen) key.
	forked, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 106; i++ {
		if _, err := forked.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	peer := NewClient(gossipURL, &key.PublicKey)
	_, _, err = peer.ExchangeGossip("forker", forked.STH(), true)
	var ce *ConflictError
	if !errors.As(err, &ce) || !errors.Is(err, ErrSplitView) {
		t.Fatalf("want split-view ConflictError over the wire, got %v", err)
	}
	if ce.Have.Size != 6 || ce.Got.Size != 6 || ce.Have.RootHash == ce.Got.RootHash {
		t.Fatalf("evidence heads wrong: have size=%d got size=%d", ce.Have.Size, ce.Got.Size)
	}
	if err := ce.Verify(&key.PublicKey); err != nil {
		t.Fatalf("round-tripped evidence does not verify: %v", err)
	}
	// The server latched the same conviction.
	if p.Conflict() == nil || !errors.Is(p.Conflict(), ErrSplitView) {
		t.Fatalf("server did not latch the conviction: %v", p.Conflict())
	}
}

// TestWitnessStatePersistsAcrossRestart: a witness restarted from its
// statedir remembers its last-accepted head (no amnesia) and convicts a
// log that rolled back while it was down.
func TestWitnessStatePersistsAcrossRestart(t *testing.T) {
	key := testSigner(t)
	dir, err := statedir.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWitnessState(dir, "w0", &key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	fetch := logProofs(l).ConsistencyProof
	if err := w.Advance(l.STH(), fetch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := l.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Advance(l.STH(), fetch); err != nil {
		t.Fatal(err)
	}
	want := l.STH()

	// "Restart": a fresh witness from the same statedir holds the head.
	re, err := OpenWitnessState(dir, "w0", &key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	last, seen := re.Last()
	if !seen || last.Size != want.Size || last.RootHash != want.RootHash {
		t.Fatalf("restarted witness forgot its head: seen=%v size=%d want %d", seen, last.Size, want.Size)
	}

	// A different name is a different witness: no crosstalk.
	other, err := OpenWitnessState(dir, "w1", &key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, seen := other.Last(); seen {
		t.Fatal("fresh witness inherited another witness's head")
	}

	// The restarted witness convicts a log that re-serves older history.
	shrunk, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := shrunk.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	err = re.Advance(shrunk.STH(), logProofs(shrunk).ConsistencyProof)
	if !errors.Is(err, ErrRollback) {
		t.Fatalf("restarted witness accepted a rollback: %v", err)
	}

	// A tampered persisted head must not restore.
	if err := dir.Write(witnessHeadFile("w0"), []byte(`{"size":99,"root_hash":"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA=","timestamp":1,"signature":"AA=="}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWitnessState(dir, "w0", &key.PublicKey); !errors.Is(err, ErrStateTampered) {
		t.Fatalf("tampered persisted head: got %v, want ErrStateTampered", err)
	}
}

// TestGossipRejectsJunkHeads: malicious peers sending garbage — malformed
// JSON, heads with invalid signatures, forged claims — are rejected with
// 4xx and never move witness state.
func TestGossipRejectsJunkHeads(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	logSrv := httptest.NewServer(Handler(l))
	defer logSrv.Close()
	p, gossipURL := testPool(t, "target", &key.PublicKey, logSrv.URL)
	if err := p.Exchange(); err != nil {
		t.Fatal(err)
	}
	before, _ := p.Witness().Last()

	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(gossipURL+pathGossip, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := post([]byte("{not json")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	// A head "signed" by a different key: forged.
	otherKey := testSigner(t)
	forgedLog, err := NewLog(otherKey)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := forgedLog.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	forged := forgedLog.STH()
	body, _ := marshalWireGossip(t, "evil", forged, true)
	if resp := post(body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("forged-signature head: status %d, want 400", resp.StatusCode)
	}

	// A syntactically fine head whose signature bytes are corrupted.
	corrupt := l.STH()
	corrupt.Signature = append([]byte(nil), corrupt.Signature...)
	corrupt.Signature[len(corrupt.Signature)/2] ^= 0xff
	body, _ = marshalWireGossip(t, "evil", corrupt, true)
	if resp := post(body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt-signature head: status %d, want 400", resp.StatusCode)
	}

	after, _ := p.Witness().Last()
	if after.Size != before.Size || after.RootHash != before.RootHash || after.Timestamp != before.Timestamp {
		t.Fatalf("junk heads moved witness state: %+v → %+v", before, after)
	}
	if p.Conflict() != nil {
		t.Fatalf("junk heads latched a conviction: %v", p.Conflict())
	}

	// Honest gossip still works after the abuse.
	if _, err := l.Append(testEntry(99)); err != nil {
		t.Fatal(err)
	}
	if err := p.Exchange(); err != nil {
		t.Fatal(err)
	}
	if last, _ := p.Witness().Last(); last.Size != 5 {
		t.Fatalf("witness stuck at %d after junk, want 5", last.Size)
	}
}

// TestGossipRefusalNamed: a witness refusing a view answers with the
// one 400 refusal body, and the client surfaces the sentinel behind it
// — a badly signed head is ErrBadSTH at the sender, not a status
// string. A malformed view is refused with no sentinel, and neither
// moves the witness.
func TestGossipRefusalNamed(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(mixedEntries(4)); err != nil {
		t.Fatal(err)
	}
	logSrv := httptest.NewServer(Handler(l))
	defer logSrv.Close()
	p, gossipURL := testPool(t, "target", &key.PublicKey, logSrv.URL)
	if err := p.Exchange(); err != nil {
		t.Fatal(err)
	}
	peer := NewClient(gossipURL, &key.PublicKey)
	forged := l.STH()
	forged.Signature = append([]byte(nil), forged.Signature...)
	forged.Signature[len(forged.Signature)/2] ^= 0xff
	if _, _, err := peer.ExchangeGossip("evil", forged, true); !errors.Is(err, ErrBadSTH) {
		t.Fatalf("badly signed head: got %v, want ErrBadSTH", err)
	}
	resp, err := http.Post(gossipURL+pathGossip, "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	var rej wireRefusal
	err = json.NewDecoder(resp.Body).Decode(&rej)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusBadRequest || rej.Code != "" {
		t.Fatalf("malformed view: status %d, body %+v (%v)", resp.StatusCode, rej, err)
	}
	if last, _ := p.Witness().Last(); last.Size != 4 || p.Conflict() != nil {
		t.Fatalf("refused views moved the witness: size %d, conflict %v", last.Size, p.Conflict())
	}
}

func marshalWireGossip(t *testing.T, name string, head SignedTreeHead, seen bool) ([]byte, error) {
	t.Helper()
	return json.Marshal(wireGossip{Name: name, Seen: seen, Head: head})
}

// TestGossipResistsFabricatedConvictions: a malicious peer answering
// exchanges with 409 "convictions" must not be able to kill an honest
// witness. Unverifiable evidence is dropped at the client; verifiable
// but uncorroborated claims (replayed historical heads dressed up as a
// rollback) are checked first-hand against the log and rejected; only
// self-certifying evidence (two signed heads, same size, different
// roots) latches directly.
func TestGossipResistsFabricatedConvictions(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch([]Entry{testEntry(0), testEntry(1), testEntry(2)}); err != nil {
		t.Fatal(err)
	}
	oldHead := l.STH() // a genuine historical head at size 3
	if _, err := l.AppendBatch([]Entry{testEntry(3), testEntry(4), testEntry(5)}); err != nil {
		t.Fatal(err)
	}
	newHead := l.STH() // genuine head at size 6
	logSrv := httptest.NewServer(Handler(l))
	defer logSrv.Close()

	var conflictBody []byte
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		w.Write(conflictBody)
	}))
	defer evil.Close()

	pool := NewGossipPool("honest", NewWitness(&key.PublicKey), NewClient(logSrv.URL, &key.PublicKey))
	pool.AddPeer(NewClient(evil.URL, &key.PublicKey))

	// Unverifiable evidence: garbage signatures.
	junk := oldHead
	junk.Signature = []byte{1, 2, 3}
	conflictBody, err = json.Marshal(&ConflictError{Kind: ErrRollback, Have: junk, Got: junk, Detail: "fabricated"})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Exchange(); err == nil {
		t.Fatal("fabricated conviction produced a clean exchange")
	}
	if pool.Conflict() != nil {
		t.Fatalf("unverifiable evidence latched a conviction: %v", pool.Conflict())
	}
	if last, seen := pool.Witness().Last(); !seen || last.Size != 6 {
		t.Fatalf("witness did not keep following the honest log: seen=%v size=%d", seen, last.Size)
	}

	// Replayed genuine heads framed as a rollback: verifiable, but the
	// log is healthy, so first-hand corroboration clears it.
	conflictBody, err = json.Marshal(&ConflictError{Kind: ErrRollback, Have: newHead, Got: oldHead,
		Detail: "replayed history framed as rollback"})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Exchange(); err == nil {
		t.Fatal("uncorroborated conviction produced a clean exchange")
	}
	if pool.Conflict() != nil {
		t.Fatalf("uncorroborated replay latched a conviction: %v", pool.Conflict())
	}

	// A witness's conviction — genuine, but signed by a witness key, not
	// the log's — convicts no log: the pool drops it unlatched.
	keys, _ := testWitnessKeys(t, 1, 1)
	equiv := &ConflictError{Kind: ErrWitnessEquivocation, Signer: "w0", Detail: "witness conviction"}
	for i, st := range []*SignedTreeHead{&equiv.Have, &equiv.Got} {
		*st = SignedTreeHead{Size: 6, RootHash: Hash{byte(i + 1)}}
		ws, err := keys["w0"].Cosign(*st)
		if err != nil {
			t.Fatal(err)
		}
		st.Signature = ws.Signature
	}
	if !equiv.SelfCertifying(keys["w0"].Public()) {
		t.Fatal("the witness conviction is not genuine")
	}
	if conflictBody, err = json.Marshal(equiv); err != nil {
		t.Fatal(err)
	}
	if err := pool.Exchange(); err == nil || errors.Is(err, ErrWitnessEquivocation) {
		t.Fatalf("witness conviction not dropped: %v", err)
	}
	if pool.Conflict() != nil {
		t.Fatalf("witness conviction latched: %v", pool.Conflict())
	}

	// Self-certifying evidence: two signed heads at one size with
	// different roots can never both be honest — this latches.
	forked, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 106; i++ {
		if _, err := forked.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	conflictBody, err = json.Marshal(&ConflictError{Kind: ErrSplitView, Have: newHead, Got: forked.STH(),
		Detail: "two roots at size 6"})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Exchange(); !errors.Is(err, ErrSplitView) {
		t.Fatalf("self-certifying evidence not adopted: %v", err)
	}
	if pool.Conflict() == nil {
		t.Fatal("self-certifying evidence did not latch")
	}
}

// TestWitnessMergeLaggingPeer: an old-but-consistent peer head is benign
// — no conviction, no regression of Last().
func TestWitnessMergeLaggingPeer(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	fetch := logProofs(l).ConsistencyProof
	w := NewWitness(&key.PublicKey)
	logSrv := httptest.NewServer(Handler(l))
	defer logSrv.Close()
	merge := gossipTo(t, w, logSrv.URL)
	if _, err := l.Append(testEntry(0)); err != nil {
		t.Fatal(err)
	}
	old := l.STH()
	for i := 1; i < 5; i++ {
		if _, err := l.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Advance(l.STH(), fetch); err != nil {
		t.Fatal(err)
	}
	if err := merge(old); err != nil {
		t.Fatalf("lagging consistent peer head convicted: %v", err)
	}
	if last, _ := w.Last(); last.Size != 5 {
		t.Fatalf("merge regressed Last() to %d", last.Size)
	}

	// A lagging head from a *forked* history is still a split view.
	forked, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := forked.Append(testEntry(42)); err != nil {
		t.Fatal(err)
	}
	if err := merge(forked.STH()); !errors.Is(err, ErrSplitView) {
		t.Fatalf("forked lagging head accepted: %v", err)
	}
}

// TestJitterBounds pins the jitter window: [0.8d, 1.2d).
func TestJitterBounds(t *testing.T) {
	d := time.Second
	for i := 0; i < 1000; i++ {
		j := jitterFrom(d, nil)
		if j < 800*time.Millisecond || j >= 1200*time.Millisecond {
			t.Fatalf("jitter %v outside [0.8s, 1.2s)", j)
		}
	}
}

// TestJitterFromDeterministic pins the injectable source: a fixed
// sample yields an exact, reproducible interval — no randomized sleeps
// in tests that drive the loop.
func TestJitterFromDeterministic(t *testing.T) {
	d := time.Second
	for _, tc := range []struct {
		sample float64
		want   time.Duration
	}{
		{0, 800 * time.Millisecond},
		{0.5, time.Second},
		{0.999999, 1199999 * time.Microsecond},
	} {
		got := jitterFrom(d, func() float64 { return tc.sample })
		if delta := got - tc.want; delta < -time.Microsecond || delta > time.Microsecond {
			t.Fatalf("jitterFrom(%v, %v) = %v, want %v", d, tc.sample, got, tc.want)
		}
	}
	// nil source falls back to the global one, inside the window.
	if j := jitterFrom(d, nil); j < 800*time.Millisecond || j >= 1200*time.Millisecond {
		t.Fatalf("nil-source jitter %v outside window", j)
	}
}

// TestGossipLoopStops: the loop exits promptly when stop closes and
// reports each round.
func TestGossipLoopStops(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	logSrv := httptest.NewServer(Handler(l))
	defer logSrv.Close()
	p := NewGossipPool("looper", NewWitness(&key.PublicKey), NewClient(logSrv.URL, &key.PublicKey))
	// A deterministic source pins each round's sleep to exactly 0.8×
	// the interval — the loop's timing no longer depends on math/rand.
	p.SetJitterSource(func() float64 { return 0 })
	stop := make(chan struct{})
	rounds := make(chan error, 16)
	done := make(chan struct{})
	go func() {
		p.Loop(5*time.Millisecond, stop, func(err error) {
			select {
			case rounds <- err:
			default:
			}
		})
		close(done)
	}()
	if err := <-rounds; err != nil {
		t.Fatalf("first round failed: %v", err)
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("loop did not stop")
	}
	if last, seen := p.Witness().Last(); !seen || last.Size != 0 {
		t.Fatalf("loop did not anchor: seen=%v size=%d", seen, last.Size)
	}
}
