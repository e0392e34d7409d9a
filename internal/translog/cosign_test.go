package translog

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// testWitnessKeys generates n named co-signing identities and the
// roster requiring quorum of them.
func testWitnessKeys(t testing.TB, n, quorum int) (map[string]*WitnessKey, *WitnessRoster) {
	t.Helper()
	keys := make(map[string]*WitnessKey, n)
	pubs := make(map[string]*ecdsa.PublicKey, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("w%d", i)
		priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		keys[name] = NewWitnessKey(name, priv)
		pubs[name] = &priv.PublicKey
	}
	roster, err := NewWitnessRoster(quorum, pubs)
	if err != nil {
		t.Fatal(err)
	}
	return keys, roster
}

// signHead hand-signs a tree head with the log key — how tests
// manufacture the equivocating second head an honest log never serves.
func signHead(t *testing.T, key *ecdsa.PrivateKey, size uint64, root Hash, ts int64) SignedTreeHead {
	t.Helper()
	sth := SignedTreeHead{Size: size, RootHash: root, Timestamp: ts}
	digest := sth.signingDigest()
	sig, err := ecdsa.SignASN1(rand.Reader, key, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	sth.Signature = sig
	return sth
}

// cosignAll collects one co-signature from each named witness over sth.
func cosignAll(t testing.TB, keys map[string]*WitnessKey, names []string, sth SignedTreeHead) []WitnessSignature {
	t.Helper()
	sigs := make([]WitnessSignature, 0, len(names))
	for _, name := range names {
		ws, err := keys[name].Cosign(sth)
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, ws)
	}
	return sigs
}

// TestCosignedHeadVerifyAdversarial drives the quorum artifact through
// every forgery the wire can carry: each must fail with its distinct
// errors.Is-able sentinel, and only an honest Q-of-N set may pass.
func TestCosignedHeadVerifyAdversarial(t *testing.T) {
	logKey := testSigner(t)
	keys, roster := testWitnessKeys(t, 4, 3)
	head := signHead(t, logKey, 9, Hash{0x11}, 1700000000000)
	other := signHead(t, logKey, 7, Hash{0x22}, 1700000000001)
	honest := cosignAll(t, keys, []string{"w0", "w1", "w2"}, head)

	outsider, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := NewWitnessKey("w1", outsider).Cosign(head)
	if err != nil {
		t.Fatal(err)
	}
	replayedName := honest[0]
	replayedName.Witness = "w1" // w0's bits relabeled: the digest binds the name, so this cannot verify as w1
	unknownSig, err := NewWitnessKey("intruder", outsider).Cosign(head)
	if err != nil {
		t.Fatal(err)
	}
	staleSig, err := keys["w2"].Cosign(other)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		ch   CosignedHead
		want error
	}{
		{"happy", CosignedHead{STH: head, Signatures: honest}, nil},
		{"forged-log-head", CosignedHead{STH: SignedTreeHead{Size: 9, RootHash: Hash{0x11}, Signature: []byte{1}}, Signatures: honest}, ErrBadSTH},
		{"forged-witness-sig", CosignedHead{STH: head, Signatures: []WitnessSignature{honest[0], forged, honest[2]}}, ErrCosignInvalid},
		{"replayed-under-other-name", CosignedHead{STH: head, Signatures: []WitnessSignature{honest[1], honest[2], replayedName}}, ErrCosignInvalid},
		{"replayed-from-older-head", CosignedHead{STH: head, Signatures: []WitnessSignature{honest[0], honest[1], staleSig}}, ErrCosignInvalid},
		{"duplicate-witness", CosignedHead{STH: head, Signatures: []WitnessSignature{honest[0], honest[0], honest[1]}}, ErrDuplicateWitness},
		{"unknown-witness", CosignedHead{STH: head, Signatures: []WitnessSignature{honest[0], honest[1], unknownSig}}, ErrUnknownWitness},
		{"quorum-short", CosignedHead{STH: head, Signatures: honest[:2]}, ErrQuorumNotReached},
		{"quorum-padded-with-duplicates", CosignedHead{STH: head, Signatures: []WitnessSignature{honest[0], honest[1], honest[1]}}, ErrDuplicateWitness},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.ch.Verify(&logKey.PublicKey, roster)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("honest artifact refused: %v", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestCosignCollectorAdversarial: the collector-side twins of the
// artifact checks — nothing forged, replayed, duplicated or unknown may
// touch collector state, and quorum is only announced once Q distinct
// witnesses stand behind one head.
func TestCosignCollectorAdversarial(t *testing.T) {
	logKey := testSigner(t)
	keys, roster := testWitnessKeys(t, 4, 3)
	col := NewCosignCollector(&logKey.PublicKey, roster)
	head := signHead(t, logKey, 5, Hash{0x33}, 1700000000000)

	if _, err := col.Cosigned(); !errors.Is(err, ErrQuorumNotReached) {
		t.Fatalf("empty collector: got %v, want ErrQuorumNotReached", err)
	}
	// A head the log never signed is refused outright.
	bogus := SignedTreeHead{Size: 5, RootHash: Hash{0x33}, Signature: []byte{0xbb}}
	ws, err := keys["w0"].Cosign(bogus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.Submit(bogus, ws); !errors.Is(err, ErrBadSTH) {
		t.Fatalf("unsigned head accepted: %v", err)
	}
	// A signature that does not cover the submitted head is invalid even
	// when both halves are individually authentic.
	older := signHead(t, logKey, 3, Hash{0x44}, 1700000000000)
	staleSig, err := keys["w0"].Cosign(older)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.Submit(head, staleSig); !errors.Is(err, ErrCosignInvalid) {
		t.Fatalf("mismatched signature accepted: %v", err)
	}
	// Outside the roster, or a forged roster signature: distinct refusals.
	outsider, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	unknownSig, err := NewWitnessKey("intruder", outsider).Cosign(head)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.Submit(head, unknownSig); !errors.Is(err, ErrUnknownWitness) {
		t.Fatalf("unknown witness accepted: %v", err)
	}
	forged, err := NewWitnessKey("w1", outsider).Cosign(head)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.Submit(head, forged); !errors.Is(err, ErrCosignInvalid) {
		t.Fatalf("forged signature accepted: %v", err)
	}

	// Honest quorum, one duplicate along the way.
	for i, name := range []string{"w0", "w1"} {
		ws, err := keys[name].Cosign(head)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := col.Submit(head, ws); err != nil || n != i+1 {
			t.Fatalf("submit %s: n=%d err=%v", name, n, err)
		}
	}
	dup, err := keys["w1"].Cosign(head)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := col.Submit(head, dup); !errors.Is(err, ErrDuplicateWitness) || n != 2 {
		t.Fatalf("duplicate: n=%d err=%v", n, err)
	}
	if _, err := col.Cosigned(); !errors.Is(err, ErrQuorumNotReached) {
		t.Fatalf("2 of 3 announced as quorum: %v", err)
	}
	ws2, err := keys["w2"].Cosign(head)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.Submit(head, ws2); err != nil {
		t.Fatal(err)
	}
	ch, err := col.Cosigned()
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Verify(&logKey.PublicKey, roster); err != nil {
		t.Fatalf("assembled artifact does not verify: %v", err)
	}
	if len(ch.Signatures) != 3 || ch.STH.Size != head.Size {
		t.Fatalf("artifact shape: %d sigs at size %d", len(ch.Signatures), ch.STH.Size)
	}
}

// TestCosignCollectorEquivocation: one witness co-signs two different
// roots at one size. The collector returns self-verifying evidence that
// names the witness as its signer (and counts it), and a second witness
// walking into the forked size gets the log-split ConflictError — also
// self-certifying, since the log signed both heads.
func TestCosignCollectorEquivocation(t *testing.T) {
	logKey := testSigner(t)
	keys, roster := testWitnessKeys(t, 3, 2)
	col := NewCosignCollector(&logKey.PublicKey, roster)
	headA := signHead(t, logKey, 6, Hash{0xaa}, 1700000000000)
	headB := signHead(t, logKey, 6, Hash{0xbb}, 1700000000001)

	wsA, err := keys["w0"].Cosign(headA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.Submit(headA, wsA); err != nil {
		t.Fatal(err)
	}
	wsB, err := keys["w0"].Cosign(headB)
	if err != nil {
		t.Fatal(err)
	}
	counted := mCosignEquivocations.Value()
	_, err = col.Submit(headB, wsB)
	var ee *ConflictError
	if !errors.As(err, &ee) || !errors.Is(err, ErrWitnessEquivocation) || ee.Signer != "w0" {
		t.Fatalf("equivocation not convicted: %v", err)
	}
	w0, _ := roster.Key("w0")
	if err := ee.Verify(w0); err != nil {
		t.Fatalf("evidence does not verify: %v", err)
	}
	if !ee.SelfCertifying(w0) {
		t.Fatal("two verified roots at one size must be self-certifying")
	}
	if ee.Verify(&logKey.PublicKey) == nil {
		t.Fatal("a witness's co-signatures verified under the log key")
	}
	if got := mCosignEquivocations.Value() - counted; got != 1 {
		t.Fatalf("translog_cosign_equivocations_total moved by %d, want 1", got)
	}
	// Tampered evidence proves nothing.
	bad := *ee
	bad.Got.RootHash = Hash{0xcc}
	if bad.Verify(w0) == nil {
		t.Fatal("tampered evidence verified")
	}
	// An honest second witness submitting the forked head is told the
	// LOG split — evidence self-certifying under the log key alone.
	wsB1, err := keys["w1"].Cosign(headB)
	if err != nil {
		t.Fatal(err)
	}
	_, err = col.Submit(headB, wsB1)
	var ce *ConflictError
	if !errors.As(err, &ce) || !errors.Is(err, ErrSplitView) || ce.Signer != "" {
		t.Fatalf("forked size not convicted as split view: %v", err)
	}
	if err := ce.Verify(&logKey.PublicKey); err != nil || !ce.SelfCertifying(&logKey.PublicKey) {
		t.Fatalf("split-view evidence not self-certifying: %v", err)
	}
}

// TestCosignHTTPRoundTrip pins the one wire: a witness's view carrying
// its co-signature goes to the log's gossip endpoint through the same
// exchangeView peers use, every sentinel survives it errors.Is-intact,
// and conviction evidence — witness equivocation and log split-view
// alike — crosses HTTP as one ConflictError body, still verifying under
// the roster or the log key, mirroring the gossip fabricated-evidence
// hardening.
func TestCosignHTTPRoundTrip(t *testing.T) {
	logKey := testSigner(t)
	l, err := NewLog(logKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(mixedEntries(4)); err != nil {
		t.Fatal(err)
	}
	keys, roster := testWitnessKeys(t, 3, 2)
	col := NewCosignCollector(&logKey.PublicKey, roster)
	mux := http.NewServeMux()
	cosignH := CosignHandler(col)
	mux.Handle("/translog/v1/gossip", cosignH)
	mux.Handle("/translog/v1/cosigned", cosignH)
	mux.Handle("/", Handler(l))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := NewClient(srv.URL, &logKey.PublicKey)
	submit := func(sth SignedTreeHead, ws WitnessSignature) error {
		out, err := client.exchangeView(wireGossip{Name: ws.Witness, Seen: true, Head: sth, Cosig: &ws})
		if err == nil && out.Seen {
			t.Fatalf("collector answered with a head: %+v", out.Head)
		}
		return err
	}

	head := l.STH()
	if _, err := client.Cosigned(); !errors.Is(err, ErrQuorumNotReached) {
		t.Fatalf("pre-quorum fetch: got %v, want ErrQuorumNotReached", err)
	}
	if _, err := client.exchangeView(wireGossip{Name: "w0", Seen: true, Head: head}); !errors.Is(err, ErrCosignInvalid) {
		t.Fatalf("view without a co-signature: %v", err)
	}
	ws0, err := keys["w0"].Cosign(head)
	if err != nil {
		t.Fatal(err)
	}
	if err := submit(head, ws0); err != nil {
		t.Fatalf("first submission: %v", err)
	}
	if err := submit(head, ws0); !errors.Is(err, ErrDuplicateWitness) {
		t.Fatalf("duplicate over HTTP: %v", err)
	}
	outsider, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	unknownSig, err := NewWitnessKey("intruder", outsider).Cosign(head)
	if err != nil {
		t.Fatal(err)
	}
	if err := submit(head, unknownSig); !errors.Is(err, ErrUnknownWitness) {
		t.Fatalf("unknown witness over HTTP: %v", err)
	}
	forged, err := NewWitnessKey("w1", outsider).Cosign(head)
	if err != nil {
		t.Fatal(err)
	}
	if err := submit(head, forged); !errors.Is(err, ErrCosignInvalid) {
		t.Fatalf("forged signature over HTTP: %v", err)
	}
	unsigned := head
	unsigned.Signature = []byte{1}
	if err := submit(unsigned, ws0); !errors.Is(err, ErrBadSTH) {
		t.Fatalf("head the log never signed over HTTP: %v", err)
	}

	// The equivocation 409: w0 co-signs a second log-signed head at the
	// same size; the client must receive evidence it can verify against
	// its own pinned roster — taking nobody's word for the conviction.
	forkRoot := head.RootHash
	forkRoot[0] ^= 0xff
	forked := signHead(t, logKey, head.Size, forkRoot, head.Timestamp+1)
	wsFork, err := keys["w0"].Cosign(forked)
	if err != nil {
		t.Fatal(err)
	}
	err = submit(forked, wsFork)
	var ee *ConflictError
	if !errors.As(err, &ee) || !errors.Is(err, ErrWitnessEquivocation) || ee.Signer != "w0" {
		t.Fatalf("equivocation did not round-trip: %v", err)
	}
	w0, _ := roster.Key("w0")
	if err := ee.Verify(w0); err != nil || !ee.SelfCertifying(w0) {
		t.Fatalf("round-tripped evidence does not verify: %v", err)
	}
	// And the log-split 409 for an honest witness on the forked head.
	wsFork1, err := keys["w1"].Cosign(forked)
	if err != nil {
		t.Fatal(err)
	}
	err = submit(forked, wsFork1)
	var ce *ConflictError
	if !errors.As(err, &ce) || !errors.Is(err, ErrSplitView) || ce.Signer != "" {
		t.Fatalf("log split did not round-trip: %v", err)
	}
	if !ce.SelfCertifying(&logKey.PublicKey) {
		t.Fatal("round-tripped split-view evidence not self-certifying")
	}

	// Quorum completes; the artifact crosses the wire and verifies.
	ws1, err := keys["w1"].Cosign(head)
	if err != nil {
		t.Fatal(err)
	}
	if err := submit(head, ws1); err != nil {
		t.Fatal(err)
	}
	ch, err := client.Cosigned()
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Verify(&logKey.PublicKey, roster); err != nil {
		t.Fatal(err)
	}
}

// staleProofSource replays one captured proof bundle forever — the
// stale-head path the quorum checker must bridge by consistency proof.
type staleProofSource struct{ pb *ProofBundle }

func (s *staleProofSource) ProveSerial(string) (*ProofBundle, error) {
	pb := *s.pb
	return &pb, nil
}

// TestQuorumCredentialChecker: the controller hook in quorum mode. A
// logged credential passes only once Q witnesses co-signed a head
// covering its proof; a proof against a head beyond anything co-signed
// is refused with ErrQuorumNotReached; an older proof head is bridged
// into the co-signed head by consistency proof.
func TestQuorumCredentialChecker(t *testing.T) {
	logKey := testSigner(t)
	l, err := NewLog(logKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Entry{Type: EntryEnroll, Timestamp: 1, Actor: "fw-0", Serial: "77"}); err != nil {
		t.Fatal(err)
	}
	keys, roster := testWitnessKeys(t, 3, 2)
	col := NewCosignCollector(&logKey.PublicKey, roster)
	proofs := logProofs(l)
	check := NewQuorumCredentialChecker(NewWitness(&logKey.PublicKey), roster, proofs, proofs, col.Cosigned)

	// Logged, proven — but nobody co-signed yet: refused.
	if err := check(certWithSerial(77)); !errors.Is(err, ErrQuorumNotReached) {
		t.Fatalf("un-co-signed head accepted: %v", err)
	}
	head := l.STH()
	for _, name := range []string{"w0", "w1"} {
		ws, err := keys[name].Cosign(head)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := col.Submit(head, ws); err != nil {
			t.Fatal(err)
		}
	}
	if err := check(certWithSerial(77)); err != nil {
		t.Fatalf("quorum-covered credential refused: %v", err)
	}
	if err := check(certWithSerial(78)); err == nil {
		t.Fatal("unlogged credential accepted")
	}

	// The log grows past the co-signed head; the stale quorum artifact
	// no longer covers a fresh proof.
	stale := &staleProofSource{}
	if _, err := l.Append(Entry{Type: EntryEnroll, Timestamp: 2, Actor: "fw-1", Serial: "88"}); err != nil {
		t.Fatal(err)
	}
	if err := check(certWithSerial(88)); !errors.Is(err, ErrQuorumNotReached) {
		t.Fatalf("proof beyond the co-signed head accepted: %v", err)
	}
	// Capture the now-stale bundle for 77, then co-sign the grown head:
	// the stale bundle must bridge by consistency proof.
	stale.pb, err = proofs.ProveSerial("77")
	if err != nil {
		t.Fatal(err)
	}
	stale.pb.STH = head // the bundle as an auditor cached it before growth
	if proof, err := proofs.InclusionProof(stale.pb.Index, head.Size); err != nil {
		t.Fatal(err)
	} else {
		stale.pb.Proof = proof
	}
	grown := l.STH()
	for _, name := range []string{"w1", "w2"} {
		ws, err := keys[name].Cosign(grown)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := col.Submit(grown, ws); err != nil {
			t.Fatal(err)
		}
	}
	if err := check(certWithSerial(88)); err != nil {
		t.Fatalf("credential under the fresh quorum refused: %v", err)
	}
	staleCheck := NewQuorumCredentialChecker(NewWitness(&logKey.PublicKey), roster, stale, proofs, col.Cosigned)
	if err := staleCheck(certWithSerial(77)); err != nil {
		t.Fatalf("stale proof head not bridged into the co-signed head: %v", err)
	}
}

// TestOpenWitnessKeyPersistence: a witness restart signs as the same
// identity — the keypair is loaded, not regenerated, and the public
// half is republished for roster discovery.
func TestOpenWitnessKeyPersistence(t *testing.T) {
	dir := testStatedir(t)
	k1, err := OpenWitnessKey(dir, "w0")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := OpenWitnessKey(dir, "w0")
	if err != nil {
		t.Fatal(err)
	}
	if !k1.Public().Equal(k2.Public()) {
		t.Fatal("witness restart regenerated its co-signing key")
	}
	if _, err := OpenWitnessKey(dir, "w1"); err != nil {
		t.Fatal(err)
	}
	roster, err := LoadWitnessRoster(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := roster.Names(); len(got) != 2 || got[0] != "w0" || got[1] != "w1" {
		t.Fatalf("roster discovered %v", got)
	}
	pub, ok := roster.Key("w0")
	if !ok || !pub.Equal(k1.Public()) {
		t.Fatal("roster key does not match the witness's identity")
	}
}

// quorumFixture is a log of three credentials whose heads a Q-of-3
// roster co-signs on demand, and a CosignSource that serves whichever
// co-signed head the test chooses and counts every call.
type quorumFixture struct {
	key    *ecdsa.PrivateKey
	log    *Log
	proofs *TileProofSource
	roster *WitnessRoster
	keys   map[string]*WitnessKey

	mu      sync.Mutex
	serving *CosignedHead
	fetches int
}

func newQuorumFixture(t *testing.T) *quorumFixture {
	t.Helper()
	fx := &quorumFixture{key: testSigner(t)}
	var err error
	if fx.log, err = NewLog(fx.key); err != nil {
		t.Fatal(err)
	}
	fx.proofs = logProofs(fx.log)
	fx.keys, fx.roster = testWitnessKeys(t, 3, 2)
	for i, serial := range []string{"77", "78", "79"} {
		if _, err := fx.log.AppendBatch(append(mixedEntries(2), Entry{Type: EntryEnroll, Timestamp: int64(i), Actor: "fw", Serial: serial})); err != nil {
			t.Fatal(err)
		}
	}
	return fx
}

// serve makes sth, co-signed by w0 and w1, the head the source answers.
func (fx *quorumFixture) serve(t *testing.T, sth SignedTreeHead) {
	ch := &CosignedHead{STH: sth, Signatures: cosignAll(t, fx.keys, []string{"w0", "w1"}, sth)}
	fx.mu.Lock()
	fx.serving = ch
	fx.mu.Unlock()
}

func (fx *quorumFixture) cosigned() (*CosignedHead, error) {
	fx.mu.Lock()
	defer fx.mu.Unlock()
	fx.fetches++
	if fx.serving == nil {
		return nil, ErrQuorumNotReached
	}
	return fx.serving, nil
}

func (fx *quorumFixture) fetched() int {
	fx.mu.Lock()
	defer fx.mu.Unlock()
	return fx.fetches
}

// headProofs serves every credential's proof against one fixed head of
// the log: the head a log server hands a handshake.
type headProofs struct {
	log  *Log
	head SignedTreeHead
}

func (p headProofs) ProveSerial(serial string) (*ProofBundle, error) {
	src := logProofs(p.log)
	pb, err := src.ProveSerial(serial)
	if err != nil {
		return nil, err
	}
	if pb.Proof, err = src.InclusionProof(pb.Index, p.head.Size); err != nil {
		return nil, err
	}
	pb.STH = p.head
	return pb, nil
}

// TestQuorumPinConvictsServedHeads: once the checker's pin holds a
// co-signed head, a log server that answers the next fetch with an older
// co-signed head is convicted of a rollback, and one that answers with a
// different root at the pinned size of a split view — each a
// ConflictError over the pinned and the served head, with the pin
// unmoved.
func TestQuorumPinConvictsServedHeads(t *testing.T) {
	fx := newQuorumFixture(t)
	older, err := rootAt(fx.log, 5)
	if err != nil {
		t.Fatal(err)
	}
	pinned := signHead(t, fx.key, 6, mustRoot(t, fx.log, 6), 2)
	forkRoot := pinned.RootHash
	forkRoot[0] ^= 0xff
	for _, tc := range []struct {
		name   string
		served SignedTreeHead
		kind   error
	}{
		{"older co-signed head", signHead(t, fx.key, 5, older, 3), ErrRollback},
		{"different root at the pinned size", signHead(t, fx.key, 6, forkRoot, 3), ErrSplitView},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pin := NewWitness(&fx.key.PublicKey)
			check := NewQuorumCredentialChecker(pin, fx.roster, headProofs{fx.log, pinned}, fx.proofs, fx.cosigned)
			fx.serve(t, pinned)
			if err := check(certWithSerial(78)); err != nil {
				t.Fatalf("credential under the co-signed head refused: %v", err)
			}
			// The log grows; a proof past the pin makes the checker fetch,
			// and the hostile server answers with tc.served.
			fx.serve(t, tc.served)
			err := NewQuorumCredentialChecker(pin, fx.roster, fx.proofs, fx.proofs, fx.cosigned)(certWithSerial(79))
			var ce *ConflictError
			if !errors.As(err, &ce) || !errors.Is(err, tc.kind) {
				t.Fatalf("got %v, want a ConflictError of %v", err, tc.kind)
			}
			if !ce.Have.equal(pinned) || !ce.Got.equal(tc.served) {
				t.Fatalf("evidence pairs %d/%d, want the pinned head and the served one", ce.Have.Size, ce.Got.Size)
			}
			if last, _ := pin.Last(); !last.equal(pinned) {
				t.Fatalf("pin moved to size %d", last.Size)
			}
		})
	}
}

func mustRoot(t *testing.T, l *Log, n uint64) Hash {
	t.Helper()
	root, err := rootAt(l, n)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestQuorumPinSkipsFetchOnUnmovedLog: against an unmoved log only the
// first check fetches a co-signed head; every later one is judged against
// the pin. A checker rebuilt over the same statedir restores the pin and
// passes proofs at and below it with no fetch at all.
func TestQuorumPinSkipsFetchOnUnmovedLog(t *testing.T) {
	fx := newQuorumFixture(t)
	head := fx.log.STH()
	fx.serve(t, head)
	dir := testStatedir(t)
	pin, err := OpenWitnessState(dir, "controller", &fx.key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	check := NewQuorumCredentialChecker(pin, fx.roster, fx.proofs, fx.proofs, fx.cosigned)
	const n = 50
	for i := 0; i < n; i++ {
		if err := check(certWithSerial(int64(77 + i%3))); err != nil {
			t.Fatal(err)
		}
	}
	if got := fx.fetched(); got != 1 {
		t.Fatalf("%d checks on an unmoved log made %d co-signed fetches, want 1", n, got)
	}

	restored, err := OpenWitnessState(dir, "controller", &fx.key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if last, ok := restored.Last(); !ok || !last.equal(head) {
		t.Fatalf("restored pin %+v (ok=%v), want the co-signed head at size %d", last, ok, head.Size)
	}
	below := headProofs{fx.log, signHead(t, fx.key, 6, mustRoot(t, fx.log, 6), 1)}
	for _, source := range []ProofSource{fx.proofs, below} {
		if err := NewQuorumCredentialChecker(restored, fx.roster, source, fx.proofs, fx.cosigned)(certWithSerial(78)); err != nil {
			t.Fatalf("proof against the restored pin refused: %v", err)
		}
	}
	if got := fx.fetched(); got != 1 {
		t.Fatalf("rebuilt checker fetched %d co-signed heads, want 0", got-1)
	}
}

// TestQuorumPinConcurrentChecks: handshakes racing past the pin while
// the collector moves through several quorum heads never advance it out
// of order — no check reads the newer pin's predecessor as a rollback.
func TestQuorumPinConcurrentChecks(t *testing.T) {
	logKey := testSigner(t)
	l, err := NewLog(logKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Entry{Type: EntryEnroll, Timestamp: 1, Actor: "fw-0", Serial: "77"}); err != nil {
		t.Fatal(err)
	}
	keys, roster := testWitnessKeys(t, 3, 2)
	col := NewCosignCollector(&logKey.PublicKey, roster)
	cosign := func() {
		head := l.STH()
		for _, ws := range cosignAll(t, keys, []string{"w0", "w1"}, head) {
			if _, err := col.Submit(head, ws); err != nil {
				t.Error(err)
			}
		}
	}
	cosign()
	proofs := logProofs(l)
	check := NewQuorumCredentialChecker(NewWitness(&logKey.PublicKey), roster, proofs, proofs, col.Cosigned)

	const checkers, heads = 16, 24
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, checkers)
	for i := 0; i < checkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := check(certWithSerial(77)); err != nil && !errors.Is(err, ErrQuorumNotReached) {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < heads; i++ {
		if _, err := l.AppendBatch(mixedEntries(1 + i)); err != nil {
			t.Fatal(err)
		}
		cosign()
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("racing check: %v", err)
	}
}

// BenchmarkQuorumCredentialCheck times one credential check on an
// unmoved 100k-entry log: the plain checker, and the quorum checker with
// its pin at the co-signed head for Q = 2, 3 and 5.
func BenchmarkQuorumCredentialCheck(b *testing.B) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	l, err := NewLog(key)
	if err != nil {
		b.Fatal(err)
	}
	entries := mixedEntries(100_000)
	entries[len(entries)/2] = Entry{Type: EntryEnroll, Timestamp: 1, Actor: "fw-0", Serial: "77"}
	if _, err := l.AppendBatch(entries); err != nil {
		b.Fatal(err)
	}
	cert := certWithSerial(77)
	proofs := logProofs(l)
	run := func(name string, check func(*x509.Certificate) error) {
		b.Run(name, func(b *testing.B) {
			if err := check(cert); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for range b.N {
				if err := check(cert); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("plain", NewCredentialChecker(&key.PublicKey, proofs))
	for _, q := range []int{2, 3, 5} {
		keys, roster := testWitnessKeys(b, q, q)
		names := roster.Names()
		ch := &CosignedHead{STH: l.STH(), Signatures: cosignAll(b, keys, names, l.STH())}
		run(fmt.Sprintf("quorum-Q%d", q), NewQuorumCredentialChecker(NewWitness(&key.PublicKey), roster, proofs, proofs,
			func() (*CosignedHead, error) { return ch, nil }))
	}
}
