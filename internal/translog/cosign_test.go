package translog

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// testWitnessKeys generates n named co-signing identities and the
// roster requiring quorum of them.
func testWitnessKeys(t *testing.T, n, quorum int) (map[string]*WitnessKey, *WitnessRoster) {
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
func cosignAll(t *testing.T, keys map[string]*WitnessKey, names []string, sth SignedTreeHead) []WitnessSignature {
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
// names the witness as its signer (and latches it), and a second witness
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
	if got := col.Equivocations(); len(got) != 1 || got[0].Signer != "w0" {
		t.Fatalf("evidence not latched: %+v", got)
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
	check := NewQuorumCredentialChecker(&logKey.PublicKey, roster, l, l, col.Cosigned)

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
	stale.pb, err = l.ProveSerial("77")
	if err != nil {
		t.Fatal(err)
	}
	stale.pb.STH = head // the bundle as an auditor cached it before growth
	if proof, err := l.InclusionProof(stale.pb.Index, head.Size); err != nil {
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
	staleCheck := NewQuorumCredentialChecker(&logKey.PublicKey, roster, stale, l, col.Cosigned)
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

// TestQuorumWitnessAnchor: the relying-party anchor over quorum
// artifacts — forward-only acceptance, split-view refusal, and the
// recovery checks that refuse a rolled-back or contradicting store.
func TestQuorumWitnessAnchor(t *testing.T) {
	logKey := testSigner(t)
	l, err := NewLog(logKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(mixedEntries(3)); err != nil {
		t.Fatal(err)
	}
	keys, roster := testWitnessKeys(t, 3, 2)
	head := l.STH()
	artifact := func(sth SignedTreeHead, names ...string) *CosignedHead {
		return &CosignedHead{STH: sth, Signatures: cosignAll(t, keys, names, sth)}
	}
	dir := testStatedir(t)
	a := NewQuorumWitnessAnchor(dir, "anchor", &logKey.PublicKey, roster)

	// Below quorum the artifact is refused before it can be pinned.
	if err := a.Accept(artifact(head, "w0")); !errors.Is(err, ErrQuorumNotReached) {
		t.Fatalf("sub-quorum artifact accepted: %v", err)
	}
	if err := a.Accept(artifact(head, "w0", "w1")); err != nil {
		t.Fatal(err)
	}
	last, ok := a.Last()
	if !ok || last.STH.Size != head.Size {
		t.Fatalf("accepted artifact not pinned: %+v ok=%v", last, ok)
	}
	// Equal size, different root: split-view evidence, not adoption.
	forkRoot := head.RootHash
	forkRoot[0] ^= 0xff
	forked := signHead(t, logKey, head.Size, forkRoot, head.Timestamp+1)
	err = a.Accept(artifact(forked, "w1", "w2"))
	var ce *ConflictError
	if !errors.As(err, &ce) || !errors.Is(err, ErrSplitView) {
		t.Fatalf("forked quorum head accepted: %v", err)
	}
	// Growth moves the pin forward; an older quorum head is a no-op.
	if _, err := l.AppendBatch(mixedEntries(2)); err != nil {
		t.Fatal(err)
	}
	grown := l.STH()
	if err := a.Accept(artifact(grown, "w0", "w2")); err != nil {
		t.Fatal(err)
	}
	if err := a.Accept(artifact(head, "w0", "w1")); err != nil {
		t.Fatalf("stale quorum head should be ignored, not refused: %v", err)
	}
	if last, _ := a.Last(); last.STH.Size != grown.Size {
		t.Fatalf("pin moved backwards to %d", last.STH.Size)
	}

	// Recovery: a fresh anchor over the same statedir refuses a store
	// behind — or contradicting — the pinned quorum head.
	rootAt := func(n uint64) (Hash, error) { return l.RootAt(n) }
	re := NewQuorumWitnessAnchor(dir, "anchor", &logKey.PublicKey, roster)
	if err := re.CheckRecovery(&RecoveredState{Size: grown.Size, rootAt: rootAt}); err != nil {
		t.Fatalf("matching state refused: %v", err)
	}
	if err := re.CheckRecovery(&RecoveredState{Size: head.Size, rootAt: rootAt}); !errors.Is(err, ErrStateRollback) {
		t.Fatalf("rolled-back state: got %v, want ErrStateRollback", err)
	}
	tampered := &RecoveredState{Size: grown.Size, rootAt: func(n uint64) (Hash, error) { return Hash{0xde, 0xad}, nil }}
	if err := re.CheckRecovery(tampered); !errors.Is(err, ErrStateTampered) {
		t.Fatalf("contradicting state: got %v, want ErrStateTampered", err)
	}
	// A corrupted pin file is corrupt state, not silent acceptance.
	if err := dir.Write("witness-anchor-cosigned.json", []byte("junk")); err != nil {
		t.Fatal(err)
	}
	corrupt := NewQuorumWitnessAnchor(dir, "anchor", &logKey.PublicKey, roster)
	if err := corrupt.CheckRecovery(&RecoveredState{Size: grown.Size, rootAt: rootAt}); !errors.Is(err, ErrStateCorrupt) {
		t.Fatalf("corrupt pin: got %v, want ErrStateCorrupt", err)
	}
}
