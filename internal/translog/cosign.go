// Quorum co-signing: the artifact layer on top of witness partitioning
// (partition.go). A single witness's word that a head is good was never
// the trust model — heads are log-signed and witnesses only detect
// misbehaviour — but once the audit work is partitioned, a relying
// party needs to know that *enough* partial auditors stand behind a
// head. Witnesses that verified their assigned shard streams co-sign
// the merged head with their own ECDSA keys; a CosignedHead (log-signed
// head + ≥Q distinct witness signatures verified against the pinned
// roster) is the artifact the verifier, the controller's trusted mode
// and tile-assembling clients accept. The signing digest binds the
// witness name, so one witness's signature can never be replayed as
// another's; the collector keeps per-size signature sets, so a witness
// signing two different roots at one size convicts itself with
// self-verifying ConflictError evidence naming it as the signer.
package translog

import (
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"vnfguard/internal/sigmemo"
	"vnfguard/internal/statedir"
)

// cosignSigPrefix domain-separates witness co-signatures from tree-head
// signatures (sthSigPrefix) and every other ECDSA use in the project.
const cosignSigPrefix = "vnfguard-translog-cosign-v1"

// Co-signing errors: the adversarial surface of the quorum protocol,
// each a distinct errors.Is-able verdict.
var (
	// ErrCosignInvalid reports a witness signature that does not verify:
	// forged bytes, a signature replayed under another witness's name
	// (the name is inside the signed digest), or a signature over a
	// different head than the one it is presented with.
	ErrCosignInvalid = errors.New("translog: witness co-signature invalid") //lint:allow unusedexport cosign error contract of exported Verify/Submit paths; errors.Is target
	// ErrUnknownWitness reports a co-signature from a name outside the
	// pinned roster.
	ErrUnknownWitness = errors.New("translog: co-signature from witness outside the roster") //lint:allow unusedexport cosign error contract of exported Verify/Submit paths; errors.Is target
	// ErrDuplicateWitness reports the same witness appearing twice in
	// one signature set — Q-of-N means Q distinct witnesses.
	ErrDuplicateWitness = errors.New("translog: duplicate witness in co-signature set") //lint:allow unusedexport cosign error contract of exported Verify/Submit paths; errors.Is target
	// ErrQuorumNotReached reports a head backed by fewer than Q distinct
	// valid witness co-signatures.
	ErrQuorumNotReached = errors.New("translog: witness co-signature quorum not reached")
)

// cosignDigest is the SHA-256 a witness co-signature covers: the domain
// prefix, the length-framed witness name, and the head's size and root.
// Binding the name makes cross-witness replay a signature failure, not
// a policy check.
func cosignDigest(witness string, size uint64, root Hash) [sha256.Size]byte {
	buf := make([]byte, 0, len(cosignSigPrefix)+8+len(witness)+8+len(root))
	buf = append(buf, cosignSigPrefix...)
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], uint64(len(witness)))
	buf = append(buf, u64[:]...)
	buf = append(buf, witness...)
	binary.BigEndian.PutUint64(u64[:], size)
	buf = append(buf, u64[:]...)
	buf = append(buf, root[:]...)
	return sha256.Sum256(buf)
}

// WitnessSignature is one witness's co-signature over a tree head.
type WitnessSignature struct {
	// Witness is the signing witness's roster name.
	Witness string `json:"witness"`
	// Size and RootHash name the head the signature covers.
	Size     uint64 `json:"size"`
	RootHash Hash   `json:"root_hash"`
	// Signature is the ASN.1 ECDSA signature over cosignDigest.
	Signature []byte `json:"signature"`
}

// Verify checks the co-signature against the witness's public key.
func (ws WitnessSignature) Verify(pub *ecdsa.PublicKey) error {
	digest := cosignDigest(ws.Witness, ws.Size, ws.RootHash)
	if !ecdsa.VerifyASN1(pub, digest[:], ws.Signature) {
		return fmt.Errorf("%w: signature by %q over size %d does not verify", ErrCosignInvalid, ws.Witness, ws.Size)
	}
	return nil
}

// CosignedHead is the quorum artifact: a log-signed tree head plus the
// witness signature set standing behind it. Verify is what makes it
// one — an unchecked CosignedHead is just bytes.
type CosignedHead struct {
	STH        SignedTreeHead     `json:"sth"`
	Signatures []WitnessSignature `json:"signatures"`
}

// Verify checks the whole artifact: the log signature on the head, then
// every witness signature against the roster — any forged, replayed,
// mismatched or duplicate signature fails the artifact outright — and
// finally that at least roster.Quorum() distinct witnesses signed.
func (ch *CosignedHead) Verify(logPub *ecdsa.PublicKey, roster *WitnessRoster) error {
	if err := ch.STH.Verify(logPub); err != nil {
		return err
	}
	seen := make(map[string]bool, len(ch.Signatures))
	for _, ws := range ch.Signatures {
		if err := roster.check(ch.STH, ws); err != nil {
			return err
		}
		if seen[ws.Witness] {
			return fmt.Errorf("%w: %q", ErrDuplicateWitness, ws.Witness)
		}
		seen[ws.Witness] = true
	}
	if len(seen) < roster.Quorum() {
		return fmt.Errorf("%w: %d of %d required co-signatures on head at size %d",
			ErrQuorumNotReached, len(seen), roster.Quorum(), ch.STH.Size)
	}
	return nil
}

// CosignSource yields the newest quorum co-signed head — a
// CosignCollector's Cosigned method or a Client's, depending on whether
// the collector is in-process.
type CosignSource func() (*CosignedHead, error)

// ---- roster ---------------------------------------------------------------

// WitnessRoster pins the witness public keys and the quorum Q a
// deployment requires. Like the partition it is derived once from
// pinned state (the statedir's published witness keys), not discovered
// per verification.
type WitnessRoster struct {
	quorum int
	keys   map[string]*ecdsa.PublicKey
}

// NewWitnessRoster builds a roster requiring quorum distinct signatures
// from the named keys.
func NewWitnessRoster(quorum int, keys map[string]*ecdsa.PublicKey) (*WitnessRoster, error) { //lint:allow unusedexport relying parties pin rosters from out-of-band keys; LoadWitnessRoster is the statedir-discovery convenience over it
	if quorum < 1 || quorum > len(keys) {
		return nil, fmt.Errorf("%w: quorum %d over %d roster keys", ErrPartitionInvalid, quorum, len(keys))
	}
	m := make(map[string]*ecdsa.PublicKey, len(keys))
	for name, pub := range keys {
		if pub == nil {
			return nil, fmt.Errorf("%w: nil key for witness %q", ErrPartitionInvalid, name)
		}
		m[name] = pub
	}
	return &WitnessRoster{quorum: quorum, keys: m}, nil
}

// Quorum returns the required distinct-signature count Q.
func (r *WitnessRoster) Quorum() int { return r.quorum }

// Key returns the public key for witness name.
func (r *WitnessRoster) Key(name string) (*ecdsa.PublicKey, bool) {
	pub, ok := r.keys[name]
	return pub, ok
}

// check is the one judgement of a witness co-signature offered as
// standing behind a head: it must cover that head's size and root, come
// from a roster witness, and verify under that witness's key.
func (r *WitnessRoster) check(sth SignedTreeHead, ws WitnessSignature) error {
	if ws.Size != sth.Size || ws.RootHash != sth.RootHash {
		return fmt.Errorf("%w: signature by %q covers size %d root %x…, the head is size %d root %x…",
			ErrCosignInvalid, ws.Witness, ws.Size, ws.RootHash[:4], sth.Size, sth.RootHash[:4])
	}
	pub, ok := r.Key(ws.Witness)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownWitness, ws.Witness)
	}
	return ws.Verify(pub)
}

// Names returns the sorted roster names — the ring NewWitnessPartition
// is built over, so roster and partition stay derived from one set.
func (r *WitnessRoster) Names() []string {
	names := make([]string, 0, len(r.keys))
	for name := range r.keys {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ---- witness signing keys -------------------------------------------------

// WitnessKey is a witness's co-signing identity.
type WitnessKey struct {
	name string
	key  *ecdsa.PrivateKey
}

// NewWitnessKey wraps an existing key as witness name's identity.
func NewWitnessKey(name string, key *ecdsa.PrivateKey) *WitnessKey { //lint:allow unusedexport embedders bring HSM/config-held keys; OpenWitnessKey is the statedir convenience over it
	return &WitnessKey{name: name, key: key}
}

// Name returns the roster name the key signs as.
func (wk *WitnessKey) Name() string { return wk.name }

// Public returns the verification half.
func (wk *WitnessKey) Public() *ecdsa.PublicKey { return &wk.key.PublicKey }

// Cosign produces this witness's co-signature over the head.
func (wk *WitnessKey) Cosign(sth SignedTreeHead) (WitnessSignature, error) {
	digest := cosignDigest(wk.name, sth.Size, sth.RootHash)
	sig, err := ecdsa.SignASN1(rand.Reader, wk.key, digest[:])
	if err != nil {
		return WitnessSignature{}, fmt.Errorf("translog: co-signing head: %w", err)
	}
	return WitnessSignature{Witness: wk.name, Size: sth.Size, RootHash: sth.RootHash, Signature: sig}, nil
}

// witnessKeyFile / witnessPubFile are the statedir entries a witness's
// co-signing keypair lives under; the public half matches
// statedir-style discovery so the log server assembles the roster from
// published keys.
func witnessKeyFile(name string) string { return "witness-" + name + "-key.pem" }
func witnessPubFile(name string) string { return "witness-" + name + "-pub.pem" }

// witnessPubPattern matches every published witness co-signing key.
const witnessPubPattern = "witness-*-pub.pem"

// OpenWitnessKey loads witness name's co-signing key from the statedir,
// generating and persisting a fresh P-256 key on first run, and
// (re)publishes the public half for roster discovery.
func OpenWitnessKey(dir *statedir.Dir, name string) (*WitnessKey, error) {
	var key *ecdsa.PrivateKey
	data, err := dir.Read(witnessKeyFile(name))
	switch {
	case err == nil:
		key, err = statedir.ParseKeyPEM(data)
		if err != nil {
			return nil, fmt.Errorf("translog: persisted witness key: %w", err)
		}
	case errors.Is(err, os.ErrNotExist):
		pem, err := statedir.GenerateKeyPEM()
		if err != nil {
			return nil, err
		}
		if err := dir.Write(witnessKeyFile(name), pem); err != nil {
			return nil, err
		}
		key, err = statedir.ParseKeyPEM(pem)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("translog: reading witness key: %w", err)
	}
	pub, err := statedir.MarshalPubPEM(&key.PublicKey)
	if err != nil {
		return nil, err
	}
	if err := dir.Write(witnessPubFile(name), pub); err != nil {
		return nil, err
	}
	return NewWitnessKey(name, key), nil
}

// WaitForWitnessRoster assembles the roster for a known witness set,
// waiting up to the given patience for each witness to publish its
// co-signing key — the log server's startup path, where the witness
// names come from configuration but the keys belong to the witnesses.
func WaitForWitnessRoster(dir *statedir.Dir, quorum int, names []string, wait time.Duration) (*WitnessRoster, error) {
	keys := make(map[string]*ecdsa.PublicKey, len(names))
	for _, name := range names {
		data, err := dir.WaitFor(witnessPubFile(name), wait)
		if err != nil {
			return nil, fmt.Errorf("translog: waiting for witness %q to publish its co-signing key: %w", name, err)
		}
		pub, err := statedir.ParsePubPEM(data)
		if err != nil {
			return nil, fmt.Errorf("translog: witness %q co-signing key: %w", name, err)
		}
		keys[name] = pub
	}
	return NewWitnessRoster(quorum, keys)
}

// LoadWitnessRoster assembles the roster from every witness public key
// published in the statedir.
func LoadWitnessRoster(dir *statedir.Dir, quorum int) (*WitnessRoster, error) {
	files, err := dir.Match(witnessPubPattern)
	if err != nil {
		return nil, fmt.Errorf("translog: discovering witness keys: %w", err)
	}
	keys := make(map[string]*ecdsa.PublicKey, len(files))
	for _, f := range files {
		name := strings.TrimSuffix(strings.TrimPrefix(f, "witness-"), "-pub.pem")
		data, err := dir.Read(f)
		if err != nil {
			return nil, fmt.Errorf("translog: reading witness key %s: %w", f, err)
		}
		pub, err := statedir.ParsePubPEM(data)
		if err != nil {
			return nil, fmt.Errorf("translog: witness key %s: %w", f, err)
		}
		keys[name] = pub
	}
	return NewWitnessRoster(quorum, keys)
}

// ---- collector ------------------------------------------------------------

// maxCosignSizes bounds the per-size signature sets the collector keeps
// in flight; the oldest sub-quorum size is evicted (and counted as a
// quorum failure) when the bound is hit.
const maxCosignSizes = 16

// CosignCollector is the log-server side of the protocol: it
// accumulates witness co-signatures per head, assembles a CosignedHead
// the moment a size reaches quorum, and counts every witness it catches
// equivocating (translog_cosign_equivocations_total).
// It is deliberately independent of the Log and its commit lock —
// submissions verify signatures and touch only the collector's own
// mutex, so cosign aggregation can never block a sequencer commit
// (pinned by the partitioned-witness race test).
type CosignCollector struct {
	logPub *ecdsa.PublicKey
	roster *WitnessRoster

	mu    sync.Mutex
	sizes map[uint64]*cosignSet
	best  *CosignedHead
}

// cosignSet is the collector's record of one tree size: the log-signed
// head first submitted there and the co-signatures standing behind it,
// by witness.
type cosignSet struct {
	sth  SignedTreeHead
	sigs map[string]WitnessSignature
}

// NewCosignCollector builds a collector verifying heads against the log
// key and co-signatures against the pinned roster.
func NewCosignCollector(logPub *ecdsa.PublicKey, roster *WitnessRoster) *CosignCollector {
	return &CosignCollector{logPub: logPub, roster: roster, sizes: make(map[uint64]*cosignSet)}
}

// Submit folds in one witness co-signature over a served head and
// returns the distinct-signature count now standing behind that head.
// Forged, replayed, mismatched, unknown-witness and duplicate
// submissions are rejected with their distinct sentinels and never
// touch collector state; a submission revealing two roots at one size
// returns the self-verifying *ConflictError, naming the witness as its
// signer when the witness signed both roots, the log otherwise.
func (c *CosignCollector) Submit(sth SignedTreeHead, ws WitnessSignature) (int, error) {
	if err := sth.Verify(c.logPub); err != nil {
		return 0, err
	}
	if err := c.roster.check(sth, ws); err != nil {
		return 0, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	// Every signature held at a size covers the head held there, so a
	// witness's earlier signature at this size either repeats this one
	// or convicts the witness.
	set := c.sizes[sth.Size]
	if set == nil {
		set = c.admitSizeLocked(sth)
	}
	prev, signed := set.sigs[ws.Witness]
	switch {
	case signed && prev.RootHash != ws.RootHash:
		// The log equivocated too (both heads carry its signature), but
		// the witness-equivocation evidence is strictly stronger — it
		// convicts the witness alongside the log — so it wins over the
		// generic split-view verdict below.
		ce := &ConflictError{Kind: ErrWitnessEquivocation, Signer: ws.Witness,
			Have:   SignedTreeHead{Size: prev.Size, RootHash: prev.RootHash, Signature: prev.Signature},
			Got:    SignedTreeHead{Size: ws.Size, RootHash: ws.RootHash, Signature: ws.Signature},
			Detail: fmt.Sprintf("witness %q co-signed two roots at size %d", ws.Witness, ws.Size)}
		mCosignEquivocations.Inc()
		return len(set.sigs), ce
	case signed:
		return len(set.sigs), fmt.Errorf("%w: %q already co-signed size %d", ErrDuplicateWitness, ws.Witness, sth.Size)
	}
	// The *log* signing two heads at one size is a split view, caught
	// here for free because the collector sees every cosigned head.
	if err := checkPrefix(set.sth, sth, nil); err != nil {
		return 0, err
	}
	set.sigs[ws.Witness] = ws
	mCosignSignatures.Inc()
	if len(set.sigs) >= c.roster.Quorum() && (c.best == nil || sth.Size > c.best.STH.Size) {
		c.best = set.assemble()
		c.pruneBelowLocked(sth.Size)
	}
	return len(set.sigs), nil
}

// receiveView is the collector's side of POST /translog/v1/gossip: the
// co-signature a witness's view carries goes through Submit. The reply
// holds no head — the collector has none of its own to gossip.
func (c *CosignCollector) receiveView(in wireGossip) (wireGossip, error) {
	if in.Cosig == nil {
		return wireGossip{}, fmt.Errorf("%w: view from %q carries no co-signature", ErrCosignInvalid, in.Name)
	}
	_, err := c.Submit(in.Head, *in.Cosig)
	return wireGossip{}, err
}

// admitSizeLocked starts tracking a new size, evicting the oldest
// sub-quorum size when the in-flight bound is hit.
func (c *CosignCollector) admitSizeLocked(sth SignedTreeHead) *cosignSet {
	if len(c.sizes) >= maxCosignSizes {
		delete(c.sizes, slices.Min(slices.Collect(maps.Keys(c.sizes))))
		mCosignQuorumFailures.Inc()
	}
	set := &cosignSet{sth: sth, sigs: make(map[string]WitnessSignature, c.roster.Quorum())}
	c.sizes[sth.Size] = set
	return set
}

// pruneBelowLocked drops every tracked size below the newly
// quorum-complete one; each dropped size collected signatures but was
// superseded before reaching quorum.
func (c *CosignCollector) pruneBelowLocked(size uint64) {
	for s := range c.sizes {
		if s < size {
			delete(c.sizes, s)
			mCosignQuorumFailures.Inc()
		}
	}
}

// assemble freezes the set into the quorum artifact, signatures in
// deterministic (name) order.
func (set *cosignSet) assemble() *CosignedHead {
	sigs := slices.Collect(maps.Values(set.sigs))
	sort.Slice(sigs, func(i, j int) bool { return sigs[i].Witness < sigs[j].Witness })
	return &CosignedHead{STH: set.sth, Signatures: sigs}
}

// Cosigned returns the newest quorum co-signed head, or an
// ErrQuorumNotReached-wrapped error when no head has reached quorum
// yet. The signature matches CosignSource.
func (c *CosignCollector) Cosigned() (*CosignedHead, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.best == nil {
		return nil, fmt.Errorf("%w: no head has collected %d co-signatures yet", ErrQuorumNotReached, c.roster.Quorum())
	}
	ch := *c.best
	ch.Signatures = append([]WitnessSignature(nil), c.best.Signatures...)
	return &ch, nil
}

// ---- quorum-gated credential checking -------------------------------------

// ConsistencyProver produces RFC 6962 consistency proofs between two
// tree sizes — a TileAssembler and a TileProofSource qualify.
type ConsistencyProver interface {
	ConsistencyProof(first, second uint64) ([]Hash, error)
}

// NewQuorumCredentialChecker is NewCredentialChecker with the quorum
// trust model: a credential's proof bundle is accepted only when its
// head is covered by a quorum co-signed head — byte-equal to it, or
// consistency-proven into it. pin is the relying party's memory of the
// newest co-signed head it accepted (OpenWitnessState persists it across
// restarts), and its log key verifies every head.
//
// A proof head at or below the pin is judged against the pin alone: no
// fetch and no co-signature check. Only a proof head past the pin
// fetches the newest co-signed head, verifies it against the roster and
// advances the pin with it, so a log server that later serves an older
// co-signed head is convicted (ErrRollback), and one that serves a
// different root at the pinned size too (ErrSplitView), each as the
// *ConflictError over the pinned and the served head. A proof head
// beyond even the fresh co-signed head is refused (ErrQuorumNotReached):
// the log's own signature stopped being sufficient the moment the
// deployment pinned a roster. Its first half is NewCredentialChecker's,
// head memo included.
func NewQuorumCredentialChecker(pin *Witness, roster *WitnessRoster, source ProofSource, proofs ConsistencyProver, cosigned CosignSource) func(*x509.Certificate) error {
	heads := sigmemo.New()
	// mu makes fetch, verify and advance one step: two handshakes racing
	// past the pin would otherwise advance it out of order, and the older
	// co-signed head would read as a rollback.
	var mu sync.Mutex
	advance := func(size uint64) (SignedTreeHead, error) {
		mu.Lock()
		defer mu.Unlock()
		if have, ok := pin.Last(); ok && size <= have.Size {
			return have, nil
		}
		ch, err := cosigned()
		if err != nil {
			return SignedTreeHead{}, err
		}
		if err := ch.Verify(pin.pub, roster); err != nil {
			return SignedTreeHead{}, err
		}
		if err := pin.Advance(ch.STH, proofs.ConsistencyProof); err != nil {
			return SignedTreeHead{}, err
		}
		if size > ch.STH.Size {
			return SignedTreeHead{}, fmt.Errorf("%w: credential proof head at size %d is beyond the newest co-signed head at size %d",
				ErrQuorumNotReached, size, ch.STH.Size)
		}
		return ch.STH, nil
	}
	return func(cert *x509.Certificate) error {
		pb, err := proveCredential(pin.pub, source, heads, cert)
		if err != nil {
			return err
		}
		have, ok := pin.Last()
		if !ok || pb.STH.Size > have.Size {
			if have, err = advance(pb.STH.Size); err != nil {
				return err
			}
		}
		return checkPrefix(have, pb.STH, proofs.ConsistencyProof)
	}
}
