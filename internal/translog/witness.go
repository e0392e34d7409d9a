package translog

import (
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// Witness errors: each names the misbehaviour an auditor would report.
var (
	// ErrRollback reports a tree head older (smaller) than one already
	// observed — the log dropped committed entries.
	ErrRollback = errors.New("translog: tree head rollback")
	// ErrSplitView reports two irreconcilable tree heads — the log showed
	// different histories to different parties (or rewrote its own).
	ErrSplitView = errors.New("translog: split view detected") //lint:allow unusedexport README-documented gossip outcome; reaches callers wrapped in ConflictError evidence
	// ErrWitnessEquivocation reports one witness co-signing two different
	// roots at one tree size.
	ErrWitnessEquivocation = errors.New("translog: witness equivocation") //lint:allow unusedexport conviction contract: reaches callers wrapped in ConflictError evidence, matched by auditors with errors.Is
)

// ConflictError is the evidence form of ErrRollback, ErrSplitView and
// ErrWitnessEquivocation: two statements by one signer that no honest
// signer makes. Both carry the signer's valid signature, so the pair is
// self-certifying — any third party holding the signer's key re-verifies
// the conviction without trusting whoever raised it. (For a rollback
// the pair proves the log signed both heads; the claim that the smaller
// one was served *after* the larger is the observing witness's
// testimony, which is why peers corroborate received convictions
// against their own view before adopting them — see GossipPool.)
type ConflictError struct {
	// Kind is ErrRollback, ErrSplitView or ErrWitnessEquivocation
	// (errors.Is sees through it).
	Kind error
	// Signer names the key behind both statements: empty for the log
	// key, a roster witness name for a witness.
	Signer string
	// Have is the statement held as verified history; Got is the
	// irreconcilable one observed. The log's statements are its signed
	// heads. A witness's are the heads it co-signed: size, root and its
	// co-signature, with no timestamp (a co-signature covers none).
	Have SignedTreeHead
	Got  SignedTreeHead
	// Detail says how the two statements conflict.
	Detail string
}

// conflictKinds labels each verdict kind on the wire and in logs.
var conflictKinds = map[string]error{"rollback": ErrRollback, "split-view": ErrSplitView, "witness-equivocation": ErrWitnessEquivocation}

// KindLabel names the verdict for wire and log serialisation.
func (e *ConflictError) KindLabel() string {
	for label, kind := range conflictKinds {
		if errors.Is(e.Kind, kind) {
			return label
		}
	}
	return "split-view"
}

// conflictJSON is the 409 body and the archived form of a conviction:
// the verdict travels as its label so it decodes as the same
// errors.Is-able kind.
type conflictJSON struct {
	Kind   string         `json:"kind"`
	Signer string         `json:"signer,omitempty"`
	Detail string         `json:"detail"`
	Have   SignedTreeHead `json:"have"`
	Got    SignedTreeHead `json:"got"`
}

// MarshalJSON serialises the evidence with the verdict kind included, so
// archived convictions stay machine-readable.
func (e *ConflictError) MarshalJSON() ([]byte, error) {
	return json.Marshal(conflictJSON{e.KindLabel(), e.Signer, e.Detail, e.Have, e.Got})
}

// UnmarshalJSON decodes the MarshalJSON form; an unknown label decodes
// as a split view.
func (e *ConflictError) UnmarshalJSON(data []byte) error {
	var wc conflictJSON
	if err := json.Unmarshal(data, &wc); err != nil {
		return err
	}
	*e = ConflictError{Kind: conflictKinds[wc.Kind], Signer: wc.Signer, Have: wc.Have, Got: wc.Got, Detail: wc.Detail}
	if e.Kind == nil {
		e.Kind = ErrSplitView
	}
	return nil
}

// Error renders the verdict with both heads summarised.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("%v: %s (have size=%d root=%x… ts=%d; got size=%d root=%x… ts=%d)",
		e.Kind, e.Detail,
		e.Have.Size, e.Have.RootHash[:4], e.Have.Timestamp,
		e.Got.Size, e.Got.RootHash[:4], e.Got.Timestamp)
}

// Unwrap lets errors.Is match the underlying verdict kind.
func (e *ConflictError) Unwrap() error { return e.Kind }

// Verify re-checks the evidence under the signer's key — the log key,
// or the named witness's roster key: both statements must carry its
// valid signature, otherwise the "conviction" proves nothing.
func (e *ConflictError) Verify(pub *ecdsa.PublicKey) error {
	for i, s := range []SignedTreeHead{e.Have, e.Got} {
		var err error
		if e.Signer == "" {
			err = s.Verify(pub)
		} else {
			err = WitnessSignature{Witness: e.Signer, Size: s.Size, RootHash: s.RootHash, Signature: s.Signature}.Verify(pub)
		}
		if err != nil {
			return fmt.Errorf("translog: evidence '%s' statement: %w", [2]string{"have", "got"}[i], err)
		}
	}
	return nil
}

// SelfCertifying reports whether the evidence pair alone proves its
// signer misbehaved to any third party: two signature-valid statements
// of equal size with different roots can never both describe one
// append-only log, no matter who presents them or when.
func (e *ConflictError) SelfCertifying(pub *ecdsa.PublicKey) bool {
	return e.Have.Size == e.Got.Size &&
		e.Have.RootHash != e.Got.RootHash &&
		e.Verify(pub) == nil
}

// checkPrefix is the one rule every party applies to two log-signed
// heads: the smaller must be a prefix of the larger, which at equal size
// means the same root. A consistency proof is fetched through prove only
// when the sizes differ and the smaller tree is not empty; with prove
// nil, only equal sizes are judged. A failed check is an ErrSplitView
// *ConflictError over have (the head held) and got (the head observed).
// A failed fetch comes back as a plain error: the caller is degraded,
// the log is not convicted. Callers apply their own policy for an order
// they refuse outright (a served rollback, a credential head beyond the
// quorum) before calling.
func checkPrefix(have, got SignedTreeHead, prove func(first, second uint64) ([]Hash, error)) error {
	small, large := have, got
	if got.Size < have.Size {
		small, large = got, have
	}
	var proof []Hash
	if small.Size != large.Size {
		if prove == nil {
			return nil
		}
		if small.Size > 0 {
			var err error
			if proof, err = prove(small.Size, large.Size); err != nil {
				return fmt.Errorf("translog: fetching consistency proof: %w", err)
			}
		}
	}
	if VerifyConsistency(small.Size, large.Size, small.RootHash, large.RootHash, proof) == nil {
		return nil
	}
	detail := fmt.Sprintf("head at size %d is not a prefix of head at size %d", small.Size, large.Size)
	if small.Size == large.Size {
		detail = fmt.Sprintf("two signed heads at size %d with different roots", small.Size)
	}
	return &ConflictError{Kind: ErrSplitView, Have: have, Got: got, Detail: detail}
}

// rollback is the conviction of a log serving got after it signed the
// larger have — the verdict callers reach before checkPrefix when the
// smaller head is the one being served now.
func rollback(have, got SignedTreeHead) error {
	return &ConflictError{Kind: ErrRollback, Have: have, Got: got,
		Detail: fmt.Sprintf("log serves %d entries after signing a head covering %d", got.Size, have.Size)}
}

// Witness is the monitor-side state of the gossip protocol: it remembers
// the last verified tree head and refuses to advance to any head that is
// not a signature-valid, consistency-proven extension of it. All methods
// are safe for concurrent use — a witness is shared between its poll
// loop and the gossip endpoints — and no lock is held across a
// consistency-proof fetch, so a stalled log server cannot wedge the
// gossip endpoints behind a witness mutex.
type Witness struct {
	pub *ecdsa.PublicKey

	mu   sync.Mutex
	last SignedTreeHead
	seen bool
	// save, when set (OpenWitnessState), persists every newly accepted
	// head so a witness restart is not amnesia.
	save func(SignedTreeHead) error

	// Partitioned-audit state (SetAssignedShards): the sorted shard
	// slice this witness verifies entry-by-entry, and a chained-hash
	// cursor per shard recording exactly which stream prefix it audited
	// under which head. Cursors are what turn a single-shard rewind —
	// invisible in head size alone once the log regrows — into a
	// conviction by an assigned witness, and what two overlapping
	// witnesses compare during gossip to catch per-shard split views.
	assigned []int
	cursors  map[int]*shardCursor
	// saveCursors, when set (OpenWitnessState), persists the marshalled
	// cursor state so a witness restart is not shard-audit amnesia.
	saveCursors func([]byte) error
}

// shardCursor is one assigned shard's audit progress: how many stream
// entries were verified, the chained mark over them (position, global
// index and leaf hash all folded in), and the served head they were
// last verified against — the "have" side of any shard-level evidence.
type shardCursor struct {
	Count uint64         `json:"count"`
	Mark  Hash           `json:"mark"`
	Head  SignedTreeHead `json:"head"`
}

// NewWitness creates a witness verifying heads against the log public key
// (the VM CA key).
func NewWitness(pub *ecdsa.PublicKey) *Witness {
	return &Witness{pub: pub, cursors: make(map[int]*shardCursor)}
}

// Last returns the most recently accepted tree head.
func (w *Witness) Last() (SignedTreeHead, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.last, w.seen
}

// adoptLocked replaces the accepted head and persists it. Callers hold
// w.mu.
func (w *Witness) adoptLocked(sth SignedTreeHead) error {
	w.last, w.seen = sth, true
	mWitnessHeadSize.Set(int64(sth.Size))
	if w.save == nil {
		return nil
	}
	if err := w.save(sth); err != nil {
		// The in-memory adoption stands — monitoring must not stall on a
		// full disk — but the caller learns persistence is degraded.
		return fmt.Errorf("translog: persisting witness head: %w", err)
	}
	return nil
}

// Advance validates a head served by the log under watch. fetchConsistency
// is called (only when needed, and never under the witness lock) to obtain
// the proof linking the previous head to the new one — typically a
// TileProofSource's ConsistencyProof. On success the witness adopts the new head; on
// failure its state is unchanged and the error says what the log did
// wrong: a *ConflictError carrying both signed heads for
// ErrRollback/ErrSplitView verdicts.
func (w *Witness) Advance(sth SignedTreeHead, fetchConsistency func(first, second uint64) ([]Hash, error)) error {
	if err := sth.Verify(w.pub); err != nil {
		return err
	}
	return w.accept(sth, fetchConsistency, true)
}

// accept is the one path a signature-checked head takes into the
// witness, whether the log under watch served it (Advance) or a gossip
// peer remembers it (GossipPool.mergeHead). The two differ in one
// policy: a served head smaller than ours is a rollback, convicted
// without asking the rolled-back log for a proof it cannot give, while a
// lagging peer legitimately remembers old history and passes once it is
// proven a prefix of ours. Every other verdict is checkPrefix's. The
// proof is fetched without holding w.mu, so a stalled log cannot wedge
// the gossip endpoints; a head is adopted only if the held one did not
// move meanwhile, and judged again against the new one if it did.
func (w *Witness) accept(sth SignedTreeHead, prove func(first, second uint64) ([]Hash, error), served bool) error {
	if prove == nil {
		// Without a prover checkPrefix judges equal sizes only, and a
		// witness must never adopt a head it did not prove.
		prove = func(uint64, uint64) ([]Hash, error) {
			return nil, errors.New("translog: witness has no consistency prover")
		}
	}
	for {
		w.mu.Lock()
		prev, seen := w.last, w.seen
		w.mu.Unlock()
		if seen {
			if served && sth.Size < prev.Size {
				return rollback(prev, sth)
			}
			if err := checkPrefix(prev, sth, prove); err != nil {
				return err
			}
			// A lagging peer head adds nothing, and an equal head is kept
			// only if it is newer: adopting a regressed timestamp would
			// age the freshness signal Last() reports.
			if sth.Size < prev.Size || sth.Size == prev.Size && sth.Timestamp <= prev.Timestamp {
				return nil
			}
		}
		w.mu.Lock()
		if w.seen == seen && w.last.Size == prev.Size && w.last.RootHash == prev.RootHash && w.last.Timestamp == prev.Timestamp {
			defer w.mu.Unlock()
			return w.adoptLocked(sth)
		}
		w.mu.Unlock()
	}
}

// ---- partitioned shard audit ----------------------------------------------

// shardMarkPrefix domain-separates the audit-cursor chain hash.
const shardMarkPrefix = "vnfguard-translog-shardmark-v1"

// chainMark extends a shard cursor's chained hash with one verified
// stream element: the position pins ordering, the global index pins the
// stream-to-tree mapping, and the leaf hash pins the entry bytes. Two
// witnesses that audited the same prefix of the same served stream hold
// the same mark; any substitution, reordering or divergent serving
// forks the chains forever.
func chainMark(prev Hash, pos, index uint64, leaf Hash) Hash {
	h := sha256.New()
	h.Write([]byte(shardMarkPrefix))
	h.Write(prev[:])
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], pos)
	h.Write(u64[:])
	binary.BigEndian.PutUint64(u64[:], index)
	h.Write(u64[:])
	h.Write(leaf[:])
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// SetAssignedShards configures the witness's slice of the partition:
// the shards this witness audits. Cursors for shards no longer assigned
// are kept — reassignment must not amnesia away audited history — but
// only assigned shards are audited and judged from now on.
func (w *Witness) SetAssignedShards(assigned []int) {
	sorted := slices.Sorted(slices.Values(assigned))
	w.mu.Lock()
	defer w.mu.Unlock()
	w.assigned = sorted
	mWitnessAssignedShards.Set(int64(len(sorted)))
}

// snapshotCursorsLocked marshals the cursor state for persistence.
func (w *Witness) snapshotCursorsLocked() ([]byte, error) {
	out := make(map[string]*shardCursor, len(w.cursors))
	for s, cur := range w.cursors {
		out[strconv.Itoa(s)] = cur
	}
	return json.Marshal(out)
}

// restoreCursors seeds a witness not yet shared (OpenWitnessState) with
// its persisted audit cursors. Each cursor's head is signature-checked —
// a tampered cursor file must not plant false audit history
// (ErrStateTampered). An undecodable file is ErrStateCorrupt.
func (w *Witness) restoreCursors(data []byte) error {
	var in map[string]*shardCursor
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("%w: persisted shard cursors undecodable: %v", ErrStateCorrupt, err)
	}
	for key, cur := range in {
		s, err := strconv.Atoi(key)
		if err != nil || cur == nil {
			return fmt.Errorf("%w: persisted shard cursors undecodable: bad shard key %q", ErrStateCorrupt, key)
		}
		if cur.Count > 0 {
			if err := cur.Head.Verify(w.pub); err != nil {
				return fmt.Errorf("%w: persisted cursor for shard %d: %v", ErrStateTampered, s, err)
			}
		}
		w.cursors[s] = cur
	}
	return nil
}

// persistCursors snapshots and saves the cursor state (no-op without a
// persistence hook). The snapshot is taken under the lock; the write
// happens outside it, so a slow disk never blocks the audit path.
func (w *Witness) persistCursors() error {
	w.mu.Lock()
	save := w.saveCursors
	if save == nil {
		w.mu.Unlock()
		return nil
	}
	data, err := w.snapshotCursorsLocked()
	w.mu.Unlock()
	if err != nil {
		return err
	}
	if err := save(data); err != nil {
		return fmt.Errorf("translog: persisting shard cursors: %w", err)
	}
	return nil
}

// AuditShards verifies the witness's assigned shard streams against the
// served head: every not-yet-audited stream element (up to maxPerShard
// per shard per call, 0 for unlimited) is fetched, leaf-hashed and
// inclusion-proven into the served head, then folded into the shard's
// chained cursor. A stream that regressed below an audited cursor is a
// rollback conviction; an element that fails inclusion is a split-view
// conviction — in both cases the evidence pairs the cursor's recorded
// head with the served one. caughtUp reports whether every assigned
// stream is audited up to the head, the precondition for co-signing
// it. This is the whole per-witness audit cost, proportional to the
// assigned slice, not the fleet (experiment E20).
func (w *Witness) AuditShards(served SignedTreeHead, src ShardAuditSource, maxPerShard uint64) (caughtUp bool, err error) {
	if err := served.Verify(w.pub); err != nil {
		return false, err
	}
	w.mu.Lock()
	assigned := w.assigned // replaced whole, never written in place
	w.mu.Unlock()
	var errs []error
	changed, caughtUp := false, true
	for _, s := range assigned {
		adv, done, err := w.auditShard(s, served, src, maxPerShard)
		changed, caughtUp = changed || adv, caughtUp && done
		if err != nil {
			errs = append(errs, err)
		}
	}
	if changed {
		if err := w.persistCursors(); err != nil {
			errs = append(errs, err)
		}
	}
	return caughtUp, errors.Join(errs...)
}

// auditShard advances one shard's cursor against the served head,
// reporting whether the cursor moved and whether no stream element
// under the head is left unaudited. It reads one element past the
// batch to tell the two apart.
func (w *Witness) auditShard(shard int, served SignedTreeHead, src ShardAuditSource, maxPerShard uint64) (advanced, caughtUp bool, err error) {
	w.mu.Lock()
	cur := w.cursors[shard]
	if cur == nil {
		cur = &shardCursor{}
		w.cursors[shard] = cur
	}
	start, mark, lastHead := cur.Count, cur.Mark, cur.Head
	w.mu.Unlock()
	if maxPerShard == 0 {
		maxPerShard = ^uint64(0) - 1 - start
	}
	total, ents, err := src.ShardStream(shard, start, maxPerShard+1)
	if err != nil {
		return false, false, fmt.Errorf("translog: reading shard %d stream: %w", shard, err)
	}
	if total < start {
		have := lastHead
		if start == 0 {
			have = served
		}
		return false, false, &ConflictError{Kind: ErrRollback, Have: have, Got: served,
			Detail: fmt.Sprintf("shard %d stream regressed from %d audited to %d served entries", shard, start, total)}
	}
	pos := start
	for _, ie := range ents {
		if ie.Index >= served.Size {
			// Beyond the head we verified: audit it next round, once a
			// head covering it has been advanced to.
			caughtUp = true
			break
		}
		if pos-start == maxPerShard {
			break // the element past the batch lies under the head
		}
		leaf := LeafHash(ie.Canonical)
		proof, err := src.InclusionProof(ie.Index, served.Size)
		if err != nil {
			// Transport degradation: the cursor stays where it is and the
			// next round retries from the same position.
			return pos > start, false, fmt.Errorf("translog: proving shard %d stream position %d: %w", shard, pos, err)
		}
		if err := VerifyInclusion(leaf, ie.Index, served.Size, proof, served.RootHash); err != nil {
			have := lastHead
			if start == 0 {
				have = served
			}
			return pos > start, false, &ConflictError{Kind: ErrSplitView, Have: have, Got: served,
				Detail: fmt.Sprintf("shard %d stream position %d (index %d) fails inclusion against the served head at size %d",
					shard, pos, ie.Index, served.Size)}
		}
		mark = chainMark(mark, pos, ie.Index, leaf)
		pos++
	}
	caughtUp = caughtUp || pos >= total
	if pos == start {
		return false, caughtUp, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if cur.Count != start {
		// A concurrent audit advanced this shard meanwhile; its chain is
		// as valid as ours and already recorded — keep it, and judge
		// the shard again next round.
		return false, false, nil
	}
	cur.Count, cur.Mark, cur.Head = pos, mark, served
	return true, caughtUp, nil
}

// shardMarks snapshots the audited cursors for the gossip wire: only
// shards actually audited (count > 0) travel — an empty cursor says
// nothing and must not be mistaken for testimony.
func (w *Witness) shardMarks() []wireShardMark {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]wireShardMark, 0, len(w.cursors))
	for s, cur := range w.cursors {
		if cur.Count > 0 {
			out = append(out, wireShardMark{Shard: s, Count: cur.Count, Mark: cur.Mark})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// mergeShardMarks compares a peer witness's audit cursors with ours —
// the partition-aware half of gossip. Only shards both witnesses
// audited to the same depth are comparable: a peer with no mark for a
// shard is legitimately ignorant of it (it is not assigned the shard,
// or has not audited it yet), and a peer at a different count is merely
// ahead or behind — neither is evidence of anything. Equal count with a
// different mark is: both witnesses verified the same stream prefix
// element-by-element against log-signed heads and ended with different
// chains, so the log served diverging shard streams — a split view
// scoped to one shard, invisible to head comparison alone.
func (w *Witness) mergeShardMarks(peerName string, peerHead SignedTreeHead, marks []wireShardMark) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, m := range marks {
		if _, ok := slices.BinarySearch(w.assigned, m.Shard); !ok {
			continue // outside our slice: we hold no first-hand chain to judge with
		}
		cur := w.cursors[m.Shard]
		if cur == nil || cur.Count == 0 || m.Count == 0 {
			continue // one side is ignorant, not conflicting
		}
		if m.Count != cur.Count {
			continue // different audit depth: chains are not comparable
		}
		if m.Mark != cur.Mark {
			return &ConflictError{Kind: ErrSplitView, Have: cur.Head, Got: peerHead,
				Detail: fmt.Sprintf("witness %q audited shard %d to %d entries with a different stream digest than ours",
					peerName, m.Shard, m.Count)}
		}
	}
	return nil
}
