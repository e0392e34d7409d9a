package translog

import (
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
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
)

// ConflictError is the evidence form of ErrRollback/ErrSplitView: the two
// signed tree heads that cannot both describe one append-only log. Both
// heads carry valid log signatures, so the pair is self-certifying — any
// third party holding the CA certificate can re-verify the conviction
// without trusting the witness that raised it. (For a rollback the pair
// proves the log signed both heads; the claim that the smaller one was
// served *after* the larger is the observing witness's testimony, which
// is why peers corroborate received convictions against their own view
// before adopting them — see GossipPool.)
type ConflictError struct {
	// Kind is ErrRollback or ErrSplitView (errors.Is sees through it).
	Kind error
	// Have is the head the witness holds as verified history.
	Have SignedTreeHead
	// Got is the irreconcilable head that was observed.
	Got SignedTreeHead
	// Detail says how the two heads conflict.
	Detail string
}

// KindLabel names the verdict for wire and log serialisation.
func (e *ConflictError) KindLabel() string {
	if errors.Is(e.Kind, ErrRollback) {
		return "rollback"
	}
	return "split-view"
}

// MarshalJSON serialises the evidence with the verdict kind included, so
// archived convictions stay machine-readable.
func (e *ConflictError) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Kind   string         `json:"kind"`
		Detail string         `json:"detail"`
		Have   SignedTreeHead `json:"have"`
		Got    SignedTreeHead `json:"got"`
	}{e.KindLabel(), e.Detail, e.Have, e.Got})
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

// Verify re-checks the evidence: both heads must carry valid log
// signatures, otherwise the "conviction" proves nothing.
func (e *ConflictError) Verify(pub *ecdsa.PublicKey) error {
	if err := e.Have.Verify(pub); err != nil {
		return fmt.Errorf("translog: evidence 'have' head: %w", err)
	}
	if err := e.Got.Verify(pub); err != nil {
		return fmt.Errorf("translog: evidence 'got' head: %w", err)
	}
	return nil
}

// SelfCertifying reports whether the evidence pair alone proves log
// misbehaviour to any third party: two signature-valid heads of equal
// size with different roots can never both belong to one append-only
// log, no matter who presents them or when.
func (e *ConflictError) SelfCertifying(pub *ecdsa.PublicKey) bool {
	return e.Have.Size == e.Got.Size &&
		e.Have.RootHash != e.Got.RootHash &&
		e.Verify(pub) == nil
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

	// Partitioned-audit state (SetAssignedShards): the shard slice this
	// witness verifies entry-by-entry, and a chained-hash cursor per
	// assigned shard recording exactly which stream prefix it audited
	// under which head. Cursors are what turn a single-shard rewind —
	// invisible in head size alone once the log regrows — into a
	// conviction by an assigned witness, and what two overlapping
	// witnesses compare during gossip to catch per-shard split views.
	shards      int
	assigned    []int
	assignedSet map[int]bool
	cursors     map[int]*shardCursor
	// saveCursors, when set, persists the marshalled cursor state so a
	// witness restart is not shard-audit amnesia.
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
	return &Witness{pub: pub}
}

// Last returns the most recently accepted tree head.
func (w *Witness) Last() (SignedTreeHead, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.last, w.seen
}

// Restore seeds the witness from a previously accepted head (its own
// persisted state). The signature is still checked — a tampered state
// file must not become trusted history — but no consistency proof is
// demanded: the head was already proven when it was first accepted.
func (w *Witness) Restore(sth SignedTreeHead) error {
	if err := sth.Verify(w.pub); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seen && sth.Size < w.last.Size {
		// Never let a restore move the witness backwards.
		return nil
	}
	w.last, w.seen = sth, true
	return nil
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

// proveExtension fetches (outside any lock) and verifies the consistency
// proof that prev extends to next.
func proveExtension(prev, next SignedTreeHead, fetch func(first, second uint64) ([]Hash, error)) error {
	var proof []Hash
	if prev.Size > 0 {
		var err error
		proof, err = fetch(prev.Size, next.Size)
		if err != nil {
			return fmt.Errorf("translog: fetching consistency proof: %w", err)
		}
	}
	if err := VerifyConsistency(prev.Size, next.Size, prev.RootHash, next.RootHash, proof); err != nil {
		return ErrProofInvalid
	}
	return nil
}

// Advance validates a head served by the log under watch. fetchConsistency
// is called (only when needed, and never under the witness lock) to obtain
// the proof linking the previous head to the new one — typically
// Client.ConsistencyProof. On success the witness adopts the new head; on
// failure its state is unchanged and the error says what the log did
// wrong: a *ConflictError carrying both signed heads for
// ErrRollback/ErrSplitView verdicts.
func (w *Witness) Advance(sth SignedTreeHead, fetchConsistency func(first, second uint64) ([]Hash, error)) error {
	if err := sth.Verify(w.pub); err != nil {
		return err
	}
	for {
		w.mu.Lock()
		if !w.seen {
			defer w.mu.Unlock()
			return w.adoptLocked(sth)
		}
		prev := w.last
		switch {
		case sth.Size < prev.Size:
			w.mu.Unlock()
			return &ConflictError{Kind: ErrRollback, Have: prev, Got: sth,
				Detail: fmt.Sprintf("served head regressed from %d to %d entries", prev.Size, sth.Size)}
		case sth.Size == prev.Size:
			defer w.mu.Unlock()
			if sth.RootHash != prev.RootHash {
				return &ConflictError{Kind: ErrSplitView, Have: prev, Got: sth,
					Detail: fmt.Sprintf("two signed heads at size %d with different roots", sth.Size)}
			}
			// Same size, same root: keep whichever head is newest.
			// Adopting a regressed timestamp would silently move Last()
			// backwards in time, aging the freshness signal the witness
			// reports.
			if sth.Timestamp <= prev.Timestamp {
				return nil
			}
			return w.adoptLocked(sth)
		}
		// Extension: prove it without holding the lock, then re-check the
		// state did not move while the proof was in flight.
		w.mu.Unlock()
		switch err := proveExtension(prev, sth, fetchConsistency); {
		case errors.Is(err, ErrProofInvalid):
			return &ConflictError{Kind: ErrSplitView, Have: prev, Got: sth,
				Detail: fmt.Sprintf("head at size %d is not an extension of size %d", sth.Size, prev.Size)}
		case err != nil:
			return err
		}
		w.mu.Lock()
		moved := w.last.Size != prev.Size || w.last.RootHash != prev.RootHash
		if !moved {
			defer w.mu.Unlock()
			return w.adoptLocked(sth)
		}
		w.mu.Unlock()
		// Someone else adopted a different head meanwhile: re-evaluate
		// sth against the new state from scratch.
	}
}

// Merge folds in a head remembered by a gossip peer. Unlike Advance, a
// smaller head is not a rollback verdict — a lagging peer legitimately
// remembers old history — but it must still be consistency-provable into
// ours, and an equal-size head must share our root: two signed heads that
// cannot be reconciled are a split view whoever holds them. A larger
// consistent head is adopted, so gossip spreads the newest view through
// the witness set. fetchConsistency asks the log under watch for proofs.
func (w *Witness) Merge(sth SignedTreeHead, fetchConsistency func(first, second uint64) ([]Hash, error)) error {
	if err := sth.Verify(w.pub); err != nil {
		return err
	}
	return w.mergeVerified(sth, fetchConsistency)
}

// mergeVerified is Merge for a head whose signature the caller already
// checked (GossipPool verifies once at its trust boundary).
func (w *Witness) mergeVerified(sth SignedTreeHead, fetchConsistency func(first, second uint64) ([]Hash, error)) error {
	for {
		w.mu.Lock()
		if !w.seen {
			defer w.mu.Unlock()
			return w.adoptLocked(sth)
		}
		prev := w.last
		if sth.Size == prev.Size {
			defer w.mu.Unlock()
			if sth.RootHash != prev.RootHash {
				return &ConflictError{Kind: ErrSplitView, Have: prev, Got: sth,
					Detail: fmt.Sprintf("peer holds a different root at size %d", sth.Size)}
			}
			if sth.Timestamp <= prev.Timestamp {
				return nil
			}
			return w.adoptLocked(sth)
		}
		w.mu.Unlock()

		if sth.Size < prev.Size {
			// The peer lags; prove its old head is a prefix of ours. No
			// adoption happens, so a concurrent state change is harmless.
			switch err := proveExtension(sth, prev, fetchConsistency); {
			case errors.Is(err, ErrProofInvalid):
				return &ConflictError{Kind: ErrSplitView, Have: prev, Got: sth,
					Detail: fmt.Sprintf("peer head at size %d is not a prefix of size %d", sth.Size, prev.Size)}
			default:
				return err
			}
		}
		switch err := proveExtension(prev, sth, fetchConsistency); {
		case errors.Is(err, ErrProofInvalid):
			return &ConflictError{Kind: ErrSplitView, Have: prev, Got: sth,
				Detail: fmt.Sprintf("peer head at size %d is not an extension of size %d", sth.Size, prev.Size)}
		case err != nil:
			return err
		}
		w.mu.Lock()
		moved := w.last.Size != prev.Size || w.last.RootHash != prev.RootHash
		if !moved {
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
// the total shard count and the sorted shard list this witness audits.
// Cursors for shards no longer assigned are kept — reassignment must
// not amnesia away audited history — but only assigned shards are
// audited and judged from now on.
func (w *Witness) SetAssignedShards(total int, assigned []int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.shards = total
	w.assigned = append([]int(nil), assigned...)
	sort.Ints(w.assigned)
	w.assignedSet = make(map[int]bool, len(assigned))
	for _, s := range w.assigned {
		w.assignedSet[s] = true
	}
	if w.cursors == nil {
		w.cursors = make(map[int]*shardCursor, len(assigned))
	}
	mWitnessAssignedShards.Set(int64(len(w.assigned)))
}

// AssignedShards returns the sorted shard list this witness audits
// (nil: partitioning off, the witness follows the whole fleet).
func (w *Witness) AssignedShards() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]int(nil), w.assigned...)
}

// snapshotCursorsLocked marshals the cursor state for persistence.
func (w *Witness) snapshotCursorsLocked() ([]byte, error) {
	out := make(map[string]*shardCursor, len(w.cursors))
	for s, cur := range w.cursors {
		out[strconv.Itoa(s)] = cur
	}
	return json.Marshal(out)
}

// restoreCursors seeds the audit cursors from persisted state. Each
// cursor's head is signature-checked — a tampered cursor file must not
// plant false audit history — and a cursor never moves backwards.
func (w *Witness) restoreCursors(data []byte) error {
	var in map[string]*shardCursor
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("translog: persisted shard cursors undecodable: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cursors == nil {
		w.cursors = make(map[int]*shardCursor, len(in))
	}
	for key, cur := range in {
		s, err := strconv.Atoi(key)
		if err != nil || cur == nil {
			return fmt.Errorf("translog: persisted shard cursors undecodable: bad shard key %q", key)
		}
		if cur.Count > 0 {
			if err := cur.Head.Verify(w.pub); err != nil {
				return fmt.Errorf("translog: persisted cursor for shard %d: %w", s, err)
			}
		}
		if have := w.cursors[s]; have == nil || cur.Count > have.Count {
			w.cursors[s] = cur
		}
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
// head with the served one. This is the whole per-witness audit cost,
// proportional to the assigned slice, not the fleet (experiment E20).
func (w *Witness) AuditShards(served SignedTreeHead, src ShardAuditSource, maxPerShard uint64) error {
	if err := served.Verify(w.pub); err != nil {
		return err
	}
	w.mu.Lock()
	assigned := append([]int(nil), w.assigned...)
	w.mu.Unlock()
	var errs []error
	changed := false
	for _, s := range assigned {
		adv, err := w.auditShard(s, served, src, maxPerShard)
		changed = changed || adv
		if err != nil {
			errs = append(errs, err)
		}
	}
	if changed {
		if err := w.persistCursors(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// auditShard advances one shard's cursor against the served head,
// reporting whether the cursor moved.
func (w *Witness) auditShard(shard int, served SignedTreeHead, src ShardAuditSource, maxPerShard uint64) (bool, error) {
	w.mu.Lock()
	cur := w.cursors[shard]
	if cur == nil {
		cur = &shardCursor{}
		w.cursors[shard] = cur
	}
	start, mark, lastHead := cur.Count, cur.Mark, cur.Head
	w.mu.Unlock()
	if maxPerShard == 0 {
		maxPerShard = ^uint64(0) - start
	}
	total, ents, err := src.ShardStream(shard, start, maxPerShard)
	if err != nil {
		return false, fmt.Errorf("translog: reading shard %d stream: %w", shard, err)
	}
	if total < start {
		have := lastHead
		if start == 0 {
			have = served
		}
		return false, &ConflictError{Kind: ErrRollback, Have: have, Got: served,
			Detail: fmt.Sprintf("shard %d stream regressed from %d audited to %d served entries", shard, start, total)}
	}
	pos := start
	for _, ie := range ents {
		if ie.Index >= served.Size {
			// Beyond the head we verified: audit it next round, once a
			// head covering it has been advanced to.
			break
		}
		leaf := LeafHash(ie.Canonical)
		proof, err := src.InclusionProof(ie.Index, served.Size)
		if err != nil {
			// Transport degradation: the cursor stays where it is and the
			// next round retries from the same position.
			return pos > start, fmt.Errorf("translog: proving shard %d stream position %d: %w", shard, pos, err)
		}
		if err := VerifyInclusion(leaf, ie.Index, served.Size, proof, served.RootHash); err != nil {
			have := lastHead
			if start == 0 {
				have = served
			}
			return pos > start, &ConflictError{Kind: ErrSplitView, Have: have, Got: served,
				Detail: fmt.Sprintf("shard %d stream position %d (index %d) fails inclusion against the served head at size %d",
					shard, pos, ie.Index, served.Size)}
		}
		mark = chainMark(mark, pos, ie.Index, leaf)
		pos++
	}
	if pos == start {
		return false, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if cur.Count != start {
		// A concurrent audit advanced this shard meanwhile; its chain is
		// as valid as ours and already recorded — keep it.
		return false, nil
	}
	cur.Count, cur.Mark, cur.Head = pos, mark, served
	return true, nil
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
		if !w.assignedSet[m.Shard] {
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
