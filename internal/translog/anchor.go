// Trust anchors: the pluggable layer rollback protection hangs off.
//
// A durable log's recovery can replay and checksum its WAL, but "is
// this the *newest* committed state?" can only be answered by a memory
// the attacker could not rewrite alongside the statedir. Each such
// memory is a TrustAnchor. Three ship:
//
//   - the store's own signed tree head, sth.json (catches rewinds that
//     disagree with it);
//   - a witness's persisted head (WitnessAnchor: catches consistent
//     rewinds of segments + head together, as long as the witness state
//     survives);
//   - an enclave-sealed monotonic head (sealed.go — catches even a
//     total-amnesia rewind where the disk and every witness lost state
//     together, because the counter lives in platform hardware).
//
// The store's head and a witness's head are one type, WitnessAnchor: a
// signed-head file with one reader (WitnessAnchor.read) and one writer
// (statedir.ReplaceFile, the project's one atomic-replace helper). A
// relying party's pin of quorum co-signed heads is a witness too
// (NewQuorumCredentialChecker), so it persists through the same file.
// Every anchor compares the recovered state against what it remembers
// through one check (RecoveredState.check), keeping its own sentinels.
// OpenDurableLog runs every configured anchor at recovery and notifies
// every anchor of each committed head, so future anchors (TPM NV, remote
// notary) slot in without another recovery rewrite.
package translog

import (
	"crypto/ecdsa"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"vnfguard/internal/statedir"
)

// RecoveredState is the replayed-and-verified view of a store's disk
// state handed to each trust anchor at open: the durable entry count,
// the size its checkpoint covers, and the recomputed Merkle roots over
// it. Anchors compare it against whatever head they remember.
type RecoveredState struct {
	// Size is the number of durable, decodable entries on disk.
	Size uint64
	// Segments counts the segment files found on disk — distinct from
	// Size because a torn first record decodes to zero entries while
	// the file's existence still proves a genesis head was once
	// persisted.
	Segments int
	// checkpoint is the size the store's checkpoint covers (0 without
	// one). The replay starts there: the roots below it are not
	// recomputed, and no honest anchor remembers a head below it, because
	// a checkpoint is written only for a head the whole chain has
	// acknowledged.
	checkpoint uint64
	// rootAt recomputes the Merkle root over the first n entries, for n
	// at or past checkpoint.
	rootAt func(n uint64) (Hash, error)
}

// RootAt returns the recomputed Merkle root over the first n recovered
// entries, for checkpoint ≤ n ≤ Size: check refuses a remembered size
// below the checkpoint before it asks.
func (s *RecoveredState) RootAt(n uint64) (Hash, error) { return s.rootAt(n) }

// check is every anchor's one comparison, and the one place a remembered
// head meets the checkpoint: the remembered size must lie at or past the
// checkpoint (a head below it — a genesis head included — predates a
// checkpoint that could not exist without it: the state was rewound
// around a newer checkpoint), the state must cover at least the
// remembered size, and its recomputed root at that size must be the
// remembered root. Entries beyond the head (persisted but not yet headed
// when the process died) are legitimate. what names the remembered head
// in the refusal; rollback and tampered are the anchor's sentinels for
// the two ways to fail.
//
// Threat-model boundary: the beyond-head tail is authenticated only by
// its CRC framing, so an attacker with statedir write access could
// append well-formed records there and have recovery re-sign them. That
// attacker already holds the statedir's CA key in the multi-process
// deployment, so no local check can beat them; catching it needs a root
// of trust off this disk — the witness and sealed-counter anchors.
func (s *RecoveredState) check(size uint64, root Hash, what string, rollback, tampered error) error {
	if size < s.checkpoint {
		return fmt.Errorf("%w: the %s covers %d entries, below the checkpoint at %d", rollback, what, size, s.checkpoint)
	}
	if s.Size < size {
		return fmt.Errorf("%w: %d durable entries but the %s covers %d", rollback, s.Size, what, size)
	}
	got, err := s.RootAt(size)
	if err != nil {
		return err
	}
	if got != root {
		return fmt.Errorf("%w: recomputed root at size %d does not match the %s", tampered, size, what)
	}
	return nil
}

// TrustAnchor is one independently rooted memory of the log's newest
// committed head. Implementations must refuse (CheckRecovery error) any
// recovered state older than — or contradicting — what they remember,
// a state whose checkpoint lies past the remembered head included (the
// package's anchors judge all three through RecoveredState.check), and
// must remember every head the store commits. CommitHead of a head
// the anchor already remembers may write nothing: OpenDurableLog
// re-commits the recovered head through the whole chain, so a lagging
// anchor catches up and a current one costs nothing. CommitHead is called
// under the store's commit lock, after the batch's records are durable,
// in the order anchors were configured; an error latches the store
// failed, so a head no anchor recorded is never acknowledged.
// Implementations that hold resources may also implement io.Closer;
// the store closes them on Close.
type TrustAnchor interface {
	// Name identifies the anchor in errors and operator logs.
	Name() string
	// CheckRecovery verifies the recovered disk state against the
	// anchor's remembered head. A nil error means the state is at least
	// as new as everything this anchor remembers.
	CheckRecovery(state *RecoveredState) error
	// CommitHead records a newly committed signed tree head.
	CommitHead(sth SignedTreeHead) error
}

// ---- signed-head file anchor ----------------------------------------------

// WitnessAnchor anchors the log on one remembered signed tree head: a
// JSON file replaced atomically on every commit and never moved
// backwards. Two kinds run on it.
//
// The store's own instance (sth.json in the store directory) is the
// baseline every durable store runs. It catches crashes, torn writes and
// any rewind that disagrees with the persisted head — but not a
// consistent rewind of segments and head together. It honours
// StoreConfig.NoSync, and segment files with no head beside them are
// tampering, not a fresh directory.
//
// A witness's instance (NewWitnessAnchor) keeps the head in the
// witness's own statedir — the same entry a gossiping witness
// (OpenWitnessState) restores and saves, so co-locating the log with one
// witness's state costs nothing extra. Because that statedir is separate
// from the log's, a consistent rewind of the log's segments and sth.json
// together is still caught here — unless the witness state was rewound
// too, which is the sealed anchor's job.
type WitnessAnchor struct {
	path string
	pub  *ecdsa.PublicKey
	// store marks the store's own sth.json; noSync (store only) skips
	// the fsyncs of its replacement.
	store  bool
	noSync bool

	mu   sync.Mutex
	last SignedTreeHead
	seen bool
}

// newSTHAnchor returns the store's own head anchor for a store
// directory, verifying heads against the log public key.
func newSTHAnchor(dir string, pub *ecdsa.PublicKey) *WitnessAnchor {
	return &WitnessAnchor{path: filepath.Join(dir, sthFileName), pub: pub, store: true}
}

// NewWitnessAnchor returns an anchor persisting heads under witness
// name in dir, verified against the log public key. A gossiping witness
// opened later with the same dir and name (OpenWitnessState) restores
// exactly the head this anchor recorded.
func NewWitnessAnchor(dir *statedir.Dir, name string, pub *ecdsa.PublicKey) *WitnessAnchor {
	return &WitnessAnchor{path: dir.Path(witnessHeadFile(name)), pub: pub}
}

// Name implements TrustAnchor.
func (a *WitnessAnchor) Name() string {
	if a.store {
		return "statedir-sth"
	}
	return "witness-head"
}

// what names the remembered head in errors.
func (a *WitnessAnchor) what() string {
	if a.store {
		return "persisted tree head"
	}
	return "witness head"
}

// read decodes the head file without checking its signature; ok=false
// when none was ever written. It is the one reader of every remembered
// head file, so the same bad file is refused the same way whoever reads
// it.
func (a *WitnessAnchor) read() (SignedTreeHead, bool, error) {
	var sth SignedTreeHead
	data, err := os.ReadFile(a.path)
	if errors.Is(err, os.ErrNotExist) {
		return sth, false, nil
	}
	if err != nil {
		return sth, false, fmt.Errorf("translog: reading the %s: %w", a.what(), err)
	}
	if err := json.Unmarshal(data, &sth); err != nil {
		return sth, false, fmt.Errorf("%w: the %s is undecodable: %v", ErrStateCorrupt, a.what(), err)
	}
	return sth, true, nil
}

// load reads the head file and checks its signature: a head the log key
// did not sign is tampering, never trusted history.
func (a *WitnessAnchor) load() (SignedTreeHead, bool, error) {
	sth, ok, err := a.read()
	if err == nil && ok && sth.Verify(a.pub) != nil {
		return SignedTreeHead{}, false, fmt.Errorf("%w: the %s signature is invalid", ErrStateTampered, a.what())
	}
	return sth, ok, err
}

// CheckRecovery verifies the remembered head's signature and that the
// recovered state covers (and hashes to) exactly what it signed.
func (a *WitnessAnchor) CheckRecovery(state *RecoveredState) error {
	sth, ok, err := a.load()
	if err != nil {
		return err
	}
	if !ok {
		if a.store && (state.Segments > 0 || state.checkpoint > 0) {
			// Segment files and checkpoints can only exist after the
			// genesis head was persisted, so a missing head alongside
			// them is deletion, not a fresh directory — even when every
			// record in them was torn away.
			return fmt.Errorf("%w: %d segment file(s) and checkpoint size %d but no persisted tree head",
				ErrStateTampered, state.Segments, state.checkpoint)
		}
		return nil // first run: nothing remembered yet
	}
	if err := state.check(sth.Size, sth.RootHash, a.what(), ErrStateRollback, ErrStateTampered); err != nil {
		return err
	}
	a.mu.Lock()
	a.last, a.seen = sth, true
	a.mu.Unlock()
	return nil
}

// CommitHead replaces the head file with sth, never moving backwards.
// The head it already remembers is not written again. The lock is held
// across the write, so two racing commits land in size order.
func (a *WitnessAnchor) CommitHead(sth SignedTreeHead) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.seen && (sth.Size < a.last.Size || sth.equal(a.last)) {
		return nil
	}
	data, err := json.Marshal(sth)
	if err != nil {
		return fmt.Errorf("translog: encoding tree head: %w", err)
	}
	if err := statedir.ReplaceFile(a.path, data, !a.noSync); err != nil {
		return err
	}
	a.last, a.seen = sth, true
	return nil
}

// remembered returns the head loaded by CheckRecovery (or recorded by
// the latest CommitHead) and whether one exists — the store's
// resumption point.
func (a *WitnessAnchor) remembered() (SignedTreeHead, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.last, a.seen
}
