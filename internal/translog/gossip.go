// Gossip: the multi-party half of rollback protection. The durable store
// (store.go/recover.go) pins the log to its own disk, but an attacker who
// rewinds the WAL segments *and* the persisted signed tree head together
// presents a perfectly consistent earlier state — locally undetectable.
// Witnesses that remember the newest verified head off that disk, persist
// it across their own restarts, and gossip it to each other turn that
// rewind into a cross-witness alarm: somewhere in the set a remembered
// head is larger than the served one, and the two signed heads are
// self-certifying evidence (ConflictError).
package translog

import (
	"crypto/ecdsa"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"vnfguard/internal/statedir"
)

// witnessHeadFile returns the statedir entry name under which witness
// name persists its last-accepted signed tree head.
func witnessHeadFile(name string) string { return "witness-" + name + "-head.json" }

// witnessCursorFile returns the statedir entry name under which witness
// name persists its shard-audit cursors.
func witnessCursorFile(name string) string { return "witness-" + name + "-shards.json" }

// OpenWitnessState returns a witness whose last-accepted head and
// shard-audit cursors are durably persisted in dir: the head through
// the same signed-head file a WitnessAnchor keeps (replaced atomically,
// so readers never see a torn head), the cursors in their own file.
// Both are restored — every head in them signature-checked — so a
// witness restart resumes from remembered history and audited chains
// instead of re-anchoring at whatever the log serves next, which is
// exactly the amnesia a local rollback attack needs. An undecodable
// file is ErrStateCorrupt, a head the log key did not sign
// ErrStateTampered.
func OpenWitnessState(dir *statedir.Dir, name string, pub *ecdsa.PublicKey) (*Witness, error) {
	head := NewWitnessAnchor(dir, name, pub)
	sth, ok, err := head.load()
	if err != nil {
		return nil, err
	}
	w := NewWitness(pub)
	w.last, w.seen = sth, ok
	w.save = head.CommitHead
	entry := witnessCursorFile(name)
	data, err := dir.Read(entry)
	switch {
	case err == nil:
		if err := w.restoreCursors(data); err != nil {
			return nil, err
		}
	case !errors.Is(err, os.ErrNotExist):
		return nil, fmt.Errorf("translog: reading persisted shard cursors: %w", err)
	}
	w.saveCursors = func(data []byte) error { return dir.Write(entry, data) }
	return w, nil
}

// GossipPool runs one witness's side of the gossip protocol: it advances
// on the log's served heads, swaps last-accepted heads with a set of peer
// witnesses, and latches the first ConflictError — two irreconcilable
// signed heads — any of those observations produces.
type GossipPool struct {
	name string
	w    *Witness
	// log is the server under watch: served heads and the collector a
	// co-signing view is posted to.
	log *Client

	// proofs reads the watched log: shard streams, and consistency and
	// audit inclusion proofs assembled from its tiles.
	proofs *TileProofSource

	mu       sync.Mutex
	peers    []*Client
	conflict *ConflictError
	jitter   JitterSource

	// Partitioned mode (EnablePartition): the pinned assignment, this
	// witness's co-signing key (nil: audit without co-signing), and the
	// co-signature over the largest head the log's collector took (nil:
	// none yet).
	part  *WitnessPartition
	key   *WitnessKey
	cosig *WitnessSignature
}

// defaultMaxAuditPerShard bounds how many stream entries one gossip
// round audits per assigned shard, so a witness catching up on a long
// history spreads the work over rounds instead of stalling one.
const defaultMaxAuditPerShard = 4096

// NewGossipPool builds a pool for witness w (named for evidence
// attribution) watching the log served by logClient. The pool assembles
// every proof it needs from the log's tiles through a default-sized
// cache: a fleet of witnesses each advancing on every served head is a
// handful of immutable, usually cached tile fetches per advance, folded
// locally. An assembled proof convinces the witness only through the
// same VerifyConsistency and VerifyInclusion checks any proof must
// pass, so a bad tile fails verification and never passes it.
func NewGossipPool(name string, w *Witness, logClient *Client) *GossipPool {
	return &GossipPool{name: name, w: w, log: logClient, proofs: NewTileProofSource(logClient, 0)}
}

// EnablePartition switches the pool into partitioned-audit mode: the
// witness takes its assigned slice of the shard streams from the pinned
// partition, audits exactly that slice entry-by-entry on every
// exchange, gossips its audit cursors alongside its head, and — when
// key is non-nil — co-signs every fully audited head and posts its view,
// co-signature included, to the watched log's collector. A witness from
// OpenWitnessState persists its audit cursors, so a restart resumes its
// chains instead of re-anchoring them. The partition must know this
// witness.
func (g *GossipPool) EnablePartition(p *WitnessPartition, key *WitnessKey) error {
	assigned := p.AssignedShards(g.name)
	if len(assigned) == 0 {
		return fmt.Errorf("%w: witness %q is not in the partition", ErrPartitionInvalid, g.name)
	}
	if key != nil && key.Name() != g.name {
		return fmt.Errorf("%w: co-signing key is for %q, pool is %q", ErrPartitionInvalid, key.Name(), g.name)
	}
	g.w.SetAssignedShards(assigned)
	g.mu.Lock()
	g.part, g.key = p, key
	g.mu.Unlock()
	return nil
}

// Partition returns the pinned partition in effect (nil: full-fleet
// mode).
func (g *GossipPool) Partition() *WitnessPartition {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.part
}

// Name returns the pool's witness name.
func (g *GossipPool) Name() string { return g.name }

// Witness returns the underlying witness state.
func (g *GossipPool) Witness() *Witness { return g.w }

// AddPeer registers another witness's gossip endpoint.
func (g *GossipPool) AddPeer(c *Client) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.peers = append(g.peers, c)
}

// Peers returns the current peer set.
func (g *GossipPool) Peers() []*Client {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*Client(nil), g.peers...)
}

// SetPeers replaces the peer set wholesale — discovery reruns use this
// to drop witnesses that republished a new gossip URL after a restart,
// instead of accumulating dead endpoints forever.
func (g *GossipPool) SetPeers(clients []*Client) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.peers = append([]*Client(nil), clients...)
}

// Conflict returns the first latched conviction, if any.
func (g *GossipPool) Conflict() *ConflictError {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.conflict
}

// latch records the first conviction; later ones only add noise.
func (g *GossipPool) latch(err error) error {
	var ce *ConflictError
	if errors.As(err, &ce) {
		convictionCounter(ce).Inc()
		g.mu.Lock()
		if g.conflict == nil {
			g.conflict = ce
		}
		g.mu.Unlock()
	}
	return err
}

// receiveView is the server side of POST /translog/v1/gossip: it merges
// the peer's view and returns our own.
func (g *GossipPool) receiveView(in wireGossip) (wireGossip, error) {
	err := g.mergeView(in)
	return g.localView(), err
}

// mergeView folds in a peer's view, sent or answered: its head
// (mergeHead) and, in partitioned mode, its shard marks judged against
// our own chains (only where our assignment overlaps and depths match —
// a peer ignorant of a shard is never evidence).
func (g *GossipPool) mergeView(v wireGossip) error {
	if !v.Seen {
		return nil
	}
	err := g.mergeHead(v.Head)
	if len(v.Marks) > 0 && g.Partition() != nil {
		err = errors.Join(err, g.latch(g.w.mergeShardMarks(v.Name, v.Head, v.Marks)))
	}
	return err
}

// localView snapshots this witness's gossiped view: head plus, in
// partitioned mode, its audit marks and its co-signature when that
// covers the head.
func (g *GossipPool) localView() wireGossip {
	last, seen := g.w.Last()
	out := wireGossip{Name: g.name, Seen: seen, Head: last}
	if g.Partition() != nil {
		out.Marks = g.w.shardMarks()
	}
	g.mu.Lock()
	if c := g.cosig; seen && c != nil && c.Size == last.Size && c.RootHash == last.RootHash {
		out.Cosig = c
	}
	g.mu.Unlock()
	return out
}

// mergeHead is the shared merge path for heads learned from peers. The
// signature is verified exactly once here, at the trust boundary; the
// witness merge below runs on the pre-verified head. A peer head newer
// than what the watched log currently serves is the gossip protocol's
// sharpest verdict: the log signed that head for the peer, so serving
// less now is a rollback — evidence is the peer's head against the
// served one. Consistency proofs fold from the watched log's tiles; a
// tile the server cannot serve degrades the witness, never convicts.
func (g *GossipPool) mergeHead(peer SignedTreeHead) error {
	if err := peer.Verify(g.w.pub); err != nil {
		return err
	}
	if last, seen := g.w.Last(); seen && peer.Size > last.Size {
		// Before asking for a consistency proof the log may not be able to
		// give, compare the peer head with what the log serves right now:
		// served < peer-remembered is a rollback conviction on its own.
		if served, err := g.log.STH(); err == nil && served.Size < peer.Size {
			return g.latch(rollback(peer, served))
		}
	}
	return g.latch(g.w.accept(peer, g.proofs.ConsistencyProof, false))
}

// corroborate makes the one check of a conviction a peer or the log's
// collector reported (an HTTP 409 evidence bundle): a malicious peer
// must not kill honest witnesses with fabricated or replayed evidence.
// Evidence the log key does not verify is dropped, a witness's
// conviction included: that is judged against a roster the pool does
// not hold. Equal-size/different-root pairs are self-certifying and
// latch directly; anything else is a hint: the evidence heads go
// through our own first-hand merge, so the conviction only latches if
// the log really is misbehaving from where we stand.
func (g *GossipPool) corroborate(ce *ConflictError) error {
	if err := ce.Verify(g.w.pub); err != nil {
		return fmt.Errorf("translog: peer conviction with unverifiable evidence dropped: %w", err)
	}
	if ce.SelfCertifying(g.w.pub) {
		g.latch(ce)
		return ce
	}
	for _, head := range []SignedTreeHead{ce.Have, ce.Got} {
		if err := g.mergeHead(head); err != nil {
			return err
		}
	}
	return fmt.Errorf("translog: peer conviction not corroborated from our view (peer reported: %v)", ce)
}

// Exchange runs one gossip round: advance on the served head, then swap
// heads with every peer and merge what they hold. All conflicts are
// latched; the returned error joins everything that went wrong this round
// (transport errors included — a witness that cannot reach its peers is
// degraded, not convicted).
func (g *GossipPool) Exchange() error {
	start := time.Now()
	var errs []error
	if sth, err := g.log.STH(); err != nil {
		errs = append(errs, err)
	} else {
		if last, seen := g.w.Last(); seen && sth.Size >= last.Size {
			mGossipHeadLag.Set(int64(sth.Size - last.Size))
		}
		if err := g.latch(g.w.Advance(sth, g.proofs.ConsistencyProof)); err != nil {
			errs = append(errs, err)
		}
	}
	if g.Partition() != nil {
		if err := g.auditAndCosign(); err != nil {
			errs = append(errs, err)
		}
	}
	peers := g.Peers()
	mGossipPeers.Set(int64(len(peers)))
	for _, p := range peers {
		if err := g.exchange(p, g.localView()); err != nil {
			errs = append(errs, err)
		}
	}
	err := errors.Join(errs...)
	mGossipExchanges.Inc()
	if err != nil {
		mGossipErrors.Inc()
	}
	mGossipSeconds.Observe(time.Since(start))
	mGossipLast.Mark()
	return err
}

// exchange posts a view to a peer or to the log's collector and folds
// in the reply: a view is merged, and a 409 is a conviction claim that
// must be corroborated before it can latch. Transport errors are just
// degradation.
func (g *GossipPool) exchange(c *Client, v wireGossip) error {
	out, err := c.exchangeView(v)
	var ce *ConflictError
	switch {
	case errors.As(err, &ce):
		return g.corroborate(ce)
	case err != nil:
		return err
	}
	return g.mergeView(out)
}

// auditAndCosign runs the partitioned half of an exchange: verify the
// assigned shard streams against the adopted head, and — when this
// audit left no stream entry under the head unverified and a co-signing
// key is held — co-sign it once and post the view carrying the
// co-signature to the watched log's collector. A witness never vouches
// for entries it has not verified.
func (g *GossipPool) auditAndCosign() error {
	last, seen := g.w.Last()
	if !seen {
		return nil
	}
	g.mu.Lock()
	key, done := g.key, g.cosig
	g.mu.Unlock()
	caughtUp, err := g.w.AuditShards(last, g.proofs, defaultMaxAuditPerShard)
	if err != nil {
		return g.latch(err)
	}
	if key == nil || done != nil && last.Size <= done.Size || !caughtUp {
		return nil
	}
	ws, err := key.Cosign(last)
	if err != nil {
		return err
	}
	cosignStart := time.Now()
	err = g.exchange(g.log, wireGossip{Name: g.name, Seen: true, Head: last, Cosig: &ws})
	mCosignSeconds.Observe(time.Since(cosignStart))
	if err != nil && !errors.Is(err, ErrDuplicateWitness) {
		// Duplicates just mean a retried round.
		return err
	}
	g.mu.Lock()
	if g.cosig == nil || last.Size > g.cosig.Size {
		g.cosig = &ws
	}
	g.mu.Unlock()
	return nil
}

// JitterSource yields uniform samples in [0, 1) for exchange-loop
// jitter. Injectable so tests drive the loop deterministically instead
// of sleeping through randomized intervals; nil means the global
// math/rand source.
type JitterSource func() float64

// jitterFrom returns d scaled by a uniform factor in [0.8, 1.2), so a
// fleet of witnesses started together does not synchronise its gossip
// rounds into thundering herds against the log and each other. src is
// the sample source (nil for the global math/rand source).
func jitterFrom(d time.Duration, src JitterSource) time.Duration {
	if src == nil {
		src = rand.Float64
	}
	return time.Duration(float64(d) * (0.8 + 0.4*src()))
}

// SetJitterSource replaces the loop's jitter source (nil restores the
// global math/rand source). Call before Loop starts.
func (g *GossipPool) SetJitterSource(src JitterSource) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.jitter = src
}

// jitterSource returns the configured source (possibly nil).
func (g *GossipPool) jitterSource() JitterSource {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.jitter
}

// Loop exchanges gossip until stop is closed, sleeping a jittered
// interval between rounds. Every round's error (nil included) is passed
// to report, which may be nil; the loop keeps running on errors — the
// conviction stays latched in Conflict() for the caller to act on.
func (g *GossipPool) Loop(interval time.Duration, stop <-chan struct{}, report func(error)) {
	for {
		err := g.Exchange()
		if report != nil {
			report(err)
		}
		t := time.NewTimer(jitterFrom(interval, g.jitterSource()))
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
	}
}
