package translog

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vnfguard/internal/obs"
)

// TestWitnessPartitionDeterminism pins the property every component
// leans on: the assignment is a pure function of (shards, witness set,
// quorum). Input order, duplicates and rebuilds must not move a single
// shard.
func TestWitnessPartitionDeterminism(t *testing.T) {
	base := []string{"w3", "w0", "w2", "w1", "w4"}
	shuffled := []string{"w1", "w4", "w0", "w0", "w3", "w2", "w2"}
	a, err := NewWitnessPartition(16, base, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWitnessPartition(16, shuffled, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range a.Names() {
		if !reflect.DeepEqual(a.AssignedShards(name), b.AssignedShards(name)) {
			t.Fatalf("assignment for %q depends on input order: %v vs %v",
				name, a.AssignedShards(name), b.AssignedShards(name))
		}
	}
	// A restart derives the same partition through the pinned config.
	dir := testStatedir(t)
	cfg := PartitionConfig{Shards: 16, Quorum: 3, Witnesses: shuffled}
	if err := SavePartitionConfig(dir, cfg); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPartitionConfig(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := loaded.Partition()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range a.Names() {
		if !reflect.DeepEqual(a.AssignedShards(name), c.AssignedShards(name)) {
			t.Fatalf("pinned-config restart diverged for %q", name)
		}
	}
}

// TestWitnessPartitionCoverage: every shard must be audited by exactly
// Q distinct witnesses, the two assignment views must agree, and the
// load must stay balanced — no witness audits more than Q shards beyond
// the lightest one.
func TestWitnessPartitionCoverage(t *testing.T) {
	cases := []struct{ shards, witnesses, quorum int }{
		{1, 1, 1}, {8, 8, 3}, {8, 3, 2}, {16, 8, 3}, {64, 8, 8}, {5, 12, 4}, {256, 16, 3},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("s%d_n%d_q%d", tc.shards, tc.witnesses, tc.quorum), func(t *testing.T) {
			names := make([]string, tc.witnesses)
			for i := range names {
				names[i] = fmt.Sprintf("w%02d", i)
			}
			p, err := NewWitnessPartition(tc.shards, names, tc.quorum)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < tc.shards; s++ {
				who := p.WitnessesFor(s)
				seen := make(map[string]bool, len(who))
				for _, name := range who {
					if seen[name] {
						t.Fatalf("shard %d assigned twice to %q", s, name)
					}
					seen[name] = true
					if !p.Covers(name, s) {
						t.Fatalf("WitnessesFor(%d) includes %q but Covers disagrees", s, name)
					}
				}
				if len(who) != tc.quorum {
					t.Fatalf("shard %d covered by %d witnesses, want %d", s, len(who), tc.quorum)
				}
			}
			minLoad, maxLoad := tc.shards*tc.quorum, 0
			total := 0
			for _, name := range p.Names() {
				n := len(p.AssignedShards(name))
				total += n
				if n < minLoad {
					minLoad = n
				}
				if n > maxLoad {
					maxLoad = n
				}
			}
			if total != tc.shards*tc.quorum {
				t.Fatalf("total assignments %d, want shards*quorum = %d", total, tc.shards*tc.quorum)
			}
			if maxLoad-minLoad > tc.quorum {
				t.Fatalf("unbalanced assignment: loads span %d..%d", minLoad, maxLoad)
			}
		})
	}
}

// TestWitnessPartitionErrors: every unsatisfiable shape is refused with
// the errors.Is-able sentinel, never a panic or a silent partial
// partition.
func TestWitnessPartitionErrors(t *testing.T) {
	cases := []struct {
		name      string
		shards    int
		witnesses []string
		quorum    int
	}{
		{"zero-shards", 0, []string{"w0"}, 1},
		{"negative-shards", -4, []string{"w0"}, 1},
		{"no-witnesses", 8, nil, 1},
		{"zero-quorum", 8, []string{"w0", "w1"}, 0},
		{"quorum-exceeds-set", 8, []string{"w0", "w1"}, 3},
		{"quorum-exceeds-deduped-set", 8, []string{"w0", "w0", "w0"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewWitnessPartition(tc.shards, tc.witnesses, tc.quorum); !errors.Is(err, ErrPartitionInvalid) {
				t.Fatalf("got %v, want ErrPartitionInvalid", err)
			}
		})
	}
}

// TestWitnessPartitionCoversHost ties the audit-plane assignment to the
// write-plane mapping: the witnesses covering the shard a host's entries
// route to (ShardOf) are exactly the Q that WitnessesFor names.
func TestWitnessPartitionCoversHost(t *testing.T) {
	names := []string{"w0", "w1", "w2", "w3"}
	p, err := NewWitnessPartition(8, names, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		host := fmt.Sprintf("host-%d", i)
		shard := ShardOf(host, 8)
		var covering []string
		for _, name := range names {
			if p.Covers(name, shard) {
				covering = append(covering, name)
			}
		}
		if want := p.WitnessesFor(shard); !reflect.DeepEqual(covering, want) || len(want) != 2 {
			t.Fatalf("host %q (shard %d): covered by %v, WitnessesFor says %v", host, shard, covering, want)
		}
	}
}

// TestPartitionConfigRoundTrip pins the statedir contract: a missing
// pin reads as os.ErrNotExist (an unpartitioned deployment), junk is
// ErrPartitionInvalid, and an unsatisfiable shape is refused at save
// time so a broken pin can never be written.
func TestPartitionConfigRoundTrip(t *testing.T) {
	dir := testStatedir(t)
	if _, err := LoadPartitionConfig(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing pin: got %v, want os.ErrNotExist", err)
	}
	if err := SavePartitionConfig(dir, PartitionConfig{Shards: 8, Quorum: 9, Witnesses: []string{"w0"}}); !errors.Is(err, ErrPartitionInvalid) {
		t.Fatalf("unsatisfiable pin saved: %v", err)
	}
	if err := dir.Write("witness-partition.json", []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPartitionConfig(dir); !errors.Is(err, ErrPartitionInvalid) {
		t.Fatalf("junk pin: got %v, want ErrPartitionInvalid", err)
	}
	want := PartitionConfig{Shards: 8, Quorum: 3, Witnesses: []string{"w0", "w1", "w2", "w3"}}
	if err := SavePartitionConfig(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPartitionConfig(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the pin: %+v != %+v", got, want)
	}
}

// auditedWitness builds a partitioned witness that has advanced on the
// log's head and fully audited its assigned shards.
func auditedWitness(t *testing.T, l *Log, pub *ecdsa.PublicKey, assigned []int) *Witness {
	t.Helper()
	w := NewWitness(pub)
	w.SetAssignedShards(assigned)
	fetch := logProofs(l).ConsistencyProof
	if err := w.Advance(l.STH(), fetch); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AuditShards(l.STH(), logProofs(l), 0); err != nil {
		t.Fatal(err)
	}
	return w
}

// shardedTestLog builds an in-memory log with shard streams over
// hosts*perHost entries.
func shardedTestLog(t *testing.T, shards, hosts, perHost int) (*Log, *ecdsa.PrivateKey) {
	t.Helper()
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.EnableShardStreams(shards); err != nil {
		t.Fatal(err)
	}
	var batch []Entry
	for h := 0; h < hosts; h++ {
		for i := 0; i < perHost; i++ {
			batch = append(batch, Entry{
				Type: EntryAttestOK, Timestamp: int64(1700000000000 + h*perHost + i),
				Actor: fmt.Sprintf("fw-%d-%d", h, i), Host: fmt.Sprintf("host-%d", h), Detail: "OK",
			})
		}
	}
	if _, err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	return l, key
}

// TestShardMarksIgnoranceIsNotEvidence is the satellite false-conviction
// regression: under partitioning a peer that holds no mark for a shard
// — or a mark at a different audit depth — is legitimately ignorant or
// merely behind, never split-view evidence. Only an equal-depth chain
// divergence on a shard WE audit first-hand may convict.
func TestShardMarksIgnoranceIsNotEvidence(t *testing.T) {
	l, key := shardedTestLog(t, 4, 8, 5)
	w := auditedWitness(t, l, &key.PublicKey, []int{0, 1})
	head, _ := w.Last()
	ours := w.shardMarks()
	if len(ours) == 0 {
		t.Fatal("audited witness gossips no marks")
	}

	// A peer with NO marks at all (a freshly started witness, or one
	// assigned a disjoint slice): nothing to judge.
	if err := w.mergeShardMarks("peer", head, nil); err != nil {
		t.Fatalf("markless peer convicted: %v", err)
	}
	// A peer reporting only a shard outside our assignment, with a mark
	// we could never have computed: outside our slice we hold no
	// first-hand chain, so it is not evidence either way.
	foreign := []wireShardMark{{Shard: 3, Count: ours[0].Count, Mark: Hash{0xde, 0xad}}}
	if err := w.mergeShardMarks("peer", head, foreign); err != nil {
		t.Fatalf("foreign-shard mark convicted: %v", err)
	}
	// A peer behind us on our own shard, mark bytes diverging from our
	// cursor's current value — chains at different depths are simply not
	// comparable.
	lagging := []wireShardMark{{Shard: ours[0].Shard, Count: ours[0].Count - 1, Mark: Hash{0xbe, 0xef}}}
	if err := w.mergeShardMarks("peer", head, lagging); err != nil {
		t.Fatalf("lagging peer convicted: %v", err)
	}
	// A zero-count mark must read as ignorance even if a buggy or
	// malicious peer ships one explicitly.
	empty := []wireShardMark{{Shard: ours[0].Shard, Count: 0, Mark: Hash{0x01}}}
	if err := w.mergeShardMarks("peer", head, empty); err != nil {
		t.Fatalf("zero-count mark convicted: %v", err)
	}
	// An honest peer that audited the same slice agrees chain-for-chain.
	if err := w.mergeShardMarks("peer", head, ours); err != nil {
		t.Fatalf("identical marks convicted: %v", err)
	}

	// The one case that IS evidence: same shard, same depth, different
	// chain — the log served the two witnesses diverging stream content.
	diverged := []wireShardMark{{Shard: ours[0].Shard, Count: ours[0].Count, Mark: Hash{0x66}}}
	err := w.mergeShardMarks("peer", head, diverged)
	var ce *ConflictError
	if !errors.As(err, &ce) || !errors.Is(err, ErrSplitView) {
		t.Fatalf("equal-depth divergent chains not convicted: %v", err)
	}
	if ce.Have.Size != head.Size {
		t.Fatalf("conviction evidence lost the audited head: %+v", ce)
	}
}

// TestMergeEqualHeadTiebreakKeepsAuditState is the other half of the
// satellite fix: the equal-size tiebreak (newest timestamp wins) is a
// freshness refinement, not a history change — adopting a re-signed
// equal head must never disturb the shard audit cursors a partitioned
// witness has built, and a stale re-served head must not be treated as
// an attack.
func TestMergeEqualHeadTiebreakKeepsAuditState(t *testing.T) {
	l, key := shardedTestLog(t, 4, 8, 5)
	w := auditedWitness(t, l, &key.PublicKey, []int{0, 1})
	head, _ := w.Last()
	marksBefore := w.shardMarks()
	logSrv := httptest.NewServer(Handler(l))
	defer logSrv.Close()
	merge := gossipTo(t, w, logSrv.URL)

	resign := func(ts int64) SignedTreeHead {
		t.Helper()
		sth := SignedTreeHead{Size: head.Size, RootHash: head.RootHash, Timestamp: ts}
		digest := sth.signingDigest()
		sig, err := ecdsa.SignASN1(rand.Reader, key, digest[:])
		if err != nil {
			t.Fatal(err)
		}
		sth.Signature = sig
		return sth
	}

	// Stale re-serving: benign, not adopted, no conviction.
	if err := merge(resign(head.Timestamp - 60_000)); err != nil {
		t.Fatalf("stale equal head treated as an attack: %v", err)
	}
	if got, _ := w.Last(); got.Timestamp != head.Timestamp {
		t.Fatalf("stale head adopted: %d → %d", head.Timestamp, got.Timestamp)
	}
	// Fresher signature over the identical tree: adopted — and the audit
	// chains survive untouched, because nothing about history changed.
	newer := resign(head.Timestamp + 60_000)
	if err := merge(newer); err != nil {
		t.Fatalf("fresh equal head refused: %v", err)
	}
	if got, _ := w.Last(); got.Timestamp != newer.Timestamp {
		t.Fatalf("fresh head not adopted: %d, want %d", got.Timestamp, newer.Timestamp)
	}
	if !reflect.DeepEqual(w.shardMarks(), marksBefore) {
		t.Fatal("equal-head adoption disturbed the shard audit cursors")
	}
	// And auditing against the re-signed head finds nothing new to do.
	if _, err := w.AuditShards(newer, logProofs(l), 0); err != nil {
		t.Fatalf("audit against re-signed head: %v", err)
	}
	if !reflect.DeepEqual(w.shardMarks(), marksBefore) {
		t.Fatal("re-audit after tiebreak adoption moved the cursors")
	}
}

// TestGossipPartitionedPeersNoFalseConviction runs the pool-level
// regression: two partitioned witnesses with disjoint slices — each
// fully audited on its own — exchange views in both directions and must
// not convict an honest log, while a third witness sharing a slice
// corroborates chains instead of conflicting.
func TestGossipPartitionedPeersNoFalseConviction(t *testing.T) {
	l, key := shardedTestLog(t, 4, 8, 5)
	logSrv := httptest.NewServer(Handler(l))
	defer logSrv.Close()
	part, err := NewWitnessPartition(4, []string{"wa", "wb"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) (*GossipPool, string) {
		p, url := testPool(t, name, &key.PublicKey, logSrv.URL)
		if err := p.EnablePartition(part, nil); err != nil {
			t.Fatal(err)
		}
		return p, url
	}
	pa, ua := mk("wa")
	pb, ub := mk("wb")
	pa.AddPeer(NewClient(ub, &key.PublicKey))
	pb.AddPeer(NewClient(ua, &key.PublicKey))
	if got := append(part.AssignedShards("wa"), part.AssignedShards("wb")...); len(got) != 4 {
		t.Fatalf("Q=1 over 2 witnesses should split 4 shards disjointly, got %v", got)
	}
	for round := 0; round < 2; round++ {
		for _, p := range []*GossipPool{pa, pb} {
			if err := p.Exchange(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if pa.Conflict() != nil || pb.Conflict() != nil {
		t.Fatalf("disjoint-slice witnesses convicted an honest log: %v / %v", pa.Conflict(), pb.Conflict())
	}

	// A third witness sharing wa's slice: equal-depth marks agree.
	part3, err := NewWitnessPartition(4, []string{"wa", "wb", "wc"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	pc, _ := testPool(t, "wc", &key.PublicKey, logSrv.URL)
	if err := pc.EnablePartition(part3, nil); err != nil {
		t.Fatal(err)
	}
	pc.AddPeer(NewClient(ua, &key.PublicKey))
	for round := 0; round < 2; round++ {
		if err := pc.Exchange(); err != nil {
			t.Fatal(err)
		}
	}
	if pc.Conflict() != nil || pa.Conflict() != nil {
		t.Fatalf("overlapping honest witnesses convicted each other: %v / %v", pc.Conflict(), pa.Conflict())
	}
}

// TestCosignAggregationNeverBlocksSequencerCommit extends the scrape
// stress test to the partitioned audit plane: 8 partitioned witnesses
// gossip (auditing their slices and co-signing) while the sharded
// sequencer commits and a Prometheus scrape loop runs. The collector is
// deliberately independent of the log's commit lock — pinned directly
// by holding l.mu while Submit and Cosigned complete — and the whole
// workload must end with a quorum co-signed head and zero convictions.
func TestCosignAggregationNeverBlocksSequencerCommit(t *testing.T) {
	key := testSigner(t)
	dir := t.TempDir()
	l, err := OpenDurableLog(key, dir, StoreConfig{Shards: 8, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.EnableShardStreams(8); err != nil {
		t.Fatal(err)
	}

	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
	}
	part, err := NewWitnessPartition(8, names, 3)
	if err != nil {
		t.Fatal(err)
	}
	wd := testStatedir(t)
	keys := make(map[string]*WitnessKey, len(names))
	for _, name := range names {
		if keys[name], err = OpenWitnessKey(wd, name); err != nil {
			t.Fatal(err)
		}
	}
	roster, err := LoadWitnessRoster(wd, 3)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCosignCollector(&key.PublicKey, roster)
	mux := http.NewServeMux()
	cosignH := CosignHandler(col)
	mux.Handle("/translog/v1/gossip", cosignH)
	mux.Handle("/translog/v1/cosigned", cosignH)
	mux.Handle("/", Handler(l))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	pools := make([]*GossipPool, len(names))
	for i, name := range names {
		w := NewWitness(&key.PublicKey)
		pools[i] = NewGossipPool(name, w, NewClient(srv.URL, &key.PublicKey))
		if err := pools[i].EnablePartition(part, keys[name]); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var exchanges, scrapes atomic.Int64
	for _, p := range pools {
		wg.Add(1)
		go func(p *GossipPool) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Transport races with commits are expected mid-storm;
				// convictions are checked at the end.
				_ = p.Exchange()
				exchanges.Add(1)
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := obs.Default().WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			scrapes.Add(1)
		}
	}()

	sa := NewShardedAppender(l, ShardedAppenderConfig{Shards: 8, FlushInterval: time.Millisecond})
	const entries = 256
	for i := 0; i < entries; i++ {
		e := Entry{Type: EntryAttestOK, Actor: "vnf", Host: fmt.Sprintf("host-%d", i%8), Detail: "OK"}
		if err := sa.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := sa.Close(); err != nil {
		t.Fatal(err)
	}

	// The direct pin: cosign aggregation must not touch the commit lock.
	// With l.mu held exclusively, a submission and a quorum read must
	// still complete.
	l.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		head := l.sth // commit lock is held by us; direct read is safe
		ws, err := keys[names[0]].Cosign(head)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := col.Submit(head, ws); err != nil && !errors.Is(err, ErrDuplicateWitness) {
			t.Error(err)
		}
		if _, err := col.Cosigned(); err != nil && !errors.Is(err, ErrQuorumNotReached) {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cosign aggregation blocked behind the commit lock")
	}
	l.mu.Unlock()

	close(stop)
	wg.Wait()
	if scrapes.Load() == 0 || exchanges.Load() == 0 {
		t.Fatalf("storm did not overlap: %d scrapes, %d exchanges", scrapes.Load(), exchanges.Load())
	}
	for i, p := range pools {
		if p.Conflict() != nil {
			t.Fatalf("witness %d convicted an honest log mid-storm: %v", i, p.Conflict())
		}
	}
	// Quiesced: one final round audits everyone up to the final head and
	// the collector must assemble a quorum artifact for it.
	final := l.STH()
	for _, p := range pools {
		if err := p.Exchange(); err != nil {
			t.Fatal(err)
		}
	}
	ch, err := col.Cosigned()
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Verify(&key.PublicKey, roster); err != nil {
		t.Fatal(err)
	}
	if ch.STH.Size != final.Size {
		t.Fatalf("quorum artifact at size %d, want final size %d", ch.STH.Size, final.Size)
	}
}

// TestPartitionedExchangeReadsEachShardOnce: one exchange of a
// co-signing partitioned witness reads each assigned shard stream once —
// the audit's own read, one element past its batch, tells whether the
// shard is caught up — and co-signs the head in that same round.
func TestPartitionedExchangeReadsEachShardOnce(t *testing.T) {
	l, key := shardedTestLog(t, 4, 8, 5)
	keys, roster := testWitnessKeys(t, 2, 1)
	col := NewCosignCollector(&key.PublicKey, roster)
	var reads atomic.Int64
	mux := http.NewServeMux()
	mux.Handle(pathGossip, CosignHandler(col))
	mux.Handle("/", Handler(l))
	logSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == pathShard {
			reads.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	defer logSrv.Close()
	part, err := NewWitnessPartition(4, []string{"w0", "w1"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewGossipPool("w0", NewWitness(&key.PublicKey), NewClient(logSrv.URL, &key.PublicKey))
	if err := pool.EnablePartition(part, keys["w0"]); err != nil {
		t.Fatal(err)
	}
	if err := pool.Exchange(); err != nil {
		t.Fatal(err)
	}
	if got, want := reads.Load(), int64(len(part.AssignedShards("w0"))); got != want {
		t.Fatalf("one exchange made %d shard-stream requests, want one per assigned shard (%d)", got, want)
	}
	ch, err := col.Cosigned()
	if err != nil {
		t.Fatalf("head not co-signed in the audit's round: %v", err)
	}
	if ch.STH.Size != l.Size() {
		t.Fatalf("co-signed size %d, want the served head at %d", ch.STH.Size, l.Size())
	}
}

// TestAuditShardsCaughtUpPastHead: AuditShards reads one element past
// its capped batch. A shard whose next element lies past the head is
// caught up, though more stream follows; one whose next element lies
// under the head is not, and a later call finishes it.
func TestAuditShardsCaughtUpPastHead(t *testing.T) {
	l, key := shardedTestLog(t, 1, 2, 3)
	head := l.STH() // 6 entries, all in shard 0
	if _, err := l.AppendBatch([]Entry{testEntry(6), testEntry(7)}); err != nil {
		t.Fatal(err)
	}
	audit := func(w *Witness, batch uint64) (uint64, bool) {
		t.Helper()
		caughtUp, err := w.AuditShards(head, logProofs(l), batch)
		if err != nil {
			t.Fatal(err)
		}
		return w.cursors[0].Count, caughtUp
	}
	exact := NewWitness(&key.PublicKey)
	exact.SetAssignedShards([]int{0})
	if count, caughtUp := audit(exact, 6); count != 6 || !caughtUp {
		t.Fatalf("cap 6 over 6 entries under the head: audited %d, caught up %v; want 6, true", count, caughtUp)
	}
	short := NewWitness(&key.PublicKey)
	short.SetAssignedShards([]int{0})
	if count, caughtUp := audit(short, 5); count != 5 || caughtUp {
		t.Fatalf("cap 5 over 6 entries under the head: audited %d, caught up %v; want 5, false", count, caughtUp)
	}
	if count, caughtUp := audit(short, 5); count != 6 || !caughtUp {
		t.Fatalf("second call: audited %d, caught up %v; want 6, true", count, caughtUp)
	}
}

// TestWitnessPostsOncePerHead: a partitioned witness speaks to the log
// on the one view wire. Over rounds in which the log grows, it posts one
// view to the log per new head and signs each head once: the
// co-signature it posts is the one every later view to its peers
// carries, and a round with no new head posts nothing and signs
// nothing. ECDSA signing is randomised, so a second Cosign call over a
// head would show as a second signature.
func TestWitnessPostsOncePerHead(t *testing.T) {
	l, key := shardedTestLog(t, 4, 4, 5)
	keys, roster := testWitnessKeys(t, 1, 1)
	col := NewCosignCollector(&key.PublicKey, roster)
	var mu sync.Mutex
	var posts int
	var posted, told []WitnessSignature // co-signatures in views to the log, and to the peer
	record := func(into *[]WitnessSignature, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		var v wireGossip
		if json.Unmarshal(body, &v) == nil && v.Cosig != nil {
			*into = append(*into, *v.Cosig)
		}
	}
	mux := http.NewServeMux()
	mux.Handle(pathGossip, CosignHandler(col))
	mux.Handle("/", Handler(l))
	logSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			mu.Lock()
			posts++
			record(&posted, r)
			mu.Unlock()
		}
		mux.ServeHTTP(w, r)
	}))
	defer logSrv.Close()
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		record(&told, r)
		mu.Unlock()
		writeJSON(w, wireGossip{})
	}))
	defer peer.Close()

	part, err := NewWitnessPartition(4, []string{"w0"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewGossipPool("w0", NewWitness(&key.PublicKey), NewClient(logSrv.URL, &key.PublicKey))
	if err := pool.EnablePartition(part, keys["w0"]); err != nil {
		t.Fatal(err)
	}
	pool.AddPeer(NewClient(peer.URL, &key.PublicKey))

	const rounds = 4
	for i := 0; i < rounds; i++ {
		if i > 0 {
			e := Entry{Type: EntryAttestOK, Timestamp: int64(i), Actor: fmt.Sprintf("fw-%d", i), Host: fmt.Sprintf("host-%d", i), Detail: "OK"}
			if _, err := l.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		// The second exchange sees no new head.
		for j := 0; j < 2; j++ {
			if err := pool.Exchange(); err != nil {
				t.Fatal(err)
			}
		}
		mu.Lock()
		if posts != i+1 || len(posted) != i+1 {
			t.Fatalf("round %d: %d posts to the log carrying %d co-signatures, want %d", i, posts, len(posted), i+1)
		}
		sig := posted[i]
		if sig.Size != l.STH().Size || sig.RootHash != l.STH().RootHash {
			t.Fatalf("round %d: co-signed size %d, want the new head at %d", i, sig.Size, l.STH().Size)
		}
		if len(told) != 2*(i+1) {
			t.Fatalf("round %d: %d views to the peer carried a co-signature, want %d", i, len(told), 2*(i+1))
		}
		for _, ws := range told[2*i:] {
			if !bytes.Equal(ws.Signature, sig.Signature) {
				t.Fatalf("round %d: the peer was told a second signature over size %d", i, ws.Size)
			}
		}
		mu.Unlock()
	}
	ch, err := col.Cosigned()
	if err != nil {
		t.Fatal(err)
	}
	if ch.STH.Size != l.STH().Size || !bytes.Equal(ch.Signatures[0].Signature, posted[rounds-1].Signature) {
		t.Fatalf("quorum artifact at size %d does not carry the posted co-signature", ch.STH.Size)
	}
}
