package translog

import (
	"strconv"
	"sync"

	"vnfguard/internal/obs"
)

// Telemetry for the transparency-log stack. Every instrument is
// resolved here once, at package init (or, for per-shard and per-anchor
// series, once at appender/store construction) — the append, commit,
// recovery and gossip hot paths only ever touch pre-resolved handles,
// each a few atomics, and never the registry map or its mutex. That is
// what keeps a /metrics scrape from ever blocking a sequencer commit
// that is holding the log lock across an fsync (pinned by
// TestScrapeNeverBlocksSequencerCommit and the obs lock test).
//
// The README "Observability" section documents every series exported
// here; keep the two in sync.

var obsReg = obs.Default()

var (
	// Append pipeline.
	mAppendedEntries = obsReg.Counter("translog_appended_entries_total",
		"Entries committed into the Merkle tree, across every append path.")
	mCommits = obsReg.Counter("translog_commits_total",
		"Batch commits through the log lock (tree growth + head signature + durable append).")
	mCycles = obsReg.Counter("translog_sequencer_cycles_total",
		"Merged commit cycles run by sharded-appender sequencers.")
	mSlowCycles = obsReg.Counter("translog_sequencer_slow_cycles_total",
		"Sequencer cycles that exceeded the configured SlowCycleBudget.")
	mCycleSeconds = obsReg.Histogram("translog_sequencer_cycle_seconds",
		"End-to-end sequencer cycle latency, gather through anchor commit.")
	mLastCommit = obsReg.Stamp("translog_last_commit_unix_seconds",
		"When the last batch commit completed.")

	// Cycle phase breakdown. gather and marshal run on the sequencer
	// before the log lock; merkle, sign, wal_sync and anchor_commit run
	// inside the commit (and are also observed for direct AppendBatch
	// calls, which have no gather/marshal phase of their own).
	phaseHelp     = "Commit pipeline stage latency, labelled by phase."
	mPhaseGather  = obsReg.Histogram("translog_cycle_phase_seconds", phaseHelp, "phase", "gather")
	mPhaseMarshal = obsReg.Histogram("translog_cycle_phase_seconds", phaseHelp, "phase", "marshal")
	mPhaseMerkle  = obsReg.Histogram("translog_cycle_phase_seconds", phaseHelp, "phase", "merkle")
	mPhaseSign    = obsReg.Histogram("translog_cycle_phase_seconds", phaseHelp, "phase", "sign")
	mPhaseWALSync = obsReg.Histogram("translog_cycle_phase_seconds", phaseHelp, "phase", "wal_sync")
	mPhaseAnchor  = obsReg.Histogram("translog_cycle_phase_seconds", phaseHelp, "phase", "anchor_commit")

	// WAL.
	mWALBytes = obsReg.Counter("translog_wal_written_bytes_total",
		"Bytes of framed records written to WAL segment files.")
	mWALFsyncs = obsReg.Counter("translog_wal_fsyncs_total",
		"Segment fsyncs on the append path (tail syncs and rotation syncs).")
	mWALRolls = obsReg.Counter("translog_wal_segment_rolls_total",
		"Segment rotations (a stream retired its active segment and opened a fresh one).")

	// Recovery.
	mRecoverEntries = obsReg.Counter("translog_recovery_replayed_entries_total",
		"Entries replayed from WAL segments during store recovery.")
	mRecoverTornTails = obsReg.Counter("translog_recovery_torn_tails_total",
		"Torn tail truncations planned by recovery (crash mid-append or mid-cycle).")
	mRecoverRemovedSegs = obsReg.Counter("translog_recovery_removed_segments_total",
		"Uncommitted segments removed by recovery (beyond the contiguous prefix).")
	mRecoverSeconds = obsReg.Histogram("translog_recovery_seconds",
		"Store recovery latency: replay, tree rebuild and anchor verification.")
	mRecoverLast = obsReg.Stamp("translog_recovery_last_unix_seconds",
		"When the last successful store recovery finished.")
	mRecoverSuffixEntries = obsReg.Counter("translog_recovery_suffix_entries_total",
		"Entries replayed past the checkpoint during a checkpointed recovery (the suffix length).")
	mRecoverWALBytes = obsReg.Counter("translog_recovery_wal_bytes_total",
		"Bytes of WAL segment files read by recovery replay.")

	// Checkpoints.
	mCkptLast = obsReg.Stamp("translog_checkpoint_last_unix_seconds",
		"When the last durable checkpoint was written.")
	mCkptBytes = obsReg.Gauge("translog_checkpoint_bytes",
		"Size of the newest durable checkpoint file.")

	// Cold tile reads.
	mColdTileReads = obsReg.Counter("translog_cold_tile_reads_total",
		"Cold tile reads: a read below the newest checkpoint fetched one tile of entries from the cold WAL segments.")
	mColdTileReadSeconds = obsReg.Histogram("translog_cold_tile_read_seconds",
		"Cold tile read latency: segment reads, leaf hashing and the check against the resident tree.")
	mColdTileHits = obsReg.Counter("translog_cold_tile_cache_hits_total",
		"Reads below the newest checkpoint served from the cold-tile LRU without touching disk.")

	// Tile read path.
	mTileHTTP = obsReg.Counter("translog_tile_http_requests_total",
		"Tile endpoint requests served (full and partial).")

	// Sealed-head anchor enclave calls.
	mSealedSeal = obsReg.Histogram("translog_sealed_seal_seconds",
		"Sealed-head anchor: seal ECall latency per committed head.")
	mSealedBump = obsReg.Histogram("translog_sealed_bump_seconds",
		"Sealed-head anchor: monotonic-counter bump ECall latency per committed head.")

	// Gossip and witnessing.
	mGossipExchanges = obsReg.Counter("translog_gossip_exchanges_total",
		"Gossip rounds run (advance on the served head plus peer head swaps).")
	mGossipErrors = obsReg.Counter("translog_gossip_exchange_errors_total",
		"Gossip rounds that returned an error (transport degradation or conviction).")
	mGossipSeconds = obsReg.Histogram("translog_gossip_exchange_seconds",
		"Gossip round latency.")
	mGossipPeers = obsReg.Gauge("translog_gossip_peers",
		"Peer witnesses in the gossip pool at the last exchange.")
	mGossipHeadLag = obsReg.Gauge("translog_gossip_head_lag_entries",
		"Entries the served log head was ahead of this witness's last verified head at the last exchange.")
	mGossipLast = obsReg.Stamp("translog_gossip_last_exchange_unix_seconds",
		"When the last gossip round completed.")
	mWitnessHeadSize = obsReg.Gauge("translog_witness_head_size",
		"Tree size of the witness's last verified (adopted) head.")
	convictionHelp = "Conflict verdicts raised or corroborated, labelled by kind."
	mConvRollback  = obsReg.Counter("translog_witness_convictions_total", convictionHelp, "kind", "rollback")
	mConvSplitView = obsReg.Counter("translog_witness_convictions_total", convictionHelp, "kind", "split-view")

	// Partitioned witnessing and quorum co-signing.
	mWitnessAssignedShards = obsReg.Gauge("translog_witness_assigned_shards",
		"Shard streams this witness is assigned to audit (0: unpartitioned, auditing nothing shard-wise).")
	mCosignSeconds = obsReg.Histogram("translog_cosign_seconds",
		"Latency of one witness's view exchange with the log's collector, co-signature included.")
	mCosignSignatures = obsReg.Counter("translog_cosign_signatures_total",
		"Witness co-signatures the collector accepted.")
	mCosignQuorumFailures = obsReg.Counter("translog_cosign_quorum_failures_total",
		"Tree sizes abandoned without reaching the co-signature quorum (evicted or superseded).")
	mCosignEquivocations = obsReg.Counter("translog_cosign_equivocations_total",
		"Witnesses the collector caught co-signing two roots at one tree size.")
)

// convictionCounter picks the series for a conflict verdict.
func convictionCounter(ce *ConflictError) *obs.Counter {
	if ce.KindLabel() == "rollback" {
		return mConvRollback
	}
	return mConvSplitView
}

// shardInstrument is one shard slot's pre-resolved series.
type shardInstrument struct {
	buffered *obs.Gauge
	drained  *obs.Counter
}

var (
	shardInstMu sync.Mutex
	shardInst   []shardInstrument
)

// shardInstruments returns pre-resolved per-shard series for slots
// [0, n), growing the shared set on first use. Slots are shared across
// appenders in a process (labels aggregate), and gauges move by deltas,
// so concurrent appenders compose instead of fighting over Set.
func shardInstruments(n int) []shardInstrument {
	shardInstMu.Lock()
	defer shardInstMu.Unlock()
	for len(shardInst) < n {
		lbl := strconv.Itoa(len(shardInst))
		shardInst = append(shardInst, shardInstrument{
			//lint:allow obshandle memoised resolver: runs once per shard slot at appender construction, never on the append path
			buffered: obsReg.Gauge("translog_shard_buffered_entries",
				"Entries waiting in per-host shard buffers, labelled by shard slot.", "shard", lbl),
			//lint:allow obshandle memoised resolver: runs once per shard slot at appender construction, never on the append path
			drained: obsReg.Counter("translog_shard_drained_entries_total",
				"Entries drained from shard buffers into sequencer cycles, labelled by shard slot.", "shard", lbl),
		})
	}
	return shardInst[:n]
}

var (
	anchorHistMu sync.Mutex
	anchorHists  = map[string]*obs.Histogram{}
)

// anchorHistogram returns the per-anchor commit-latency series, keyed
// by TrustAnchor.Name (statedir-sth, witness-head, sealed-counter, …).
// Stores resolve their chain's histograms once at open.
func anchorHistogram(name string) *obs.Histogram {
	anchorHistMu.Lock()
	defer anchorHistMu.Unlock()
	h := anchorHists[name]
	if h == nil {
		//lint:allow obshandle memoised per-anchor resolver: stores call it once per anchor at open, commits reuse the handle
		h = obsReg.Histogram("translog_anchor_commit_seconds",
			"Trust-anchor CommitHead latency, labelled by anchor.", "anchor", name)
		anchorHists[name] = h
	}
	return h
}
