// Shard-stream reads: the per-shard view of the committed sequence the
// partitioned witness audit (partition.go, witness.go) runs on. A
// witness assigned shard s reads only shard s's entries — by global
// index, so every one is pinned to the served head by an ordinary
// inclusion proof — and never pays for the rest of the fleet.
package translog

import (
	"fmt"
)

// IndexedEntry pairs one committed entry's canonical bytes with its
// global log index — the shard-stream element a witness leaf-hashes and
// proves into the served head.
type IndexedEntry struct {
	Index     uint64 `json:"index"`
	Canonical []byte `json:"canonical"`
}

// ShardAuditSource serves the partitioned witness audit: shard-stream
// slices plus the inclusion proofs pinning them to a head. A
// TileProofSource — over the in-process *Log or the HTTP *Client —
// qualifies: streams pass through, proofs fold from tiles.
type ShardAuditSource interface {
	ShardStream(shard int, start, count uint64) (total uint64, entries []IndexedEntry, err error)
	InclusionProof(index, size uint64) ([]Hash, error)
}

// EnableShardStreams builds — and from then on maintains on every
// commit — the per-shard stream index over n shards. For a sharded
// durable store n must equal the pinned store shard count, so the
// audit-plane partition and the write-plane shards describe the same
// streams; in-memory logs (tests, benches) pick n freely. Call once
// after open, before serving shard streams.
func (l *Log) EnableShardStreams(n int) error {
	if n < 1 {
		return fmt.Errorf("translog: shard stream count %d", n)
	}
	if sn := l.StoreShards(); sn > 1 && sn != n {
		return fmt.Errorf("translog: shard stream count %d does not match the pinned store shard count %d", n, sn)
	}
	// The index covers the whole committed sequence, so a checkpointed
	// open hydrates its cold prefix once here instead of on the first
	// cold audit read.
	return l.withHydration(func() error {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.entries.base > 0 {
			return errColdRange
		}
		idx := make([][]uint64, n)
		for i := uint64(0); i < l.entries.count(); i++ {
			s := ShardOf(l.entries.at(i).Host, n)
			idx[s] = append(idx[s], i)
		}
		l.shardStreams, l.shardIdx = n, idx
		return nil
	})
}

// ShardStreams reports the enabled shard-stream count (0: disabled).
func (l *Log) ShardStreams() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.shardStreams
}

// ShardStream returns shard s's stream slice [start, start+count) —
// each element the canonical entry bytes plus its global index — and
// the stream's current total length. A start at or beyond the total
// returns only the total, which is how a witness discovers a shard
// stream regressed.
func (l *Log) ShardStream(shard int, start, count uint64) (uint64, []IndexedEntry, error) {
	var total uint64
	var out []IndexedEntry
	err := l.withHydration(func() error {
		l.mu.RLock()
		defer l.mu.RUnlock()
		if l.shardStreams == 0 {
			return fmt.Errorf("translog: shard streams not enabled")
		}
		if shard < 0 || shard >= l.shardStreams {
			return fmt.Errorf("translog: shard %d out of range [0, %d)", shard, l.shardStreams)
		}
		idx := l.shardIdx[shard]
		total = uint64(len(idx))
		out = nil
		if start >= total || count == 0 {
			return nil
		}
		end := start + count
		if end > total || end < start {
			end = total
		}
		if idx[start] < l.entries.base {
			return errColdRange
		}
		out = make([]IndexedEntry, 0, end-start)
		for _, gi := range idx[start:end] {
			out = append(out, IndexedEntry{Index: gi, Canonical: append([]byte(nil), l.entries.payload(gi)...)})
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return total, out, nil
}
