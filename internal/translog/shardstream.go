// Shard-stream reads: the per-shard view of the committed sequence the
// partitioned witness audit (partition.go, witness.go) runs on. A
// witness assigned shard s reads only shard s's entries — by global
// index, so every one is pinned to the served head by an ordinary
// inclusion proof — and never pays for the rest of the fleet.
package translog

import (
	"fmt"
	"slices"
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
// after open, before serving shard streams. The index covers the whole
// committed sequence: entries below the arena base are indexed from one
// pass over the cold WAL segments, which keeps their global indices and
// none of their bytes.
func (l *Log) EnableShardStreams(n int) error {
	if n < 1 {
		return fmt.Errorf("translog: shard stream count %d", n)
	}
	if sn := l.StoreShards(); sn > 1 && sn != n {
		return fmt.Errorf("translog: shard stream count %d does not match the pinned store shard count %d", n, sn)
	}
	// Only a checkpoint moves evictTo, and ckptMu holds one off. The
	// eviction a checkpoint left to the next commit is done here, so no
	// commit moves the base past where the cold pass below finds it
	// before the resident pass takes over from it.
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	l.mu.Lock()
	if l.cold != nil {
		l.evict()
	}
	base := l.entries.base
	l.mu.Unlock()
	idx := make([][]uint64, n)
	if base > 0 {
		err := l.cold.scan(base, func(index uint64, entry []byte) error {
			f, err := parseEntry(entry)
			if err != nil {
				return fmt.Errorf("%w: cold entry %d undecodable: %v", ErrStateCorrupt, index, err)
			}
			s := ShardOf(string(f.host), n)
			idx[s] = append(idx[s], index)
			return nil
		})
		if err != nil {
			return err
		}
		for _, s := range idx {
			slices.Sort(s)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := base; i < l.entries.count(); i++ {
		s := ShardOf(decodeStored(l.entries.payload(i)).Host, n)
		idx[s] = append(idx[s], i)
	}
	l.shardStreams, l.shardIdx = n, idx
	return nil
}

// ShardStream returns shard s's stream slice [start, start+count) —
// each element the canonical entry bytes plus its global index — and
// the stream's current total length. A start at or beyond the total
// returns only the total, which is how a witness discovers a shard
// stream regressed.
func (l *Log) ShardStream(shard int, start, count uint64) (uint64, []IndexedEntry, error) {
	l.mu.RLock()
	if l.shardStreams == 0 {
		l.mu.RUnlock()
		return 0, nil, fmt.Errorf("translog: shard streams not enabled")
	}
	if shard < 0 || shard >= l.shardStreams {
		n := l.shardStreams
		l.mu.RUnlock()
		return 0, nil, fmt.Errorf("translog: shard %d out of range [0, %d)", shard, n)
	}
	// The slice header is taken under the lock: commits only append past
	// its length, so the indices it covers never change.
	idx := l.shardIdx[shard]
	l.mu.RUnlock()
	total := uint64(len(idx))
	if start >= total || count == 0 {
		return total, nil, nil
	}
	end := start + count
	if end > total || end < start {
		end = total
	}
	idx = idx[start:end]
	out := make([]IndexedEntry, 0, len(idx))
	err := l.eachPayload(len(idx), func(k int) uint64 { return idx[k] }, func(gi uint64, p []byte) {
		out = append(out, IndexedEntry{Index: gi, Canonical: append([]byte(nil), p...)})
	})
	if err != nil {
		return 0, nil, err
	}
	return total, out, nil
}
