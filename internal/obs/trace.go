package obs

import (
	"strconv"
	"strings"
	"time"
)

// CycleTrace is the lightweight per-cycle record the transparency log's
// one append pipeline fills as a sequencer cycle moves through its
// phases: which shard slots fed the cycle and how long each stage took.
// Every async append path runs through that sequencer, one-shard logs
// included. The struct is embedded in the sequencer's ping-ponged cycle
// buffers and reset per cycle, so steady-state tracing allocates
// nothing; its one consumer is the slow-cycle diagnostic log
// (ShardedAppenderConfig.SlowCycleBudget), which renders it as one
// structured line.
type CycleTrace struct {
	// Entries is the merged batch size.
	Entries int
	// Hosts lists the shard slots that contributed, in drain order.
	Hosts []ShardContribution

	// Phase durations, in pipeline order.
	Gather   time.Duration // draining shard buffers into the merged batch
	Marshal  time.Duration // arena marshal + leaf hashing (prepareEntriesInto)
	TreeHash time.Duration // parallel Merkle interior hashing + root
	Sign     time.Duration // tree-head signature
	WALSync  time.Duration // per-stream record writes and fsyncs
	Anchor   time.Duration // trust-anchor chain commit
	// Total is the end-to-end cycle latency (gather through anchor).
	Total time.Duration
}

// ShardContribution records one shard slot's share of a cycle.
type ShardContribution struct {
	Shard   int
	Entries int
}

// Reset clears the trace for reuse, keeping the Hosts capacity.
func (t *CycleTrace) Reset() {
	hosts := t.Hosts[:0]
	*t = CycleTrace{Hosts: hosts}
}

// String renders the trace as one structured (JSON) line:
// {"total_ms":…,"entries":…,"phases_ms":{…},"shards":[{"shard":…,"entries":…},…]}
func (t *CycleTrace) String() string {
	var b strings.Builder
	ms := func(d time.Duration) string {
		return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64)
	}
	b.WriteString(`{"total_ms":`)
	b.WriteString(ms(t.Total))
	b.WriteString(`,"entries":`)
	b.WriteString(strconv.Itoa(t.Entries))
	b.WriteString(`,"phases_ms":{"gather":`)
	b.WriteString(ms(t.Gather))
	b.WriteString(`,"marshal":`)
	b.WriteString(ms(t.Marshal))
	b.WriteString(`,"merkle":`)
	b.WriteString(ms(t.TreeHash))
	b.WriteString(`,"sign":`)
	b.WriteString(ms(t.Sign))
	b.WriteString(`,"wal_sync":`)
	b.WriteString(ms(t.WALSync))
	b.WriteString(`,"anchor":`)
	b.WriteString(ms(t.Anchor))
	b.WriteString(`},"shards":[`)
	for i, h := range t.Hosts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"shard":`)
		b.WriteString(strconv.Itoa(h.Shard))
		b.WriteString(`,"entries":`)
		b.WriteString(strconv.Itoa(h.Entries))
		b.WriteByte('}')
	}
	b.WriteString(`]}`)
	return b.String()
}
