// Witness partitioning: the audit plane sharded to match the write
// plane. PR 5 gave every host its own WAL stream; this layer gives
// every witness its own slice of those streams. Each shard is audited
// by exactly Q witnesses chosen by a deterministic ring assignment over
// the sorted witness roster, so per-witness audit cost is proportional
// to Q·S/N shards — flat as the fleet grows with hosts, witnesses and
// shards scaling together — while every shard still has Q independent
// auditors whose co-signatures (cosign.go) make the merged head
// trustworthy without any single witness being a bottleneck.
package translog

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"vnfguard/internal/statedir"
)

// ErrPartitionInvalid reports an unsatisfiable partition shape: no
// witnesses, a non-positive shard count, or a quorum larger than the
// witness set.
var ErrPartitionInvalid = errors.New("translog: invalid witness partition") //lint:allow unusedexport config error contract of exported partition/roster constructors; errors.Is target

// WitnessPartition is the deterministic assignment of shard streams to
// witnesses. The assignment is a pure function of (shards, sorted
// witness names, quorum): shard s is audited by the Q witnesses at ring
// positions (s+k) mod N for k in [0, Q). Every restart, every witness
// and the log server all derive the identical assignment from the
// pinned store shard count and the pinned roster — there is no
// coordination step to get wrong, and FuzzWitnessPartition pins the
// determinism and the ≥Q coverage of every shard.
type WitnessPartition struct {
	shards int
	quorum int
	names  []string         // sorted, deduplicated ring order
	byName map[string][]int // witness -> sorted assigned shards
}

// NewWitnessPartition builds the assignment for the given shard count,
// witness names (order and duplicates are irrelevant — the ring is the
// sorted deduplicated set) and per-shard quorum Q.
func NewWitnessPartition(shards int, witnesses []string, quorum int) (*WitnessPartition, error) {
	names := append([]string(nil), witnesses...)
	sort.Strings(names)
	names = dedupeSorted(names)
	switch {
	case shards < 1:
		return nil, fmt.Errorf("%w: shard count %d", ErrPartitionInvalid, shards)
	case len(names) == 0:
		return nil, fmt.Errorf("%w: empty witness set", ErrPartitionInvalid)
	case quorum < 1 || quorum > len(names):
		return nil, fmt.Errorf("%w: quorum %d over %d witnesses", ErrPartitionInvalid, quorum, len(names))
	}
	p := &WitnessPartition{shards: shards, quorum: quorum, names: names, byName: make(map[string][]int, len(names))}
	for s := 0; s < shards; s++ {
		for k := 0; k < quorum; k++ {
			name := names[(s+k)%len(names)]
			p.byName[name] = append(p.byName[name], s)
		}
	}
	for _, assigned := range p.byName {
		sort.Ints(assigned)
	}
	return p, nil
}

// dedupeSorted removes adjacent duplicates from a sorted slice.
func dedupeSorted(names []string) []string {
	out := names[:0]
	for i, n := range names {
		if i == 0 || n != names[i-1] {
			out = append(out, n)
		}
	}
	return out
}

// Shards returns the partitioned shard count.
func (p *WitnessPartition) Shards() int { return p.shards }

// Quorum returns the per-shard auditor count Q.
func (p *WitnessPartition) Quorum() int { return p.quorum }

// Names returns the sorted witness ring.
func (p *WitnessPartition) Names() []string { return append([]string(nil), p.names...) }

// AssignedShards returns the sorted shard list witness name audits, or
// nil for a name outside the partition.
func (p *WitnessPartition) AssignedShards(name string) []int {
	return append([]int(nil), p.byName[name]...)
}

// WitnessesFor returns the Q witnesses assigned to audit shard s.
func (p *WitnessPartition) WitnessesFor(shard int) []string {
	if shard < 0 || shard >= p.shards {
		return nil
	}
	out := make([]string, 0, p.quorum)
	for k := 0; k < p.quorum; k++ {
		out = append(out, p.names[(shard+k)%len(p.names)])
	}
	sort.Strings(out)
	return out
}

// Covers reports whether witness name is assigned shard s.
func (p *WitnessPartition) Covers(name string, shard int) bool {
	for _, s := range p.byName[name] {
		if s == shard {
			return true
		}
	}
	return false
}

// ---- pinned deployment configuration --------------------------------------

// partitionConfigFile is the statedir entry pinning a deployment's
// partition parameters, written once by the log server so every witness
// (and every witness restart) derives the same assignment.
const partitionConfigFile = "witness-partition.json"

// PartitionConfig is the pinned partition shape a deployment shares
// through its statedir: the store's shard count, the co-signing quorum
// and the full witness roster the ring is built over.
type PartitionConfig struct {
	Shards    int      `json:"shards"`
	Quorum    int      `json:"quorum"`
	Witnesses []string `json:"witnesses"`
}

// Partition builds the deterministic assignment the config pins.
func (c PartitionConfig) Partition() (*WitnessPartition, error) {
	return NewWitnessPartition(c.Shards, c.Witnesses, c.Quorum)
}

// SavePartitionConfig pins the partition parameters into the statedir.
func SavePartitionConfig(dir *statedir.Dir, cfg PartitionConfig) error {
	if _, err := cfg.Partition(); err != nil {
		return err
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	return dir.Write(partitionConfigFile, data)
}

// LoadPartitionConfig reads the pinned partition parameters. A missing
// file surfaces os.ErrNotExist through the wrap — an unpartitioned
// deployment, not an error state.
func LoadPartitionConfig(dir *statedir.Dir) (PartitionConfig, error) {
	var cfg PartitionConfig
	data, err := dir.Read(partitionConfigFile)
	if err != nil {
		return cfg, fmt.Errorf("translog: reading pinned witness partition: %w", err)
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		return cfg, fmt.Errorf("%w: pinned witness partition undecodable: %v", ErrPartitionInvalid, err)
	}
	if _, err := cfg.Partition(); err != nil {
		return cfg, err
	}
	return cfg, nil
}
