package main

import (
	"reflect"
	"testing"

	"vnfguard/internal/translog"
)

// writerSerials returns the serials the audit-log writer logs at entry
// positions [from, to).
func writerSerials(seed int64, from, to int) map[string]bool {
	out := map[string]bool{}
	for n := from; n < to; n++ {
		if n%logSerialEvery == logSerialEvery-1 {
			out[serialName(seed, n)] = true
		}
	}
	return out
}

// TestProofDrawsPickCommittedSerials checks that a proof draw resolves to
// a serial already logged: a hot draw to one of the writer's among its
// newest logHot entries, a uniform draw to any of the writer's or the
// reader's. The choice depends on the seed and the counts alone.
func TestProofDrawsPickCommittedSerials(t *testing.T) {
	const written = 10*logChunk + 77
	a := &auditLog{seed: 7, reader: 5}
	hot, all := writerSerials(7, written-logHot, written), writerSerials(7, 0, written)
	for i := 0; i < a.reader; i++ {
		all[a.readerSerial(i)] = true
	}
	seen := map[string]bool{}
	for _, d := range proofDraws(7, 400) {
		s := a.pick(d, written)
		if d.Hot && !hot[s] {
			t.Fatalf("hot draw %v picked %s, not among the newest %d entries", d, s, logHot)
		}
		if !all[s] {
			t.Fatalf("draw %v picked %s, which is not logged", d, s)
		}
		if s != a.pick(d, written) {
			t.Fatalf("draw %v picked two serials", d)
		}
		seen[s] = true
	}
	if len(seen) < len(hot)+20 {
		t.Errorf("400 draws picked only %d serials", len(seen))
	}
}

// inputs gathers every generated input sequence of a seed.
func inputs(seed int64) []any {
	return []any{
		onboardCycles(seed, 2, 300),
		northboundKinds(seed, 8, 56),
		northboundOps(seed, 2, 2000),
		auditHosts(seed),
		verdictHosts(seed, 5000),
		proofDraws(seed, 2000),
		serialName(seed, 41),
	}
}

func TestOneSeedOneInputSequence(t *testing.T) {
	a, b, c := inputs(7), inputs(7), inputs(8)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input %d differs between two generations from seed 7", i)
		}
		if reflect.DeepEqual(a[i], c[i]) {
			t.Errorf("input %d is the same for seeds 7 and 8", i)
		}
	}
}

// TestSeedsShuffleAFixedComposition checks that every seed yields the
// same amount of work: the same kinds, hosts, request types and hot/cold
// draws, only in another order.
func TestSeedsShuffleAFixedComposition(t *testing.T) {
	for _, seed := range []int64{3, 4} {
		for c, cycles := range onboardCycles(seed, 2, 600) {
			combos := map[cycle]int{}
			for _, cy := range cycles {
				combos[cy]++
			}
			for _, kind := range vnfKinds {
				for _, h := range []int{2 * c, 2*c + 1} {
					if n := combos[cycle{Host: h, Kind: kind}]; n != 100 {
						t.Errorf("seed %d client %d: %s on host %d %d times, want 100", seed, c, kind, h, n)
					}
				}
			}
		}
		active := map[string]int{}
		for _, kind := range northboundKinds(seed, 8, 56)[:8] {
			active[kind]++
		}
		if want := map[string]int{"firewall": 3, "loadbalancer": 3, "monitor": 2}; !reflect.DeepEqual(active, want) {
			t.Errorf("seed %d: active northbound kinds %v, want %v", seed, active, want)
		}
		for c, ops := range northboundOps(seed, 2, 3000) {
			count := map[nbOp]int{}
			for _, op := range ops {
				count[op]++
			}
			want := map[nbOp]int{opWrite: 900, opSummary: 700, opListFlows: 700, opLinks: 700}
			if !reflect.DeepEqual(count, want) {
				t.Errorf("seed %d client %d: request mix %v, want %v", seed, c, count, want)
			}
		}
		hot := 0
		for _, d := range proofDraws(seed, 5000) {
			if d.Hot {
				hot++
			}
		}
		if hot != 4000 {
			t.Errorf("seed %d: %d hot draws of 5000, want 4000", seed, hot)
		}
		perShard := make([]int, logShards)
		for _, h := range auditHosts(seed) {
			perShard[translog.ShardOf(h, logShards)]++
		}
		if want := []int{16, 16, 16, 16}; !reflect.DeepEqual(perShard, want) {
			t.Errorf("seed %d: audit hosts per shard %v, want %v", seed, perShard, want)
		}
	}
}
