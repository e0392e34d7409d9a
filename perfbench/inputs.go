package main

import (
	"fmt"
	"math/rand"
	"net/netip"

	"vnfguard/internal/core"
	"vnfguard/internal/translog"
	"vnfguard/internal/vnf"
)

// Every input a workload feeds the program is generated here from the
// run's seed, one independent stream per purpose, so the same seed gives
// the same VNF kinds, hosts, request mix and serials. Where the mix sets
// how much work a run does (kinds, hosts, read/write and hot/cold shares),
// the seed shuffles a fixed composition instead of drawing each item, so
// seeds vary the order and not the amount of work.

func stream(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}

var vnfKinds = []string{"firewall", "loadbalancer", "monitor"}

// kindsFor returns n VNF kinds, as evenly split as n allows, in seeded
// order.
func kindsFor(seed int64, purpose int64, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = vnfKinds[i%len(vnfKinds)]
	}
	stream(seed, purpose).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// northboundKinds returns the kinds of the VNFs the northbound set-up
// enrolls, the active ones first and then those it revokes. Each part is
// split as evenly as it allows, so every seed serves the same flow table
// to the active sessions.
func northboundKinds(seed int64, active, revoked int) []string {
	return append(kindsFor(seed, 500, active), kindsFor(seed, 501, revoked)...)
}

// cycle is one onboarding cycle's input: the host (index into the
// deployment) and the VNF kind to deploy on it.
type cycle struct {
	Host int
	Kind string
}

// onboardCycles returns the cycles of each client: every kind on each of
// the client's two hosts (2c and 2c+1) equally often, in seeded order.
func onboardCycles(seed int64, clients, perClient int) [][]cycle {
	out := make([][]cycle, clients)
	for c := range out {
		out[c] = make([]cycle, perClient)
		for i := range out[c] {
			out[c][i] = cycle{Host: 2*c + i%2, Kind: vnfKinds[i/2%len(vnfKinds)]}
		}
		stream(seed, int64(100+c)).Shuffle(perClient, func(i, j int) { out[c][i], out[c][j] = out[c][j], out[c][i] })
	}
	return out
}

// nbOp is one northbound request type.
type nbOp uint8

const (
	opSummary nbOp = iota
	opListFlows
	opLinks
	opWrite // PushFlow of the session's probe flow, then DeleteFlow
)

func (o nbOp) String() string {
	return [...]string{"summary", "list_flows", "links", "write"}[o]
}

// northboundOps returns each client's request mix: 30% writes and 70%
// reads split evenly over the three read types, in seeded order.
func northboundOps(seed int64, clients, perClient int) [][]nbOp {
	out := make([][]nbOp, clients)
	writes := perClient * 3 / 10
	for c := range out {
		out[c] = make([]nbOp, perClient)
		for i := range out[c] {
			if i < writes {
				out[c][i] = opWrite
			} else {
				out[c][i] = nbOp(i % 3)
			}
		}
		stream(seed, int64(300+c)).Shuffle(perClient, func(i, j int) { out[c][i], out[c][j] = out[c][j], out[c][i] })
	}
	return out
}

// auditHosts names the 64 hosts whose attestation verdicts the log
// ingests, 64/logShards of them on each of the log's shards, so every
// seed spreads the same load over the shards' WAL streams. (Drawn freely,
// the split differed by seed, and with it the time to recover the log.)
func auditHosts(seed int64) []string {
	r := stream(seed, 400)
	var out []string
	per := make([]int, logShards)
	for len(out) < 64 {
		name := fmt.Sprintf("node-%06x", r.Intn(1<<24))
		if s := translog.ShardOf(name, logShards); per[s] < 64/logShards {
			per[s]++
			out = append(out, name)
		}
	}
	return out
}

// verdictHosts draws which host each ingested verdict comes from.
func verdictHosts(seed int64, n int) []uint8 {
	r := stream(seed, 401)
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(r.Intn(64))
	}
	return out
}

// serialName is the credential serial of the n-th enrollment a run logs.
func serialName(seed int64, n int) string {
	return fmt.Sprintf("%d%08d", 1000+seed%9000, n)
}

// proofDraw picks the serial of one proof read: Hot draws from the
// serials logged among the newest 1k entries, otherwise uniformly from
// all; U selects within that set. 80% of draws are hot.
type proofDraw struct {
	Hot bool
	U   float64
}

func proofDraws(seed int64, n int) []proofDraw {
	r := stream(seed, 402)
	out := make([]proofDraw, n)
	for i := range out {
		out[i] = proofDraw{Hot: i < n*8/10, U: r.Float64()}
	}
	r.Shuffle(n, func(i, j int) { out[i].Hot, out[j].Hot = out[j].Hot, out[i].Hot })
	return out
}

// newVNF builds a VNF of the given kind.
func newVNF(kind, name string) vnf.VNF {
	switch kind {
	case "loadbalancer":
		return &vnf.LoadBalancer{
			InstanceName: name, VIP: netip.MustParsePrefix("10.0.0.100/32"), Service: 80,
			Backends: []vnf.Backend{
				{Clients: netip.MustParsePrefix("192.168.0.0/17"), Port: 2},
				{Clients: netip.MustParsePrefix("192.168.128.0/17"), Port: 3},
			},
		}
	case "monitor":
		return &vnf.Monitor{InstanceName: name, WatchPorts: []uint16{22, 23, 3389}}
	default:
		return core.StandardFirewall(name)
	}
}
