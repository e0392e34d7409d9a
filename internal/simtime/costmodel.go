// Package simtime provides the calibrated timing substrate used to model
// hardware costs (SGX transitions, quote generation, IAS round trips, TPM
// operations) that the reproduction cannot incur natively.
//
// Two mechanisms are provided:
//
//   - A CostModel holding per-operation durations. Components charge
//     operations against the model instead of hard-coding sleeps, so every
//     experiment can run under DefaultCosts (realistic shapes) or ZeroCosts
//     (pure software cost, used for ablation).
//   - A Sleeper that realises a modeled duration in wall-clock time with
//     microsecond precision: short waits busy-spin (time.Sleep cannot hit
//     µs targets reliably), long waits sleep.
//
// Default values are taken from published measurements of SGX1-era
// hardware: enclave transitions cost roughly 8k–17k cycles (HotCalls,
// Weisse et al., ISCA'17; Eleos, Orenbach et al., EuroSys'17), EPID quote
// generation tens of milliseconds, and IAS verification a WAN round trip.
package simtime

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Op enumerates the modeled hardware operations.
type Op int

const (
	// OpECall is a host→enclave transition (EENTER + EEXIT pair amortised
	// to the call).
	OpECall Op = iota
	// OpOCall is an enclave→host transition.
	OpOCall
	// OpEReport is local report generation (EREPORT).
	OpEReport
	// OpQuote is quote generation by the quoting enclave (EPID signature
	// over a report).
	OpQuote
	// OpSeal is sealing-key derivation plus AEAD of a small blob (EGETKEY
	// + encrypt).
	OpSeal
	// OpUnseal is the inverse of OpSeal.
	OpUnseal
	// OpIASRoundTrip is one HTTPS exchange with the Intel Attestation
	// Service over a WAN.
	OpIASRoundTrip
	// OpTPMExtend is a TPM PCR extend.
	OpTPMExtend
	// OpTPMQuote is a TPM2_Quote over selected PCRs.
	OpTPMQuote
	// OpPageIn is an EPC page fault servicing (encrypted swap-in).
	OpPageIn
	// OpIMAMeasure is one IMA file measurement (hash + list append) as
	// performed by the kernel on exec/open.
	OpIMAMeasure
	// OpCounterRead is a monotonic-counter read by an enclave.
	OpCounterRead
	// OpCounterBump is a monotonic-counter increment by an enclave. The
	// modeled cost is that of a fast replay-protected counter service
	// (ROTE-style distributed counters / SGXv2-era virtual counters),
	// not Intel's flash-backed PSE counters, whose 80–250 ms increments
	// would dominate every sealed commit; deployments that need the PSE
	// shape can Set() it explicitly.
	OpCounterBump
	numOps
)

var opNames = [numOps]string{
	"ecall", "ocall", "ereport", "quote", "seal", "unseal",
	"ias_round_trip", "tpm_extend", "tpm_quote", "page_in", "ima_measure",
	"counter_read", "counter_bump",
}

// String returns the snake_case name of the operation.
func (o Op) String() string {
	if o < 0 || o >= numOps {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// CostModel maps each modeled operation to a duration. The zero value
// charges nothing for every operation.
type CostModel struct {
	costs [numOps]time.Duration
	// sleeper realises charges in wall time; nil means charges are
	// accounted but not realised (virtual-only mode).
	sleeper *Sleeper

	// counters track how often and how long each op was charged.
	counts [numOps]atomic.Int64
	totals [numOps]atomic.Int64 // nanoseconds
}

// DefaultCosts returns a CostModel with literature-derived SGX1/TPM/WAN
// values. Every experiment (internal/experiment) runs under this
// model unless it states otherwise.
func DefaultCosts() *CostModel {
	m := &CostModel{sleeper: NewSleeper()}
	m.costs[OpECall] = 4 * time.Microsecond
	m.costs[OpOCall] = 4 * time.Microsecond
	m.costs[OpEReport] = 10 * time.Microsecond
	m.costs[OpQuote] = 35 * time.Millisecond
	m.costs[OpSeal] = 20 * time.Microsecond
	m.costs[OpUnseal] = 20 * time.Microsecond
	m.costs[OpIASRoundTrip] = 150 * time.Millisecond
	m.costs[OpTPMExtend] = 5 * time.Millisecond
	m.costs[OpTPMQuote] = 300 * time.Millisecond
	m.costs[OpPageIn] = 40 * time.Microsecond
	m.costs[OpIMAMeasure] = 50 * time.Microsecond
	m.costs[OpCounterRead] = 10 * time.Microsecond
	m.costs[OpCounterBump] = 50 * time.Microsecond
	return m
}

// ZeroCosts returns a CostModel that charges nothing. Operation counters
// still accumulate, so tests can assert on how many transitions occurred
// without paying for them.
func ZeroCosts() *CostModel { return &CostModel{} }

// ScaledCosts returns DefaultCosts with every duration multiplied by
// factor. Useful to keep bench runs short while preserving ratios.
func ScaledCosts(factor float64) *CostModel {
	m := DefaultCosts()
	for i := range m.costs {
		m.costs[i] = time.Duration(float64(m.costs[i]) * factor)
	}
	return m
}

// Set overrides the duration charged for op and returns the model for
// chaining.
func (m *CostModel) Set(op Op, d time.Duration) *CostModel {
	m.costs[op] = d
	return m
}

// Cost reports the duration charged for op.
func (m *CostModel) Cost(op Op) time.Duration { return m.costs[op] }

// Charge records one occurrence of op and, when the model realises costs,
// blocks for the modeled duration.
func (m *CostModel) Charge(op Op) {
	m.ChargeN(op, 1)
}

// ChargeN records n occurrences of op as a single blocking wait of
// n × cost(op).
func (m *CostModel) ChargeN(op Op, n int) {
	if m == nil || n <= 0 {
		return
	}
	d := m.costs[op] * time.Duration(n)
	m.counts[op].Add(int64(n))
	m.totals[op].Add(int64(d))
	if m.sleeper != nil && d > 0 {
		m.sleeper.Wait(d)
	}
}

// Count reports how many times op has been charged.
func (m *CostModel) Count(op Op) int64 {
	if m == nil {
		return 0
	}
	return m.counts[op].Load()
}

// Total reports the cumulative modeled time charged to op.
func (m *CostModel) Total(op Op) time.Duration {
	if m == nil {
		return 0
	}
	return time.Duration(m.totals[op].Load())
}

// ResetCounters zeroes the per-op counters (costs are unchanged).
func (m *CostModel) ResetCounters() {
	for i := range m.counts {
		m.counts[i].Store(0)
		m.totals[i].Store(0)
	}
}

// Snapshot returns a copy of all per-op counts and totals keyed by op name.
func (m *CostModel) Snapshot() map[string]OpStats {
	out := make(map[string]OpStats, numOps)
	for i := Op(0); i < numOps; i++ {
		c := m.counts[i].Load()
		if c == 0 {
			continue
		}
		out[i.String()] = OpStats{Count: c, Total: time.Duration(m.totals[i].Load())}
	}
	return out
}

// OpStats aggregates charges for one operation.
type OpStats struct {
	Count int64
	Total time.Duration
}
