// Package experiment is the evaluation's one definition of E1–E20. Each
// Experiment assembles a fixture, holds the timed bodies of its cases
// and builds the report table (with its verdicts and negative outcome
// rows) from their timings. Two harnesses run the same bodies: the
// module root's BenchmarkE (b.Run("<id>/<case>") with b.N operations)
// and cmd/benchreport (Run: -runs timed calls per case into histograms,
// then the table). Fixtures run under the default literature-derived
// cost model (simtime.DefaultCosts) unless an experiment says
// otherwise, so modeled hardware costs — EPID quote generation, IAS
// WAN round trips, enclave transitions, TPM quotes — shape the results
// as they would on a real deployment.
package experiment

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"vnfguard/internal/metrics"
)

// A Body performs n operations of one case and returns the first
// failure. Work it wraps in Env.untimed is left out of the measurement.
type Body func(n int) error

// Case is one timed body of an experiment.
type Case struct {
	// Name is the sub-benchmark name: BenchmarkE/<id>/<Name>.
	Name string
	// Ops is the operation count of one benchreport call and Reps the
	// calls per run (both default to 1); each call is recorded per
	// operation, so the unit matches the Go benchmark's ns/op.
	Ops, Reps int
	// Body runs against the experiment's shared fixture. Open, set
	// instead, builds a fixture for this case alone right before it
	// runs; what it registers with Env.cleanup is released when the
	// case ends.
	Body Body
	Open func(env *Env) (Body, error)
}

// Plan is an assembled experiment: its cases in run order and the
// builder that turns their results into the report table.
type Plan struct {
	Cases []Case
	Table func(runs int, r Results) (*metrics.Table, error)
}

// Experiment is one entry of the registry.
type Experiment struct {
	ID, Desc string
	// MinRuns raises the run count where percentiles need more samples.
	MinRuns int
	// Setup assembles the shared fixture, registering its teardown
	// with env.
	Setup func(env *Env) (*Plan, error)
}

// Registry lists every experiment in report order.
var Registry = []Experiment{
	{ID: "E1", Desc: "Figure 1 six-step workflow", Setup: e1},
	{ID: "E2", Desc: "Use case 1: VNF integrity attestation", Setup: e2},
	{ID: "E3", Desc: "Use case 2: VNF enrollment", Setup: e3},
	{ID: "E4", Desc: "Floodlight REST security modes", MinRuns: 20, Setup: e4},
	{ID: "E5", Desc: "In-enclave TLS placement", Setup: e5},
	{ID: "E6", Desc: "Host attestation vs IML size", Setup: e6},
	{ID: "E7", Desc: "TPM-rooted IMA (future work §4)", Setup: e7},
	{ID: "E8", Desc: "Enrollment scaling", Setup: e8},
	{ID: "E9", Desc: "Revocation", Setup: e9},
	{ID: "E10", Desc: "SGX substrate primitives", MinRuns: 10, Setup: e10},
	{ID: "E11", Desc: "Transparency log appends (batched vs unbatched)", Setup: e11},
	{ID: "E12", Desc: "Credential inclusion-proof verification", Setup: e12},
	{ID: "E13", Desc: "Durable log appends and crash recovery", Setup: e13},
	{ID: "E14", Desc: "Witness gossip exchange and head verification", Setup: e14},
	{ID: "E15", Desc: "Enclave-sealed monotonic head (commit overhead + recovery)", Setup: e15},
	{ID: "E16", Desc: "Per-host sharded appender scaling (1/4/16 hosts)", Setup: e16},
	{ID: "E17", Desc: "Telemetry overhead on the sharded append path (+ live /metrics scrape)", Setup: e17},
	{ID: "E18", Desc: "Checkpointed recovery vs full WAL replay (10^4..10^6 entries)", Setup: e18},
	{ID: "E19", Desc: "Tile-based proof serving vs the per-request proof endpoint (10^6 entries)", Setup: e19},
	{ID: "E20", Desc: "Partitioned witness audit cost vs fleet size (16/64/256 hosts)", Setup: e20},
}

// Select returns the experiments a comma-separated id list names, in
// registry order; an empty list selects them all. It refuses an id the
// registry does not know (ids are case-sensitive) and an id listed
// twice, so a typo cannot silently drop an experiment.
func Select(list string) ([]Experiment, error) {
	if strings.TrimSpace(list) == "" {
		return Registry, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		id = strings.TrimSpace(id)
		if want[id] {
			return nil, fmt.Errorf("experiment %q listed twice", id)
		}
		want[id] = true
	}
	var valid []string
	var out []Experiment
	for _, e := range Registry {
		valid = append(valid, e.ID)
		if want[e.ID] {
			out = append(out, e)
			delete(want, e.ID)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for id := range want {
			unknown = append(unknown, fmt.Sprintf("%q", id))
		}
		slices.Sort(unknown)
		return nil, fmt.Errorf("unknown experiment id %s (valid ids: %s)",
			strings.Join(unknown, ", "), strings.Join(valid, ","))
	}
	return out, nil
}

// Results holds each case's per-operation timing summary, in case order.
type Results []metrics.Summary

// Mean returns the mean per-operation time of the named case.
func (r Results) Mean(name string) time.Duration { return r.Of(name).Mean }

// Of returns the summary of the named case. Asking for a case the
// experiment does not have is a bug in its table builder.
func (r Results) Of(name string) metrics.Summary {
	for _, s := range r {
		if s.Name == name {
			return s
		}
	}
	panic(fmt.Sprintf("experiment: no case %q", name))
}

// Timer is the clock a body runs against: a *testing.B, or Run's
// per-call stopwatch.
type Timer interface {
	StartTimer()
	StopTimer()
}

// Env owns an experiment's fixtures and the clock its bodies run
// against.
type Env struct {
	timer    Timer
	cleanups []func() error
}

// cleanup registers fn to release a fixture; Close runs it.
func (e *Env) cleanup(fn func() error) { e.cleanups = append(e.cleanups, fn) }

// Close releases every fixture, newest first.
func (e *Env) Close() error { return e.release(0) }

func (e *Env) release(mark int) error {
	var errs []error
	for i := len(e.cleanups) - 1; i >= mark; i-- {
		errs = append(errs, e.cleanups[i]())
	}
	e.cleanups = e.cleanups[:mark]
	return errors.Join(errs...)
}

// tempDir creates a directory that is removed with the fixture.
func (e *Env) tempDir() (string, error) {
	dir, err := os.MkdirTemp("", "vnfguard-experiment-")
	if err != nil {
		return "", err
	}
	e.cleanup(func() error { return os.RemoveAll(dir) })
	return dir, nil
}

// untimed runs fn inside a body with the clock stopped.
func (e *Env) untimed(fn func() error) error {
	e.timer.StopTimer()
	defer e.timer.StartTimer()
	return fn()
}

// Open prepares case c to run against t. It returns the case's body
// and the teardown of what the case itself acquired.
func (e *Env) Open(c Case, t Timer) (Body, func() error, error) {
	e.timer = t
	mark := len(e.cleanups)
	done := func() error { return e.release(mark) }
	if c.Open == nil {
		return c.Body, done, nil
	}
	body, err := c.Open(e)
	if err != nil {
		return nil, nil, errors.Join(err, done())
	}
	return body, done, nil
}

// Run assembles e, makes runs×Reps timed calls of Ops operations to
// each case, builds e's table from the per-operation summaries and
// tears the fixture down. runs is raised to e.MinRuns.
func Run(e Experiment, runs int) (*metrics.Table, Results, error) {
	return run(e, max(runs, e.MinRuns), false)
}

// run is Run; quick makes a single one-operation call per case.
func run(e Experiment, runs int, quick bool) (t *metrics.Table, res Results, err error) {
	env := &Env{}
	defer func() { err = errors.Join(err, env.Close()) }()
	plan, err := e.Setup(env)
	if err != nil {
		return nil, nil, err
	}
	for _, c := range plan.Cases {
		calls, ops := runs*max(c.Reps, 1), max(c.Ops, 1)
		if quick {
			calls, ops = 1, 1
		}
		s, err := env.measure(c, calls, ops)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		res = append(res, s)
	}
	t, err = plan.Table(runs, res)
	return t, res, err
}

// measure opens c and records calls timed bodies of ops operations each.
func (e *Env) measure(c Case, calls, ops int) (metrics.Summary, error) {
	sw := &stopwatch{}
	body, done, err := e.Open(c, sw)
	if err != nil {
		return metrics.Summary{}, err
	}
	h := metrics.NewHistogram(c.Name)
	for i := 0; i < calls && err == nil; i++ {
		sw.elapsed = 0
		sw.StartTimer()
		err = body(ops)
		sw.StopTimer()
		h.Observe(sw.elapsed / time.Duration(ops))
	}
	return h.Summarize(), errors.Join(err, done())
}

// stopwatch is Run's Timer: it accumulates the time it runs.
type stopwatch struct {
	start   time.Time
	elapsed time.Duration
}

func (s *stopwatch) StartTimer() { s.start = time.Now() }
func (s *stopwatch) StopTimer()  { s.elapsed += time.Since(s.start) }

// each returns a body that calls op once per operation, numbering the
// operations across calls from 0.
func each(op func(i int) error) Body {
	next := 0
	return func(n int) error {
		for end := next + n; next < end; next++ {
			if err := op(next); err != nil {
				return err
			}
		}
		return nil
	}
}

// verdict picks the table cell for an outcome.
func verdict(ok bool, pass, fail string) string {
	if ok {
		return pass
	}
	return fail
}

// Table-cell formats shared by the experiments.

func ms(d time.Duration) string { return fmt.Sprintf("%.2f ms", float64(d)/float64(time.Millisecond)) }

func us(d time.Duration, prec int) string {
	return fmt.Sprintf("%.*f µs", prec, float64(d)/float64(time.Microsecond))
}

// perSec is the throughput, in millions per second, of a per-op time.
func perSec(d time.Duration) string {
	return fmt.Sprintf("%.2f M entries/s", float64(time.Second)/float64(d)/1e6)
}

func ratio(a, b time.Duration) float64 { return float64(a) / float64(b) }
