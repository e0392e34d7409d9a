// Command perfbench is vnfguard's benchmark. It runs one seeded,
// closed-loop workload against the system built from this source tree and
// prints, as its last line, one JSON object with the run's output checks
// and metrics: the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a traced run.
//
//	perfbench -workload onboard|northbound|audit-log -seed N -seconds S -trace 0|1
//	perfbench -steady N -seconds S   # steadiness report over N seeds per workload
//
// Hardware is modeled virtually (see virtualCosts): wall-clock figures are
// software cost only, and modeled hardware time is reported as exact
// operation counts. WORKLOADS.md describes each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vnfguard/internal/simtime"
)

// runSpec is what one run is asked to do.
type runSpec struct {
	Seed    int64
	Seconds int
	Trace   bool
	Sync    bool   // the durable log fsyncs (traced runs only)
	Out     string // directory for scratch state and trace output
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ Name, Unit string }

// endToEnd lists the end-to-end metrics every workload reports, each for
// the workload's own operation (see WORKLOADS.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"aux_p50_ms", "ms"},
}

// perLayer lists the traced run's per-layer metrics. A layer a workload
// does not load reads 0.
var perLayer = []metricDef{
	{"verifier.attest_host_ms", "ms"},
	{"verifier.enroll_ms", "ms"},
	{"verifier.revoke_ms", "ms"},
	{"verifier.self_ms", "ms"},
	{"host.attest_ms", "ms"},
	{"host.ra_ms", "ms"},
	{"host.frame_ms", "ms"},
	{"ias.verify_ms", "ms"},
	{"ias.sigrl_ms", "ms"},
	{"ias.round_trips_per_onboard", "count"},
	{"sgx.quotes_per_onboard", "count"},
	{"sgx.ecalls_per_onboard", "count"},
	{"sgx.ocalls_per_onboard", "count"},
	{"enclaveapp.handshake_ms", "ms"},
	{"enclaveapp.ecalls_per_request", "count"},
	{"enclaveapp.ocalls_per_request", "count"},
	{"controller.read_us", "us"},
	{"controller.write_us", "us"},
	{"controller.revocation_check_us", "us"},
	{"controller.credential_check_us", "us"},
	{"translog.entries_per_commit", "count"},
	{"translog.fsyncs_per_commit", "count"},
	{"translog.merkle_us", "us"},
	{"translog.sign_us", "us"},
	{"translog.wal_sync_us", "us"},
	{"translog.sync_commit_ms", "ms"},
	{"translog.proof_us", "us"},
	{"translog.tile_hit_ratio", "ratio"},
	{"translog.recovery_suffix_entries", "count"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_per_kop", "count"},
	{"trace.overhead_pct", "%"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"onboard":    runOnboard,
	"northbound": runNorthbound,
	"audit-log":  runAuditLog,
}

// run accumulates one workload run's checks and metrics.
type run struct {
	runSpec
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	errs      []string
	named     map[string]float64 // every printed figure by its printed name
	e2e       map[string]metric
	layer     map[string]metric
}

func newRun(spec runSpec) *run {
	return &run{runSpec: spec, named: map[string]float64{}, e2e: map[string]metric{}, layer: map[string]metric{}}
}

// check counts one attempted operation, and a failure when err is set.
func (r *run) check(err error) bool {
	r.attempted.Add(1)
	if err == nil {
		return true
	}
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
	r.mu.Unlock()
	return false
}

// report prints one metric under its workload-specific name and records
// it under the generic end-to-end name key (if any).
func (r *run) report(name string, v float64, unit, key string) {
	fmt.Printf("%-34s %14.4f %s\n", name, v, unit)
	r.named[name] = v
	if key != "" {
		r.e2e[key] = metric{v, unit}
	}
}

// setLayer records a per-layer metric of the traced run.
func (r *run) setLayer(name string, v float64) {
	for _, d := range perLayer {
		if d.Name == name {
			r.layer[name] = metric{v, d.Unit}
			return
		}
	}
	panic("perfbench: undeclared per-layer metric " + name)
}

// finish builds the result line.
func (r *run) finish() result {
	defs, got := endToEnd, r.e2e
	if r.Trace {
		defs, got = perLayer, r.layer
	}
	res := result{
		Correct:   r.failed.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok {
			m = metric{0, d.Unit}
		}
		res.Metrics[d.Name] = m
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", e)
	}
	return res
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: onboard, northbound or audit-log")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "intended length of the timed phase; sets the operation count")
		trace    = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for scratch state and span files")
		steady   = flag.Int("steady", 0, "steadiness report: run every workload (or -workload) with this many seeds")
		bench    = flag.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds (steadiness report)")
	)
	flag.Parse()
	// One processor: on a shared VM the share of a second vCPU the
	// hypervisor grants varies from run to run (steal reached 30% with two
	// busy vCPUs and stayed under 4% with one), and with it every timing.
	runtime.GOMAXPROCS(1)
	if *steady > 0 {
		if err := steadiness(*bench, *workload, *steady, *seconds, *out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", *workload)
		os.Exit(2)
	}
	// Each run, and each set-up build's files within it, gets a directory
	// of its own in a block group of its own (see spreadSubdirs).
	runs := filepath.Join(*out, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	spreadSubdirs(runs)
	scratch, err := os.MkdirTemp(runs, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	spreadSubdirs(scratch)
	read, source := procSteal()
	fmt.Println("wall-clock figures are net of the time stolen from:", source)
	clock = startStealClock(read, newRefKernel())
	spec := runSpec{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Sync: *trace == 1, Out: scratch}
	r := newRun(spec)
	err = drivePasses(drive, r)
	if r.Trace && err == nil {
		if keep, kerr := filepath.Abs(filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))); kerr == nil {
			err = os.Rename(filepath.Join(scratch, "spans.jsonl"), keep)
			fmt.Println("spans written to", keep)
		}
	}
	fmt.Printf("reference kernel ran %d times; figures scaled to the reference host by %.4f over the run\n", clock.kernelRuns(), clock.speedAll())
	clock.close()
	if rerr := os.RemoveAll(scratch); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(r.finish())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// drivePasses runs the workload. A traced run first runs it untraced with
// the same seed and reports the traced pass's op_p50_ms over the untraced
// one as trace.overhead_pct; the output checks of both passes count.
func drivePasses(drive func(*run) error, r *run) error {
	if !r.Trace {
		return drive(r)
	}
	spec := r.runSpec
	spec.Trace = false
	base := newRun(spec)
	fmt.Println("untraced pass:")
	if err := drive(base); err != nil {
		return err
	}
	r.attempted.Add(base.attempted.Load())
	r.failed.Add(base.failed.Load())
	r.errs = append(r.errs, base.errs...)
	fmt.Println("traced pass:")
	if err := drive(r); err != nil {
		return err
	}
	if b := base.e2e["op_p50_ms"].Value; b > 0 {
		r.setLayer("trace.overhead_pct", (r.e2e["op_p50_ms"].Value/b-1)*100)
	}
	return nil
}

// ---- shared measurement helpers ---------------------------------------------

// setupRepeats is how many times each run builds its set-up; setup_s is
// the median over the builds and the last build is measured.
const setupRepeats = 5

// timedSetup builds the workload's set-up setupRepeats times, closing all
// but the last, and reports the median build time net of stolen time.
// Each build starts after a forced GC, so it does not pay for collecting
// the previous one.
func timedSetup[T any](r *run, build func() (T, error), close func(T)) (T, error) {
	var last T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			close(last)
		}
		runtime.GC()
		start := clock.now()
		s, err := build()
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, clock.net(start, clock.now()).Seconds())
		last = s
	}
	r.report("setup_s", median(times), "s", "setup_s")
	return last, nil
}

// phase brackets a timed phase: wall clock, allocation and cost-model
// counters.
type phase struct {
	start time.Time
	mem   runtime.MemStats
	model map[string]simtime.OpStats
	costs *simtime.CostModel

	Allocs uint64 // bytes allocated during the phase
	GCs    uint32
	HeapMB float64 // live heap after a forced GC at the end
	Ops    map[string]simtime.OpStats
}

func beginPhase(costs *simtime.CostModel) *phase {
	runtime.GC()
	p := &phase{costs: costs}
	runtime.ReadMemStats(&p.mem)
	if costs != nil {
		p.model = costs.Snapshot()
	}
	p.start = time.Now()
	return p
}

func (p *phase) since() time.Duration { return time.Since(p.start) }

func (p *phase) end() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.Allocs = m.TotalAlloc - p.mem.TotalAlloc
	p.GCs = m.NumGC - p.mem.NumGC
	runtime.GC()
	runtime.ReadMemStats(&m)
	p.HeapMB = float64(m.HeapAlloc) / (1 << 20)
	p.Ops = map[string]simtime.OpStats{}
	if p.costs != nil {
		for op, s := range p.costs.Snapshot() {
			s0 := p.model[op]
			p.Ops[op] = simtime.OpStats{Count: s.Count - s0.Count, Total: s.Total - s0.Total}
		}
	}
}

// perOp is a cost-model count per operation over the phase.
func (p *phase) perOp(op simtime.Op, ops int) float64 {
	return float64(p.Ops[op.String()].Count) / float64(ops)
}

// modeledMS is the modeled hardware time per operation over the phase.
func (p *phase) modeledMS(ops int) float64 {
	var total time.Duration
	for _, s := range p.Ops {
		total += s.Total
	}
	return float64(total) / float64(time.Millisecond) / float64(ops)
}

// runtimeLayer records the allocation metrics of the phase.
func (p *phase) runtimeLayer(r *run, ops int) {
	r.setLayer("runtime.alloc_kb_per_op", float64(p.Allocs)/1024/float64(ops))
	r.setLayer("runtime.gc_per_kop", float64(p.GCs)*1000/float64(ops))
}

// latencies collects operation latencies in ms with their completion
// times on clock.
type latencies struct {
	mu  sync.Mutex
	at  []time.Duration
	all []float64
}

func (l *latencies) add(ms float64, at time.Duration) {
	l.mu.Lock()
	l.all = append(l.all, ms)
	l.at = append(l.at, at)
	l.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// reportLatency prints the windowed p50 and p90 of l (ms) in unit ("ms" or "us")
// under prefix, recording them under the generic keys when given.
func (r *run) reportLatency(prefix string, l *latencies, unit string, p50Key, p90Key string) error {
	scale := 1.0
	if unit == "us" {
		scale = 1000
	}
	for _, q := range []struct {
		p   float64
		tag string
		key string
	}{{0.5, "p50", p50Key}, {0.9, "p90", p90Key}} {
		if q.key == "" && q.tag == "p90" {
			continue
		}
		v, err := windowedPercentile(l.at, l.all, q.p, clock.net)
		if err != nil {
			return fmt.Errorf("%s: %w", prefix, err)
		}
		fmt.Printf("%-34s %14.4f %s (n=%d)\n", prefix+"_"+q.tag+"_"+unit, v*scale, unit, len(l.all))
		if q.key != "" {
			r.e2e[q.key] = metric{v, "ms"}
		}
	}
	return nil
}

// spanStats summarises the traced run's spans by name.
type spanStats struct {
	spans []span
	self  []int64
	byOp  map[int64][]int
}

func newSpanStats(t *tracer) *spanStats {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	st := &spanStats{spans: spans, self: selfTimes(spans), byOp: map[int64][]int{}}
	for i, s := range spans {
		st.byOp[s.Op] = append(st.byOp[s.Op], i)
	}
	return st
}

// durations returns the durations (ms) of every span named name.
func (st *spanStats) durations(name string) []float64 {
	var out []float64
	for _, s := range st.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// p50 of the durations of spans named name, in ms (0 without samples).
func (st *spanStats) p50(name string) float64 {
	v, err := percentile(st.durations(name), 0.5)
	if err != nil {
		return 0
	}
	return v
}

// perOp sums, per operation, the durations (self times when self is set)
// of spans whose name has one of the prefixes, and returns the median
// over operations that have any, in ms.
func (st *spanStats) perOp(self bool, names ...string) float64 {
	var sums []float64
	for _, idx := range st.byOp {
		var sum int64
		hit := false
		for _, i := range idx {
			for _, n := range names {
				if st.spans[i].Name == n {
					hit = true
					if self {
						sum += st.self[i]
					} else {
						sum += st.spans[i].dur()
					}
				}
			}
		}
		if hit {
			sums = append(sums, float64(sum)/1e6)
		}
	}
	return median(sums)
}

// table prints every span name with its count, p50 duration and p50
// self time.
func (st *spanStats) table() {
	type row struct {
		name       string
		n          int
		dur, selfT []float64
	}
	rows := map[string]*row{}
	for i, s := range st.spans {
		rw := rows[s.Name]
		if rw == nil {
			rw = &row{name: s.Name}
			rows[s.Name] = rw
		}
		rw.n++
		rw.dur = append(rw.dur, float64(s.dur())/1e3)
		rw.selfT = append(rw.selfT, float64(st.self[i])/1e3)
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-32s %8s %14s %14s\n", "span", "count", "p50_us", "self_p50_us")
	for _, n := range names {
		rw := rows[n]
		fmt.Printf("%-32s %8d %14.1f %14.1f\n", n, rw.n, median(rw.dur), median(rw.selfT))
	}
}

// finishTrace writes the spans and prints the span table.
func (r *run) finishTrace(t *tracer) (*spanStats, error) {
	st := newSpanStats(t)
	st.table()
	return st, t.write(filepath.Join(r.Out, "spans.jsonl"))
}

// steadiness runs every workload of the benchmark definition (or only
// only) over seeds 1..n and prints each run's figures with the share of
// CPU time the hypervisor stole during it, then per metric the median and
// the inter-quartile spread as a share of the median, flagging spreads
// beyond the metric's bound.
func steadiness(benchPath, only string, n, seconds int, out string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("parsing %s: %w", benchPath, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var summary strings.Builder
	fmt.Fprintf(&summary, "%-12s %-16s %14s %8s %8s\n", "workload", "metric", "median", "spread", "bound")
	for _, w := range def.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := map[string][]float64{}
		for s := 1; s <= n; s++ {
			before := cpuStat()
			res, err := runChild(self, w.Name, s, seconds, out)
			if err != nil {
				return err
			}
			fmt.Printf("%-12s seed %-3d", w.Name, s)
			for _, m := range def.EndToEnd {
				fmt.Printf(" %s=%.6g", m.Name, res.Metrics[m.Name].Value)
			}
			fmt.Printf(" failed=%d/%d steal=%.1f%%\n", res.Failed, res.Attempted, stealPct(before, cpuStat()))
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
		}
		for _, m := range def.EndToEnd {
			sp := spread(values[m.Name])
			flag := ""
			if sp > m.Bound {
				flag = "  EXCEEDS BOUND"
			}
			fmt.Fprintf(&summary, "%-12s %-16s %14.6g %8.4f %8.3f%s\n", w.Name, m.Name, median(values[m.Name]), sp, m.Bound, flag)
		}
	}
	fmt.Print(summary.String())
	return nil
}

// cpuStat reads the machine-wide CPU time counters of /proc/stat (nil
// where there is none).
func cpuStat() []uint64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	var out []uint64
	for _, f := range strings.Fields(line)[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		out = append(out, v)
	}
	return out
}

// stealPct is the share of CPU time stolen by the hypervisor between two
// cpuStat readings (the eighth counter).
func stealPct(a, b []uint64) float64 {
	if len(a) < 8 || len(b) < len(a) {
		return 0
	}
	var total uint64
	for i := range a {
		total += b[i] - a[i]
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(b[7]-a[7]) / float64(total)
}

// runChild runs one untraced workload run as a child process and parses
// its result line.
func runChild(self, workload string, seed, seconds int, out string) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", "0", "-out", out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &res, nil
}
