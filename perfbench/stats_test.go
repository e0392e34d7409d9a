package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending: percentile must sort
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{100, 0.9, 90, true},
		{99, 0.9, 0, false},
		{1000, 0.99, 990, true},
		{0, 0.5, 0, false},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, ok=%v", tc.n, tc.q, got, err, tc.want, tc.ok)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTrimmedMeanDropsTheTenthAtEachEnd(t *testing.T) {
	if got := trimmedMean([]float64{100, 1, 2, 3, 4, 5, 6, 7, 8, -50}); got != 4.5 {
		t.Errorf("trimmed mean = %v, want the mean of 1..8 = 4.5", got)
	}
	if got := trimmedMean([]float64{1, 2, 9}); got != 4 {
		t.Errorf("trimmed mean of three = %v, want the plain mean 4", got)
	}
}

func TestWindowedRateAndCostAreWindowTrimmedMeans(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Ten windows of 10 units: eight take 10 ms of wall and processor
	// time (1000/s, 1000 µs/unit), one stalls (100 ms wall, 30 ms
	// processor) and one runs fast (5 ms wall, 2 ms processor). Both are
	// trimmed.
	marks := []mark{{}}
	for i, w := range []struct{ wall, cpu int }{{10, 10}, {10, 10}, {100, 30}, {10, 10}, {10, 10}, {5, 2}, {10, 10}, {10, 10}, {10, 10}, {10, 10}} {
		last := marks[i]
		marks = append(marks, mark{at: last.at + ms(w.wall), cpu: last.cpu + ms(w.cpu), units: last.units + 10, work: last.work + 10})
	}
	rate, cost := windowed(marks, nil, nil)
	if rate != 1000 || cost != 1000 {
		t.Errorf("windowed = %v/s, %v µs; want the trimmed means 1000/s, 1000 µs", rate, cost)
	}
	// At half the reference speed every window's time counts half.
	half := func(from, to time.Duration) float64 { return 0.5 }
	net := func(from, to time.Duration) time.Duration { return (to - from) / 2 }
	rate, cost = windowed(marks, net, half)
	if rate != 2000 || cost != 500 {
		t.Errorf("scaled windowed = %v/s, %v µs; want 2000/s, 500 µs", rate, cost)
	}
}

func TestSpeedIsNominalOverKernelMedian(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// 40 kernel runs 10 ms apart: the first 20 at the nominal time, the
	// rest at twice it.
	c := &stealClock{}
	for i := 0; i < 40; i++ {
		took := refNominal
		if i >= 20 {
			took *= 2
		}
		c.refAt, c.ref = append(c.refAt, ms(10*i)), append(c.ref, took)
	}
	for _, tc := range []struct {
		from, to time.Duration
		want     float64
	}{
		{0, ms(190), 1},
		{ms(200), ms(390), 0.5},
		{ms(200), ms(205), 0.5}, // widened to runs 13–27, eight of them slow
		{0, ms(1000), 0.5},      // median of all 40: the two middle runs average 1.5× nominal
	} {
		want := tc.want
		if tc.to == ms(1000) {
			want = 1 / 1.5
		}
		if got := c.speed(tc.from, tc.to); math.Abs(got-want) > 1e-12 {
			t.Errorf("speed(%v, %v) = %v, want %v", tc.from, tc.to, got, want)
		}
	}
	if got := c.net(ms(200), ms(300)); got != ms(50) {
		t.Errorf("net over slow runs = %v, want 100 ms at half speed = 50 ms", got)
	}
	if got := (&stealClock{}).speed(0, ms(10)); got != 1 {
		t.Errorf("speed without kernel runs = %v, want 1", got)
	}
}

func TestWindowedPercentileIsTrimmedMeanOfWindowPercentiles(t *testing.T) {
	// 80 samples completing in order: four windows of 20. Window medians
	// are 10, 110, 30 and 50; four windows trim none, so the result is
	// their mean, 50. The pooled p50 would be 40.5.
	var at []time.Duration
	var xs []float64
	for w, base := range []float64{0, 100, 20, 40} {
		for i := 1; i <= 20; i++ {
			at = append(at, time.Duration(w*20+i))
			xs = append(xs, base+float64(i))
		}
	}
	// Shuffle the input order; completion times carry the order.
	at[0], at[79] = at[79], at[0]
	xs[0], xs[79] = xs[79], xs[0]
	got, err := windowedPercentile(at, xs, 0.5, nil)
	if err != nil || got != 50 {
		t.Errorf("windowed p50 = %v, %v; want 50", got, err)
	}
	if _, err := windowedPercentile(make([]time.Duration, 99), seq(99), 0.9, nil); err == nil {
		t.Error("windowed p90 of 99 samples was reported")
	}
}

func TestStolenTimeIsTakenOutOfWallClockWindows(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// 50 ms stolen, evenly, between 100 and 200 ms.
	c := &stealClock{at: []time.Duration{0, ms(100), ms(200), ms(300)}, val: []time.Duration{0, 0, ms(50), ms(50)}}
	for _, tc := range []struct{ from, to, want time.Duration }{
		{0, ms(100), ms(100)},
		{ms(100), ms(200), ms(50)},
		{ms(150), ms(250), ms(75)},
		{ms(250), ms(400), ms(150)}, // flat past the last sample
	} {
		if got := c.net(tc.from, tc.to); got != tc.want {
			t.Errorf("net(%v, %v) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
	// A window of 20 samples completing over a span of which half was
	// stolen reports half its median latency.
	var at []time.Duration
	for i := 0; i < 20; i++ {
		at = append(at, ms(100+5*i))
	}
	half := func(from, to time.Duration) time.Duration { return (to - from) / 2 }
	got, err := windowedPercentile(at, seq(20), 0.5, half)
	if err != nil || got != 5 {
		t.Errorf("steal-corrected p50 = %v, %v; want 10/2 = 5", got, err)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps a: covered once
		{Name: "c", Start: 60, End: 70, Parent: 0},
		{Name: "c.child", Start: 62, End: 65, Parent: 3},
		{Name: "late", Start: 95, End: 120, Parent: 0}, // clipped at the parent's end
	}
	want := []int64{100 - 40 - 10 - 5, 20, 30, 7, 3, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSpanStatsPerOpSumsPerOperation(t *testing.T) {
	tr := newTracer(1)
	tr.spans = []span{
		{Name: "verifier.enroll", Start: 0, End: 10e6, Parent: -1, Op: 1},
		{Name: "ias.verify", Start: 2e6, End: 6e6, Parent: 0, Op: 1},
		{Name: "verifier.enroll", Start: 20e6, End: 24e6, Parent: -1, Op: 2},
	}
	st := newSpanStats(tr)
	// Self times per op: 6 ms and 4 ms; the median of two is their mean.
	if got := st.perOp(true, "verifier.enroll"); got != 5 {
		t.Errorf("per-op self = %v ms, want 5", got)
	}
	if got := st.perOp(false, "ias.verify"); got != 4 {
		t.Errorf("per-op duration = %v ms, want 4", got)
	}
}

// TestMetricListsMatchBenchmarkDefinition keeps the metric names the
// program prints in step with BENCHMARK.json.
func TestMetricListsMatchBenchmarkDefinition(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no driver", w.Name)
		}
	}
}
