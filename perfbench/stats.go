package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs. It refuses when
// fewer than minBeyond samples lie above the rank, so a reported tail is
// never one or two outliers.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if n == 0 || n-1-k < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples", q*100, minBeyond, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k], nil
}

// quartiles returns the three cut points of xs by the method of Python's
// statistics.quantiles(xs, n=4) (the default 'exclusive' method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	var out [3]float64
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// spread is the inter-quartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// runWindows is how many windows a timed phase is cut into.
const runWindows = 20

// trimFrac is the share of windows trimmed from each end before a
// window mean: the slowest and fastest tenth. A median over windows
// jumped between the levels of a run whose windows switched between two
// speeds; the trimmed mean weighs both and still drops bursts.
const trimFrac = 0.1

// trimmedMean is the mean of xs without its lowest and highest trimFrac
// (0 when empty).
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(trimFrac * float64(len(s)))
	sum := 0.0
	for _, x := range s[k : len(s)-k] {
		sum += x
	}
	return sum / float64(len(s)-2*k)
}

// mark is a reading taken at a window boundary of the timed phase.
type mark struct {
	at    time.Duration // on clock
	cpu   time.Duration // process CPU time
	units float64       // operations completed so far: the rate's numerator
	work  float64       // work completed so far: the CPU cost's denominator
}

// windowed returns the trimmed means, over the windows between
// consecutive marks, of the completion rate (units per second) and of the
// CPU time per unit of work (µs). A burst of interference then spoils a
// few windows instead of the whole run's figures. A window lasts net(from, to) and
// its processor time is scaled by speed(from, to); nil net and speed take
// the marks as they are.
func windowed(marks []mark, net func(from, to time.Duration) time.Duration, speed func(from, to time.Duration) float64) (rate, cpuPerWork float64) {
	var rates, costs []float64
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		dt, scale := b.at-a.at, 1.0
		if net != nil {
			dt = net(a.at, b.at)
		}
		if speed != nil {
			scale = speed(a.at, b.at)
		}
		if dt > 0 && b.units > a.units {
			rates = append(rates, (b.units-a.units)/dt.Seconds())
		}
		if b.work > a.work {
			costs = append(costs, float64((b.cpu-a.cpu).Nanoseconds())*scale/1e3/(b.work-a.work))
		}
	}
	return trimmedMean(rates), trimmedMean(costs)
}

// meter marks the timed phase every step completed operations.
type meter struct {
	mu          sync.Mutex
	step, n     int
	units, work float64
	marks       []mark
}

// newMeter starts a meter for a phase of total operations split into
// windows.
func newMeter(total, windows int) *meter {
	m := &meter{step: max(1, total/windows)}
	m.marks = []mark{{at: clock.now(), cpu: cpuTime()}}
	return m
}

// done records one completed operation worth units toward the rate and
// work toward the CPU cost.
func (m *meter) done(units, work float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n++
	m.units += units
	m.work += work
	if m.n%m.step == 0 {
		m.marks = append(m.marks, mark{at: clock.now(), cpu: cpuTime(), units: m.units, work: m.work})
	}
}

// addWork records work done beside the metered operations.
func (m *meter) addWork(work float64) {
	m.mu.Lock()
	m.work += work
	m.mu.Unlock()
}

// result returns the windowed rate and CPU cost, net of stolen time and
// scaled to the reference host's speed.
func (m *meter) result() (rate, cpuPerWork float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return windowed(m.marks, clock.net, clock.speed)
}

// windowedPercentile is the trimmed mean, over completion-ordered
// windows, of each window's q-quantile of xs (at[i] is when sample i
// completed). It uses as many windows, at most runWindows, as leave
// minBeyond samples beyond q in each. When net is given, each window's
// quantile is scaled by net's share of the window's span (the part not
// stolen, at the reference host's speed).
func windowedPercentile(at []time.Duration, xs []float64, q float64, net func(from, to time.Duration) time.Duration) (float64, error) {
	need := int(math.Ceil(minBeyond / (1 - q)))
	n := len(xs)
	w := min(runWindows, n/need)
	if w == 0 {
		return percentile(xs, q) // reports the shortage
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return at[idx[a]] < at[idx[b]] })
	var per []float64
	for k := 0; k < w; k++ {
		var win []float64
		part := idx[k*n/w : (k+1)*n/w]
		for _, i := range part {
			win = append(win, xs[i])
		}
		v, err := percentile(win, q)
		if err != nil {
			return 0, err
		}
		if lo, hi := at[part[0]], at[part[len(part)-1]]; net != nil && hi > lo {
			v *= float64(net(lo, hi)) / float64(hi-lo)
		}
		per = append(per, v)
	}
	return trimmedMean(per), nil
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its child spans.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quartiles(xs)[1]
}
