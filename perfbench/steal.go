package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a shared virtual machine the hypervisor takes the processor away for
// stretches whose share varied between 10% and 50% from second to second,
// and every wall-clock figure grows with it. run.sh pins the benchmark to
// one processor; clock samples the time the hypervisor stole from it, and
// wall-clock windows are measured net of that time, so the figures are
// what the run takes on a processor of its own. Processor time (getrusage)
// excludes stolen time already.

// stealClock samples, every stealEvery, the cumulative time stolen from
// the processor the process runs on, and times one run of the reference
// kernel (see speed.go).
type stealClock struct {
	t0    time.Time
	read  func() (time.Duration, bool)
	mu    sync.Mutex
	at    []time.Duration // since t0
	val   []time.Duration // stolen by then, since t0
	refAt []time.Duration // since t0, when each kernel run ended
	ref   []time.Duration // each kernel run's time
	stop  chan struct{}
	done  chan struct{}
}

const stealEvery = 50 * time.Millisecond

// clock is the process's steal clock; it reads no steal until started.
var clock = &stealClock{t0: time.Now()}

// startStealClock starts sampling with read (nil: none to read) and
// timing kernel every stealEvery.
func startStealClock(read func() (time.Duration, bool), kernel *refKernel) *stealClock {
	c := &stealClock{t0: time.Now(), read: read, stop: make(chan struct{}), done: make(chan struct{})}
	base, stealing := c.sample()
	if stealing {
		c.at, c.val = []time.Duration{0}, []time.Duration{0}
	}
	go func() {
		defer close(c.done)
		t := time.NewTicker(stealEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				took := kernel.time()
				at := time.Since(c.t0)
				c.mu.Lock()
				c.refAt, c.ref = append(c.refAt, at), append(c.ref, took)
				c.mu.Unlock()
				if v, ok := c.sample(); ok && stealing {
					c.mu.Lock()
					c.at, c.val = append(c.at, time.Since(c.t0)), append(c.val, v-base)
					c.mu.Unlock()
				}
			}
		}
	}()
	return c
}

func (c *stealClock) sample() (time.Duration, bool) {
	if c.read == nil {
		return 0, false
	}
	return c.read()
}

// close stops sampling and waits for the sampler to end.
func (c *stealClock) close() {
	if c.stop != nil {
		close(c.stop)
		<-c.done
	}
}

// now is the time since the clock started.
func (c *stealClock) now() time.Duration { return time.Since(c.t0) }

// stolenAt is the time stolen between the clock's start and at,
// interpolated between samples.
func (c *stealClock) stolenAt(at time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return interpolate(c.at, c.val, at)
}

// net is the wall time between from and to less the time stolen in it,
// scaled by the speed over it.
func (c *stealClock) net(from, to time.Duration) time.Duration {
	return time.Duration(float64(to-from-(c.stolenAt(to)-c.stolenAt(from))) * c.speed(from, to))
}

// speed is refNominal over the median time of the kernel runs that ended
// between from and to, or of the refWindow runs nearest their middle
// when fewer did: the factor that turns time measured then into time on
// the reference host. It is 1 without kernel runs.
func (c *stealClock) speed(from, to time.Duration) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.refAt)
	if n == 0 {
		return 1
	}
	lo := sort.Search(n, func(i int) bool { return c.refAt[i] >= from })
	hi := sort.Search(n, func(i int) bool { return c.refAt[i] > to })
	if hi-lo < refWindow {
		mid := sort.Search(n, func(i int) bool { return c.refAt[i] >= from+(to-from)/2 })
		lo = max(0, min(mid-refWindow/2, n-refWindow))
		hi = min(n, lo+refWindow)
	}
	var took []float64
	for _, d := range c.ref[lo:hi] {
		took = append(took, float64(d))
	}
	return float64(refNominal) / median(took)
}

// kernelRuns is how many times the kernel ran.
func (c *stealClock) kernelRuns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ref)
}

// speedAll is the speed over the whole run so far.
func (c *stealClock) speedAll() float64 { return c.speed(0, c.now()) }

// interpolate reads the piecewise-linear function through the points
// (xs[i], ys[i]), xs ascending, at x; it is flat beyond the ends.
func interpolate(xs, ys []time.Duration, x time.Duration) time.Duration {
	n := len(xs)
	switch {
	case n == 0:
		return 0
	case x <= xs[0]:
		return ys[0]
	case x >= xs[n-1]:
		return ys[n-1]
	}
	i := 1
	for xs[i] < x {
		i++
	}
	span := xs[i] - xs[i-1]
	return ys[i-1] + time.Duration(float64(ys[i]-ys[i-1])*float64(x-xs[i-1])/float64(span))
}

// procSteal returns a reader of the time stolen from the processor the
// process is pinned to, from that processor's line of /proc/stat, and
// the line's name. Unpinned, or without /proc/stat, it returns nil: the
// figures are then plain wall time.
func procSteal() (func() (time.Duration, bool), string) {
	cpu, ok := pinnedCPU()
	if !ok {
		return nil, "nothing (not pinned to one processor)"
	}
	line := "cpu" + strconv.Itoa(cpu)
	read := func() (time.Duration, bool) {
		raw, err := os.ReadFile("/proc/stat")
		if err != nil {
			return 0, false
		}
		for _, l := range strings.Split(string(raw), "\n") {
			f := strings.Fields(l)
			if len(f) < 9 || f[0] != line {
				continue
			}
			ticks, err := strconv.ParseUint(f[8], 10, 64)
			if err != nil {
				return 0, false
			}
			return time.Duration(ticks) * 10 * time.Millisecond, true // USER_HZ = 100
		}
		return 0, false
	}
	if _, ok := read(); !ok {
		return nil, "nothing (" + line + " steal unreadable)"
	}
	return read, line
}

// pinnedCPU is the one processor the process may run on, from its
// Cpus_allowed_list; false when it may run on more than one.
func pinnedCPU() (int, bool) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if list, ok := strings.CutPrefix(l, "Cpus_allowed_list:"); ok {
			cpu, err := strconv.Atoi(strings.TrimSpace(list))
			return cpu, err == nil
		}
	}
	return 0, false
}
