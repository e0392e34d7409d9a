package main

import (
	"runtime"
	"testing"
)

// TestModeledCountsRepeatExactly checks the benchmark's zero-noise
// signals: with one seed, the modeled hardware time per cycle and the
// per-cycle and per-request operation counts come out identical run after
// run. It runs on one processor, as the benchmark does: with two, the HTTP
// transport's background read on a session being closed sometimes issues
// one more tls_read ECall (and its socket OCall) than otherwise.
func TestModeledCountsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two short deployments per workload")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		workload string
		seconds  int // enough operations for the p90 the workload reports
		exact    []string
	}{
		{"onboard", 3, []string{"onboard_modeled_ms", "ias.round_trips_per_onboard", "sgx.quotes_per_onboard", "sgx.ecalls_per_onboard", "sgx.ocalls_per_onboard"}},
		{"northbound", 1, []string{"nb_modeled_us", "enclaveapp.ecalls_per_request", "enclaveapp.ocalls_per_request"}},
	} {
		var first map[string]float64
		for i := 0; i < 2; i++ {
			r := newRun(runSpec{Seed: 5, Seconds: tc.seconds, Out: t.TempDir()})
			if err := workloads[tc.workload](r); err != nil {
				t.Fatalf("%s: %v", tc.workload, err)
			}
			if n := r.failed.Load(); n != 0 {
				t.Fatalf("%s: %d failed operations: %v", tc.workload, n, r.errs)
			}
			got := map[string]float64{}
			for _, name := range tc.exact {
				v, ok := r.named[name]
				if !ok {
					v, ok = r.layer[name].Value, r.layer[name].Unit != ""
				}
				if !ok || v == 0 {
					t.Fatalf("%s: %s not reported", tc.workload, name)
				}
				got[name] = v
			}
			if first == nil {
				first = got
				continue
			}
			for _, name := range tc.exact {
				if got[name] != first[name] {
					t.Errorf("%s: %s = %v, then %v with the same seed", tc.workload, name, first[name], got[name])
				}
			}
		}
	}
}
