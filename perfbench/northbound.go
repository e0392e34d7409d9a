package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vnfguard/internal/controller"
	"vnfguard/internal/core"
	"vnfguard/internal/simtime"
)

// The northbound workload: steady VNF-to-controller traffic (Figure-1
// step 6 only). Set-up enrolls 64 VNFs and revokes 56 of them; the 8 that
// stay active each hold one keep-alive enclave-TLS session, and two
// closed-loop clients drive four sessions each with a seeded 70/30
// read/write mix, reconnecting every 200th request on a session.

const (
	nbClients         = 2
	nbSessions        = 4 // per client
	nbRevoked         = 56
	nbRate            = 3300 // requests per client per second of -seconds
	nbReconnectEvery  = 200
	nbWarmupPerClient = 40
)

// session is one active VNF's keep-alive controller session.
type session struct {
	name   string
	client *controller.Client
	probe  controller.FlowSpec
	n      int  // requests since the session was (re)opened
	fresh  bool // the next request opens a new TLS session
}

type northbound struct {
	*deployment
	sessions [][]*session // by client
	next     []int        // per client: round-robin position
	expected map[string]bool
}

func runNorthbound(r *run) error {
	perClient := r.Seconds * nbRate
	ops := northboundOps(r.Seed, nbClients, perClient+nbWarmupPerClient)
	var tr *tracer
	nb, err := timedSetup(r, func() (*northbound, error) {
		tr = nil
		if r.Trace {
			tr = newTracer(nbClients)
		}
		nb, err := setupNorthbound(r.Seed, tr)
		if err != nil {
			return nil, err
		}
		for c := 0; c < nbClients; c++ {
			for i := 0; i < nbWarmupPerClient; i++ {
				if _, err := nb.request(tr, c, ops[c][perClient+i]); err != nil {
					nb.close()
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
		}
		return nb, nil
	}, func(nb *northbound) { nb.close() })
	if err != nil {
		return err
	}
	defer nb.close()

	var reqs, handshakes latencies
	hits0, misses0 := nb.proofs.Stats()
	p := beginPhase(nb.model)
	m := newMeter(nbClients*perClient, runWindows)
	var requests atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < nbClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr.bind(c)
			for i, op := range ops[c][:perClient] {
				tr.startOp(c, int64(c)<<32|int64(i))
				root := tr.begin(c, "op.request")
				res, err := nb.request(tr, c, op)
				tr.end(root)
				n := float64(len(res.lats))
				requests.Add(int64(len(res.lats)))
				m.done(n, n)
				if !r.check(err) {
					continue
				}
				at := clock.now()
				for k, lat := range res.lats {
					if k == 0 && res.reconnect {
						handshakes.add(ms(lat), at)
					} else {
						reqs.add(ms(lat), at)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	p.end()
	r.check(nb.checkFlows())

	sent := int(requests.Load())
	if err := r.reportLatency("nb_request", &reqs, "us", "op_p50_ms", "op_p90_ms"); err != nil {
		return err
	}
	rate, cpu := m.result()
	r.report("nb_per_s", rate, "1/s", "ops_per_s")
	r.report("nb_cpu_us", cpu, "us", "cpu_us_per_op")
	if err := r.reportLatency("nb_handshake", &handshakes, "ms", "aux_p50_ms", ""); err != nil {
		return err
	}
	r.report("heap_mb", p.HeapMB, "MB", "heap_mb")
	r.report("nb_modeled_us", p.modeledMS(sent)*1000, "us", "")
	for _, c := range []struct {
		name string
		op   simtime.Op
	}{
		{"enclaveapp.ecalls_per_request", simtime.OpECall},
		{"enclaveapp.ocalls_per_request", simtime.OpOCall},
	} {
		v := p.perOp(c.op, sent)
		r.report(c.name, v, "count", "")
		r.setLayer(c.name, v)
	}
	if !r.Trace {
		return nil
	}
	st, err := r.finishTrace(tr)
	if err != nil {
		return err
	}
	r.setLayer("enclaveapp.handshake_ms", st.p50("enclaveapp.handshake"))
	r.setLayer("controller.read_us", st.p50("controller.read")*1000)
	r.setLayer("controller.write_us", st.p50("controller.write")*1000)
	r.setLayer("controller.revocation_check_us", st.p50("controller.revocation_check")*1000)
	r.setLayer("controller.credential_check_us", st.p50("controller.credential_check")*1000)
	r.setLayer("translog.proof_us", st.p50("translog.prove_serial")*1000)
	tileHits(r, nb.proofs, hits0, misses0)
	p.runtimeLayer(r, sent)
	return nil
}

// setupNorthbound enrolls 64 VNFs across four hosts, revokes all but
// nbClients × nbSessions of them and opens a session for each survivor.
func setupNorthbound(seed int64, tr *tracer) (*northbound, error) {
	d, err := newDeployment(onboardHosts, tr)
	if err != nil {
		return nil, err
	}
	nb := &northbound{deployment: d, sessions: make([][]*session, nbClients), next: make([]int, nbClients), expected: map[string]bool{}}
	active := nbClients * nbSessions
	kinds := northboundKinds(seed, active, nbRevoked)
	for i, kind := range kinds {
		hi := i % onboardHosts
		name := fmt.Sprintf("nb-%d", i)
		c := i % nbClients
		tr.own(name, c)
		if _, err := d.hosts[hi].RunContainer(core.StandardImage(kind), name); err != nil {
			nb.close()
			return nil, err
		}
		if err := d.relearn(hi); err != nil {
			nb.close()
			return nil, err
		}
		ob, err := d.onboard(nil, c, cycle{Host: hi, Kind: kind}, name)
		if err != nil {
			nb.close()
			return nil, fmt.Errorf("enrolling %s: %w", name, err)
		}
		tr.own(ob.serial, c)
		if i >= active {
			ob.client.CloseIdle()
			if err := d.vm.RevokeVNF(name); err != nil {
				nb.close()
				return nil, err
			}
			d.removeFlows(ob.v)
			continue
		}
		for _, f := range ob.v.Flows(core.DefaultEnv()) {
			nb.expected[f.Name] = true
		}
		s := &session{name: name, client: ob.client, probe: controller.FlowSpec{
			Name: name + "-probe", Switch: core.DefaultEnv().Switch, Priority: "100",
			IPProto: "tcp", TCPDst: fmt.Sprint(8000 + i), Actions: "output=2",
		}}
		if tr != nil {
			ce, err := d.hosts[hi].CredentialEnclave(name)
			if err != nil {
				nb.close()
				return nil, err
			}
			ob.client.CloseIdle()
			s.client = tr.tracedClient(c, ce, d.server.URL())
			s.fresh = true
		}
		nb.sessions[c] = append(nb.sessions[c], s)
	}
	return nb, nil
}

// nbResult is one request slot's outcome: the latency of each request it
// sent (a write sends two) and whether the first one opened a new session.
type nbResult struct {
	lats      []time.Duration
	reconnect bool
}

// request sends client c's next request on its next session (round robin).
func (nb *northbound) request(tr *tracer, c int, op nbOp) (nbResult, error) {
	s := nb.sessions[c][nb.next[c]%len(nb.sessions[c])]
	nb.next[c]++
	res := nbResult{reconnect: s.fresh}
	s.fresh = false
	send := func(kind string, fn func() error) error {
		start := time.Now()
		i := tr.begin(c, kind)
		err := fn()
		tr.end(i)
		res.lats = append(res.lats, time.Since(start))
		s.n++
		return err
	}
	var err error
	switch op {
	case opSummary:
		err = send("controller.read", func() error { _, err := s.client.Summary(); return err })
	case opListFlows:
		err = send("controller.read", func() error { _, err := s.client.ListFlows(s.probe.Switch); return err })
	case opLinks:
		err = send("controller.read", func() error { _, err := s.client.Links(); return err })
	case opWrite:
		err = send("controller.write", func() error { return s.client.PushFlow(s.probe) })
		if err == nil {
			err = send("controller.write", func() error { return s.client.DeleteFlow(s.probe.Name) })
		}
	}
	if s.n >= nbReconnectEvery {
		s.client.CloseIdle()
		s.fresh, s.n = true, 0
	}
	if err != nil {
		return res, fmt.Errorf("%s %s: %w", s.name, op, err)
	}
	return res, nil
}

// checkFlows compares the switch's flow table with the flows the active
// VNFs pushed: every probe flow pushed was deleted again.
func (nb *northbound) checkFlows() error {
	var got, want []string
	for _, f := range nb.ctrl.FlowsOn(core.DefaultEnv().Switch) {
		got = append(got, f.Name)
	}
	for n := range nb.expected {
		want = append(want, n)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return fmt.Errorf("flow table holds %d flows %v, want %d", len(got), got, len(want))
	}
	return nil
}

func (nb *northbound) close() {
	for _, ss := range nb.sessions {
		for _, s := range ss {
			s.client.CloseIdle()
		}
	}
	nb.deployment.close()
}
