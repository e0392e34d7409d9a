package main

import (
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"time"

	"vnfguard/internal/controller"
	"vnfguard/internal/core"
	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/ima"
	"vnfguard/internal/simtime"
	"vnfguard/internal/verifier"
	"vnfguard/internal/vnf"
)

// The onboard workload: VNF onboarding churn. Two closed-loop clients each
// own two of four container hosts and repeat a fixed number of cycles:
// deploy a VNF and relearn the host's golden list (untimed), onboard it
// (Figure-1 steps 1–6, timed), check the logged issuance proof, then
// revoke it and check that the held session's next request is refused.

const (
	onboardClients = 2
	onboardHosts   = 4
	// onboardRate sets the cycle count per client: seconds × onboardRate.
	onboardRate   = 35
	onboardWarmup = 10
)

// onboarding is one client's VNF between onboarding and revocation.
type onboarding struct {
	serial string
	v      vnf.VNF
	client *controller.Client
}

func runOnboard(r *run) error {
	perClient := max(r.Seconds*onboardRate, 60) // ≥ 120 cycles for the p90
	inputs := onboardCycles(r.Seed, onboardClients, perClient+onboardWarmup)
	var tr *tracer
	d, err := timedSetup(r, func() (*deployment, error) {
		tr = nil
		if r.Trace {
			tr = newTracer(onboardClients)
		}
		d, err := newDeployment(onboardHosts, tr)
		if err != nil {
			return nil, err
		}
		for c := 0; c < onboardClients; c++ {
			tr.bind(c) // set-up runs on this goroutine; rebound per client below
			for i := 0; i < onboardWarmup; i++ {
				if _, _, err := d.cycle(tr, c, fmt.Sprintf("warm-%d-%d", c, i), inputs[c][perClient+i]); err != nil {
					d.close()
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
		}
		return d, nil
	}, func(d *deployment) { d.close() })
	if err != nil {
		return err
	}
	defer d.close()

	var onboard, revoke latencies
	before := snapshotLog()
	hits0, misses0 := d.proofs.Stats()
	p := beginPhase(d.model)
	m := newMeter(onboardClients*perClient, runWindows)
	var wg sync.WaitGroup
	for c := 0; c < onboardClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr.bind(c)
			for i := 0; i < perClient; i++ {
				tr.startOp(c, int64(c)<<32|int64(i))
				lat, rev, err := d.cycle(tr, c, fmt.Sprintf("vnf-%d-%d", c, i), inputs[c][i])
				if r.check(err) {
					at := clock.now()
					onboard.add(ms(lat), at)
					revoke.add(ms(rev), at)
				}
				m.done(1, 1)
			}
		}(c)
	}
	wg.Wait()
	p.end()

	cycles := onboardClients * perClient
	if err := r.reportLatency("onboard", &onboard, "ms", "op_p50_ms", "op_p90_ms"); err != nil {
		return err
	}
	rate, cpu := m.result()
	r.report("onboard_per_s", rate, "1/s", "ops_per_s")
	r.report("onboard_cpu_ms", cpu/1000, "ms", "")
	r.e2e["cpu_us_per_op"] = metric{cpu, "us"}
	r.report("onboard_modeled_ms", p.modeledMS(cycles), "ms", "")
	if err := r.reportLatency("revoke", &revoke, "ms", "aux_p50_ms", ""); err != nil {
		return err
	}
	r.report("heap_mb", p.HeapMB, "MB", "heap_mb")
	for _, c := range []struct {
		name string
		op   simtime.Op
	}{
		{"ias.round_trips_per_onboard", simtime.OpIASRoundTrip},
		{"sgx.quotes_per_onboard", simtime.OpQuote},
		{"sgx.ecalls_per_onboard", simtime.OpECall},
		{"sgx.ocalls_per_onboard", simtime.OpOCall},
	} {
		v := p.perOp(c.op, cycles)
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
	for _, m := range []struct{ metric, span string }{
		{"verifier.attest_host_ms", "verifier.attest_host"},
		{"verifier.enroll_ms", "verifier.enroll"},
		{"verifier.revoke_ms", "verifier.revoke"},
		{"host.attest_ms", "host.attest"},
		{"host.frame_ms", "host.frame"},
		{"ias.verify_ms", "ias.verify"},
		{"ias.sigrl_ms", "ias.sigrl"},
		{"enclaveapp.handshake_ms", "enclaveapp.handshake"},
	} {
		r.setLayer(m.metric, st.p50(m.span))
	}
	r.setLayer("verifier.self_ms", st.perOp(true, "verifier.attest_host", "verifier.enroll"))
	r.setLayer("host.ra_ms", st.perOp(false, "host.ra_msg1", "host.ra_msg2", "host.ra_msg4"))
	r.setLayer("controller.write_us", st.p50("controller.write")*1000)
	r.setLayer("controller.revocation_check_us", st.p50("controller.revocation_check")*1000)
	r.setLayer("controller.credential_check_us", st.p50("controller.credential_check")*1000)
	r.setLayer("translog.proof_us", st.p50("translog.prove_serial")*1000)
	snapshotLog().layers(r, before)
	tileHits(r, d.proofs, hits0, misses0)
	p.runtimeLayer(r, cycles)
	return nil
}

// errNotRefused reports a request the controller served after revocation.
var errNotRefused = errors.New("request after revocation was not refused")

// cycle runs one onboarding cycle for client c and returns the onboarding
// latency (steps 1–6) and the revocation latency (RevokeVNF until the
// held session is refused).
func (d *deployment) cycle(tr *tracer, c int, name string, in cycle) (onboard, revoke time.Duration, err error) {
	h := d.hosts[in.Host]
	tr.own(name, c)
	container, err := h.RunContainer(core.StandardImage(in.Kind), name)
	if err != nil {
		return 0, 0, err
	}
	defer h.StopContainer(container.ID)
	if err := d.relearn(in.Host); err != nil {
		return 0, 0, err
	}

	start := time.Now()
	root := tr.begin(c, "op.onboard")
	ob, err := d.onboard(tr, c, in, name)
	tr.end(root)
	onboard = time.Since(start)
	if ob != nil {
		defer d.removeFlows(ob.v)
	}
	if err != nil {
		return 0, 0, err
	}
	if err := d.checkCredential(ob.serial); err != nil {
		return 0, 0, fmt.Errorf("credential proof of %s: %w", name, err)
	}

	start = time.Now()
	root = tr.begin(c, "op.revoke")
	_, err = timed(tr, c, "verifier.revoke", func() (struct{}, error) { return struct{}{}, d.vm.RevokeVNF(name) })
	if err == nil {
		_, serr := timed(tr, c, "controller.read", ob.client.Summary)
		if serr == nil {
			err = errNotRefused
		}
	}
	tr.end(root)
	revoke = time.Since(start)
	ob.client.CloseIdle()
	return onboard, revoke, err
}

// onboard is Figure-1 steps 1–6 for one VNF: host attestation, enclave
// attestation and provisioning, then the VNF's enclave-TLS session to the
// controller pushing its flows.
func (d *deployment) onboard(tr *tracer, c int, in cycle, name string) (*onboarding, error) {
	hn := hostName(in.Host)
	d.golden.RLock()
	app, err := timed(tr, c, "verifier.attest_host", func() (*verifier.HostAppraisal, error) { return d.vm.AttestHost(hn) })
	d.golden.RUnlock()
	if err != nil {
		return nil, err
	}
	if !app.Trusted {
		return nil, fmt.Errorf("host %s not trusted: %v", hn, app.Findings)
	}
	enr, err := timed(tr, c, "verifier.enroll", func() (*verifier.Enrollment, error) { return d.vm.EnrollVNF(hn, name) })
	if err != nil {
		return nil, err
	}
	tr.own(enr.Serial, c)
	ce, err := d.hosts[in.Host].CredentialEnclave(name)
	if err != nil {
		return nil, err
	}
	ob := &onboarding{serial: enr.Serial, v: newVNF(in.Kind, name)}
	if tr == nil {
		inst, err := vnf.NewInstance(ob.v, ce, d.server.URL(), core.ServerName, core.DefaultEnv(), enclaveapp.TLSFullSession)
		if err != nil {
			return nil, err
		}
		ob.client = inst.Client()
		return ob, inst.Activate()
	}
	ob.client = tr.tracedClient(c, ce, d.server.URL())
	for _, spec := range ob.v.Flows(core.DefaultEnv()) {
		if _, err := timed(tr, c, "controller.write", func() (struct{}, error) { return struct{}{}, ob.client.PushFlow(spec) }); err != nil {
			return ob, err
		}
	}
	return ob, nil
}

// relearn records host h's current IML as the VM's golden baseline, as
// VM.LearnHostGolden does. ima.GoldenDB is not safe for concurrent use: a
// relearn racing another client's appraisal crashes the process with a
// concurrent map write. So the evidence is fetched outside any lock, the
// golden database is updated under d.golden exclusively, and appraisals
// (AttestHost) share d.golden.
func (d *deployment) relearn(h int) error {
	nonce := make([]byte, 32)
	if _, err := rand.Read(nonce); err != nil {
		return err
	}
	ev, err := d.hosts[h].Attest(nonce, false)
	if err != nil {
		return err
	}
	list, err := ima.ParseList(ev.IML)
	if err != nil {
		return err
	}
	d.golden.Lock()
	d.vm.GoldenIMA().LearnFromList(list)
	d.golden.Unlock()
	return nil
}

// removeFlows deletes a VNF's flows from the controller, as the operator
// does when a revoked VNF is retired, so the flow table does not grow.
func (d *deployment) removeFlows(v vnf.VNF) {
	for _, spec := range v.Flows(core.DefaultEnv()) {
		d.ctrl.DeleteFlow(spec.Name)
	}
}
