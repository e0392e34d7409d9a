package experiment

import (
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"vnfguard/internal/controller"
	"vnfguard/internal/core"
	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/ias"
	"vnfguard/internal/ima"
	"vnfguard/internal/metrics"
	"vnfguard/internal/pki"
	"vnfguard/internal/simtime"
	"vnfguard/internal/verifier"
	"vnfguard/internal/vnf"
)

// trusted returns a deployment, released with env, running firewall
// VNF fw-0 with a learned golden IML, under the default cost model
// unless opts names another.
func trusted(env *Env, opts core.Options) (*core.Deployment, error) {
	if opts.Model == nil {
		opts.Model = simtime.DefaultCosts()
	}
	d, err := core.NewDeployment(opts)
	if err != nil {
		return nil, err
	}
	env.cleanup(func() error { d.Close(); return nil })
	if err := deploy(d, "fw-0"); err != nil {
		return nil, err
	}
	return d, nil
}

// deploy runs firewall VNF name on host 0 and relearns the golden IML.
func deploy(d *core.Deployment, name string) error {
	if err := d.DeployVNF(0, name, "firewall"); err != nil {
		return err
	}
	return d.LearnGolden()
}

// attestHost runs steps 1–2 for host 0 and refuses an untrusted verdict.
func attestHost(d *core.Deployment) error {
	app, err := d.VM.AttestHost(d.HostName(0))
	if err != nil {
		return err
	}
	if !app.Trusted {
		return fmt.Errorf("host untrusted: %v", app.Findings)
	}
	return nil
}

// enrollNew deploys firewall VNF name, re-attests the host and enrolls
// the VNF.
func enrollNew(d *core.Deployment, name string) error {
	if err := deploy(d, name); err != nil {
		return err
	}
	if err := attestHost(d); err != nil {
		return err
	}
	_, err := d.VM.EnrollVNF(d.HostName(0), name)
	return err
}

// enrolled returns a trusted deployment with fw-0 enrolled, the
// enrollment and fw-0's credential enclave.
func enrolled(env *Env, opts core.Options) (*core.Deployment, *verifier.Enrollment, *enclaveapp.CredentialEnclave, error) {
	d, err := trusted(env, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := attestHost(d); err != nil {
		return nil, nil, nil, err
	}
	enr, err := d.VM.EnrollVNF(d.HostName(0), "fw-0")
	if err != nil {
		return nil, nil, nil, err
	}
	ce, err := d.Hosts[0].CredentialEnclave("fw-0")
	return d, enr, ce, err
}

// e1 runs the Figure-1 workflow (host attestation, enclave RA,
// provisioning, the first controller session from the enclave) for a
// freshly deployed VNF per operation and reports each step.
func e1(env *Env) (*Plan, error) {
	d, err := trusted(env, core.Options{
		Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA,
		TLSMode: enclaveapp.TLSFullSession,
	})
	if err != nil {
		return nil, err
	}
	var steps [7]*metrics.Histogram
	for i := range steps {
		steps[i] = metrics.NewHistogram(fmt.Sprintf("step-%d", i))
	}
	names := map[int]string{}
	workflow := each(func(i int) error {
		name := fmt.Sprintf("fw-e1-%d", i)
		if err := env.untimed(func() error { return deploy(d, name) }); err != nil {
			return err
		}
		res, err := d.RunWorkflow(0, []vnf.VNF{core.StandardFirewall(name)})
		if err != nil {
			return err
		}
		for _, s := range res.Steps {
			steps[s.Number].Observe(s.Duration)
			names[s.Number] = s.Name
		}
		return env.untimed(func() error { return d.VM.RevokeVNF(name) })
	})
	return &Plan{
		Cases: []Case{{Name: "workflow", Body: workflow}},
		Table: func(runs int, r Results) (*metrics.Table, error) {
			t := metrics.NewTable("E1 — Figure 1 workflow, per-step latency (n="+fmt.Sprint(runs)+")",
				"step", "name", "mean", "p95")
			for i := 1; i <= 6; i++ {
				s := steps[i].Summarize()
				t.AddRow(i, names[i], ms(s.Mean), ms(s.P95))
			}
			s := r.Of("workflow")
			t.AddRow("-", "end-to-end total", ms(s.Mean), ms(s.P95))
			return t, nil
		},
	}, nil
}

// e2 times use case 1, the integrity attestation of a genuine VNF
// enclave (steps 3–4 without provisioning), and checks that a revoked
// platform key and a tampered VNF binary are refused.
func e2(env *Env) (*Plan, error) {
	d, err := trusted(env, core.Options{})
	if err != nil {
		return nil, err
	}
	attest := each(func(int) error {
		_, err := d.VM.AttestVNF(d.HostName(0), "fw-0")
		return err
	})
	return &Plan{
		Cases: []Case{{Name: "genuine", Body: attest}},
		Table: func(runs int, r Results) (*metrics.Table, error) {
			t := metrics.NewTable("E2 — use case 1: VNF integrity attestation (n="+fmt.Sprint(runs)+")",
				"scenario", "outcome", "mean latency")
			t.AddRow("genuine enclave", "ACCEPTED (OK)", ms(r.Mean("genuine")))

			revoked, err := trusted(env, core.Options{})
			if err != nil {
				return nil, err
			}
			revoked.IAS.RevokePlatformKey(revoked.Hosts[0].Platform().EPIDMember().PseudonymSecret())
			_, err = revoked.VM.AttestVNF(revoked.HostName(0), "fw-0")
			outcome := "REJECTED"
			if err != nil && strings.Contains(err.Error(), string(ias.StatusKeyRevoked)) {
				outcome = "REJECTED (KEY_REVOKED)"
			} else if err == nil {
				outcome = "ACCEPTED (!!)"
			}
			t.AddRow("revoked platform key", outcome, "-")

			// A measurement mismatch blocks at host appraisal.
			tampered, err := trusted(env, core.Options{})
			if err != nil {
				return nil, err
			}
			tampered.Hosts[0].TamperBinary("fw-0", "/usr/bin/firewall", []byte("backdoored"))
			app, err := tampered.VM.AttestHost(tampered.HostName(0))
			if err != nil {
				return nil, err
			}
			t.AddRow("tampered VNF binary", verdict(app.Trusted, "ACCEPTED (!!)", "REJECTED (IMA mismatch)"), "-")
			return t, nil
		},
	}, nil
}

// e3 times use case 2, enrolling an attested VNF (steps 3–5) in both
// provisioning modes, and checks that enrollment needs an attested host
// and the trusted controller needs credentials.
func e3(env *Env) (*Plan, error) {
	modes := []enclaveapp.ProvisionMode{enclaveapp.ModeVMGenerated, enclaveapp.ModeCSR}
	var cases []Case
	for _, mode := range modes {
		cases = append(cases, Case{Name: string(mode), Open: func(env *Env) (Body, error) {
			d, err := trusted(env, core.Options{Provision: mode})
			if err != nil {
				return nil, err
			}
			return each(func(i int) error {
				name := fmt.Sprintf("fw-e3-%d", i)
				err := env.untimed(func() error {
					if err := deploy(d, name); err != nil {
						return err
					}
					return attestHost(d)
				})
				if err != nil {
					return err
				}
				_, err = d.VM.EnrollVNF(d.HostName(0), name)
				return err
			}), nil
		}})
	}
	return &Plan{Cases: cases, Table: func(runs int, r Results) (*metrics.Table, error) {
		t := metrics.NewTable("E3 — use case 2: VNF enrollment (n="+fmt.Sprint(runs)+")",
			"scenario", "outcome", "mean latency")
		for _, mode := range modes {
			t.AddRow("enroll ("+string(mode)+")", "PROVISIONED", ms(r.Mean(string(mode))))
		}
		d, err := trusted(env, core.Options{})
		if err != nil {
			return nil, err
		}
		_, err = d.VM.EnrollVNF(d.HostName(0), "fw-0")
		t.AddRow("enroll without host attestation", verdict(err != nil, "REFUSED", "ALLOWED (!!)"), "-")
		d2, err := trusted(env, core.Options{Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA})
		if err != nil {
			return nil, err
		}
		_, err = controller.NewClient(d2.ControllerURL(), nil).Health()
		t.AddRow("controller access without credentials", verdict(err != nil, "TLS REJECTED", "ALLOWED (!!)"), "-")
		return t, nil
	}}, nil
}

// e4 times one north-bound REST call per Floodlight security mode, on a
// fresh connection (handshake included) and on a kept-alive one. The
// cost model is zeroed to isolate the transport.
func e4(env *Env) (*Plan, error) {
	variants := []struct {
		name, slug string
		mode       controller.SecurityMode
		trust      controller.TrustModel
	}{
		{"http", "http", controller.ModeHTTP, controller.TrustCA},
		{"https", "https", controller.ModeHTTPS, controller.TrustCA},
		{"trusted-https (CA)", "trusted-https-ca", controller.ModeTrustedHTTPS, controller.TrustCA},
		{"trusted-https (keystore)", "trusted-https-keystore", controller.ModeTrustedHTTPS, controller.TrustKeystore},
	}
	var cases []Case
	for _, v := range variants {
		for _, reuse := range []bool{false, true} {
			cases = append(cases, Case{Name: v.slug + verdict(reuse, "/keep-alive", "/per-connection"), Open: func(env *Env) (Body, error) {
				d, enr, ce, err := enrolled(env, core.Options{Mode: v.mode, Trust: v.trust, Model: simtime.ZeroCosts()})
				if err != nil {
					return nil, err
				}
				if v.trust == controller.TrustKeystore {
					d.Server.PinCertificate(enr.Cert)
				}
				client := func() (*controller.Client, error) {
					if v.mode == controller.ModeHTTP {
						return controller.NewClient(d.ControllerURL(), nil), nil
					}
					cfg, err := ce.ClientTLSConfig(core.ServerName)
					if err != nil {
						return nil, err
					}
					return controller.NewClient(d.ControllerURL(), cfg), nil
				}
				if reuse {
					keep, err := client()
					if err != nil {
						return nil, err
					}
					env.cleanup(func() error { keep.CloseIdle(); return nil })
					return each(func(int) error {
						_, err := keep.Summary()
						return err
					}), nil
				}
				return each(func(int) error {
					var c *controller.Client
					if err := env.untimed(func() (err error) { c, err = client(); return err }); err != nil {
						return err
					}
					if _, err := c.Summary(); err != nil {
						return err
					}
					return env.untimed(func() error { c.CloseIdle(); return nil })
				}), nil
			}})
		}
	}
	return &Plan{Cases: cases, Table: func(runs int, r Results) (*metrics.Table, error) {
		t := metrics.NewTable("E4 — REST latency per security mode (n="+fmt.Sprint(runs)+")",
			"mode", "per-connection p50", "per-connection p95", "keep-alive p50")
		for _, v := range variants {
			pc, ka := r.Of(v.slug+"/per-connection"), r.Of(v.slug+"/keep-alive")
			t.AddRow(v.name, ms(pc.P50), ms(pc.P95), ms(ka.P50))
		}
		return t, nil
	}}, nil
}

// e5 times TLS placement, the paper's deferred question: handshakes and
// echoed transfers against a mutual-TLS server with the client key in
// untrusted memory, the key in the enclave, or the whole session in the
// enclave.
func e5(env *Env) (*Plan, error) {
	d, _, ce, err := enrolled(env, core.Options{})
	if err != nil {
		return nil, err
	}
	ca := d.VM.CA()
	addr, err := echoServer(env, ca)
	if err != nil {
		return nil, err
	}
	nativeKey, err := pki.GenerateKey()
	if err != nil {
		return nil, err
	}
	csr, err := pki.CreateCSR("native", nativeKey)
	if err != nil {
		return nil, err
	}
	nativeCert, err := ca.SignClientCSR(csr, time.Hour)
	if err != nil {
		return nil, err
	}
	nativeCfg := &tls.Config{
		MinVersion: tls.VersionTLS12, RootCAs: ca.Pool(), ServerName: core.ServerName,
		Certificates: []tls.Certificate{{Certificate: [][]byte{nativeCert.Raw}, PrivateKey: nativeKey}},
	}
	keyCfg, err := ce.ClientTLSConfig(core.ServerName)
	if err != nil {
		return nil, err
	}
	dialers := []struct {
		name, slug string
		dial       func() (net.Conn, error)
	}{
		{"native (no enclave)", "native", func() (net.Conn, error) { return tls.Dial("tcp", addr, nativeCfg) }},
		{"key-in-enclave", "key-in-enclave", func() (net.Conn, error) { return tls.Dial("tcp", addr, keyCfg) }},
		{"full-session-in-enclave", "full-session-in-enclave", func() (net.Conn, error) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return ce.DialTLS(raw, core.ServerName)
		}},
	}
	sizes := []int{64 << 10, 1 << 10}
	var cases []Case
	for _, dl := range dialers {
		cases = append(cases, Case{Name: dl.slug + "/handshake", Body: each(func(int) error {
			conn, err := dl.dial()
			if err != nil {
				return err
			}
			return env.untimed(conn.Close)
		})})
		conn, err := dl.dial()
		if err != nil {
			return nil, err
		}
		env.cleanup(conn.Close)
		for _, size := range sizes {
			payload, buf := make([]byte, size), make([]byte, size)
			cases = append(cases, Case{Name: fmt.Sprintf("%s/echo-%dKiB", dl.slug, size>>10), Body: each(func(int) error {
				if _, err := conn.Write(payload); err != nil {
					return err
				}
				_, err := io.ReadFull(conn, buf)
				return err
			})})
		}
	}
	return &Plan{Cases: cases, Table: func(runs int, r Results) (*metrics.Table, error) {
		t := metrics.NewTable("E5 — TLS placement (n="+fmt.Sprint(runs)+")",
			"placement", "handshake mean", "64KiB echo mean", "1KiB echo mean")
		for _, dl := range dialers {
			t.AddRow(dl.name, ms(r.Mean(dl.slug+"/handshake")),
				ms(r.Mean(dl.slug+"/echo-64KiB")), ms(r.Mean(dl.slug+"/echo-1KiB")))
		}
		return t, nil
	}}, nil
}

// echoServer runs a mutual-TLS echo server trusting ca until env is
// closed, and returns its address.
func echoServer(env *Env, ca *pki.CA) (string, error) {
	key, err := pki.GenerateKey()
	if err != nil {
		return "", err
	}
	cert, err := ca.IssueServerCert(core.ServerName, []string{core.ServerName}, []net.IP{net.IPv4(127, 0, 0, 1)}, &key.PublicKey, time.Hour)
	if err != nil {
		return "", err
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{
		MinVersion:   tls.VersionTLS12,
		Certificates: []tls.Certificate{{Certificate: [][]byte{cert.Raw}, PrivateKey: key}},
		ClientAuth:   tls.RequireAndVerifyClientCert,
		ClientCAs:    ca.Pool(),
	})
	if err != nil {
		return "", err
	}
	env.cleanup(ln.Close)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(conn, conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// e6 times steps 1–2 as the host's IML grows, split into evidence
// collection and appraisal.
func e6(env *Env) (*Plan, error) {
	sizes := []int{10, 100, 1000}
	var phases [][2]*metrics.Histogram
	var cases []Case
	for _, entries := range sizes {
		h := [2]*metrics.Histogram{metrics.NewHistogram("evidence"), metrics.NewHistogram("appraisal")}
		phases = append(phases, h)
		cases = append(cases, Case{Name: fmt.Sprintf("iml-%d", entries), Open: func(env *Env) (Body, error) {
			d, err := trusted(env, core.Options{})
			if err != nil {
				return nil, err
			}
			for i := 0; i < entries; i++ {
				d.Hosts[0].IMA().HandleEvent(ima.Event{
					Path: fmt.Sprintf("/usr/lib/mod-%04d.so", i),
					Hook: ima.HookBprmCheck, Mask: ima.MayExec, UID: 0,
				}, []byte(fmt.Sprintf("module %d", i)))
			}
			if err := d.LearnGolden(); err != nil {
				return nil, err
			}
			d.VM.SetTracer(func(phase string, dur time.Duration) {
				switch phase {
				case "host-evidence":
					h[0].Observe(dur)
				case "host-appraisal":
					h[1].Observe(dur)
				}
			})
			return each(func(int) error { return attestHost(d) }), nil
		}})
	}
	return &Plan{Cases: cases, Table: func(runs int, r Results) (*metrics.Table, error) {
		t := metrics.NewTable("E6 — host attestation vs IML size (n="+fmt.Sprint(runs)+")",
			"IML entries", "evidence (step 1) mean", "appraisal (step 2) mean", "total mean")
		for i, entries := range sizes {
			t.AddRow(entries, ms(phases[i][0].Summarize().Mean), ms(phases[i][1].Summarize().Mean), ms(r.Mean(cases[i].Name)))
		}
		return t, nil
	}}, nil
}

// e7 times host attestation with the software IML and with the §4
// TPM-rooted extension, then checks which one detects malware whose
// traces were rewritten out of the software IML.
func e7(env *Env) (*Plan, error) {
	configs := []struct {
		name, slug string
		tpm        bool
	}{{"software IML", "software-iml", false}, {"TPM-rooted IML", "tpm-rooted-iml", true}}
	opts := func(tpm bool) core.Options { return core.Options{EnableTPM: tpm, RequireTPM: tpm} }
	var cases []Case
	for _, c := range configs {
		cases = append(cases, Case{Name: c.slug, Open: func(env *Env) (Body, error) {
			d, err := trusted(env, opts(c.tpm))
			if err != nil {
				return nil, err
			}
			return each(func(int) error { return attestHost(d) }), nil
		}})
	}
	return &Plan{Cases: cases, Table: func(runs int, r Results) (*metrics.Table, error) {
		t := metrics.NewTable("E7 — TPM-rooted IMA (n="+fmt.Sprint(runs)+")",
			"configuration", "attest mean", "IML-rewrite detected")
		for _, c := range configs {
			d, err := trusted(env, opts(c.tpm))
			if err != nil {
				return nil, err
			}
			pre, _ := d.Hosts[0].IMA().Snapshot()
			d.Hosts[0].TamperBinary("fw-0", "/usr/bin/firewall", []byte("malware"))
			forged, err := ima.ParseList(pre)
			if err != nil {
				return nil, err
			}
			d.Hosts[0].IMA().TamperList(forged)
			app, err := d.VM.AttestHost(d.HostName(0))
			if err != nil {
				return nil, err
			}
			t.AddRow(c.name, ms(r.Mean(c.slug)), verdict(!app.Trusted, "YES", "NO (paper §4 gap)"))
		}
		return t, nil
	}}, nil
}

// e8 times enrollment on a host running 1, 4 or 16 VNFs, one
// operation per enrollment: each batch of all the host's VNFs follows
// one host attestation and is revoked again, both untimed.
func e8(env *Env) (*Plan, error) {
	sizes := []int{1, 4, 16}
	name := func(i int) string { return fmt.Sprintf("fw-s%d", i) }
	var cases []Case
	for _, k := range sizes {
		cases = append(cases, Case{Name: fmt.Sprintf("vnfs-%d", k), Ops: k, Open: func(env *Env) (Body, error) {
			d, err := trusted(env, core.Options{})
			if err != nil {
				return nil, err
			}
			for i := 0; i < k; i++ {
				if err := d.DeployVNF(0, name(i), "firewall"); err != nil {
					return nil, err
				}
			}
			if err := d.LearnGolden(); err != nil {
				return nil, err
			}
			return func(n int) error {
				for start := 0; start < n; start += k {
					batch := min(k, n-start)
					if err := env.untimed(func() error { return attestHost(d) }); err != nil {
						return err
					}
					for i := 0; i < batch; i++ {
						if _, err := d.VM.EnrollVNF(d.HostName(0), name(i)); err != nil {
							return err
						}
					}
					err := env.untimed(func() error {
						for i := 0; i < batch; i++ {
							if err := d.VM.RevokeVNF(name(i)); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						return err
					}
				}
				return nil
			}, nil
		}})
	}
	return &Plan{Cases: cases, Table: func(runs int, r Results) (*metrics.Table, error) {
		t := metrics.NewTable("E8 — enrollment scaling (n="+fmt.Sprint(runs)+")",
			"VNFs", "total mean", "per-VNF mean", "enrollments/s")
		for i, k := range sizes {
			perVNF := r.Mean(cases[i].Name)
			t.AddRow(k, ms(perVNF*time.Duration(k)), ms(perVNF), fmt.Sprintf("%.2f", float64(time.Second)/float64(perVNF)))
		}
		return t, nil
	}}, nil
}

// e9 times revocation (CRL update, log commit, enclave wipe) of freshly
// enrolled VNFs, then checks that a revoked VNF's credentials no longer
// open a controller session.
func e9(env *Env) (*Plan, error) {
	d, err := trusted(env, core.Options{Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA})
	if err != nil {
		return nil, err
	}
	revoke := each(func(i int) error {
		name := fmt.Sprintf("fw-e9-%d", i)
		if err := env.untimed(func() error { return enrollNew(d, name) }); err != nil {
			return err
		}
		return d.VM.RevokeVNF(name)
	})
	return &Plan{
		Cases: []Case{{Name: "revoke", Body: revoke}},
		Table: func(runs int, r Results) (*metrics.Table, error) {
			t := metrics.NewTable("E9 — revocation (n="+fmt.Sprint(runs)+")",
				"operation", "outcome", "mean latency")
			t.AddRow("revoke (CRL + enclave wipe)", "OK", ms(r.Mean("revoke")))
			if err := enrollNew(d, "fw-e9-final"); err != nil {
				return nil, err
			}
			ce, err := d.Hosts[0].CredentialEnclave("fw-e9-final")
			if err != nil {
				return nil, err
			}
			cfg, err := ce.ClientTLSConfig(core.ServerName)
			if err != nil {
				return nil, err
			}
			if err := d.VM.RevokeVNF("fw-e9-final"); err != nil {
				return nil, err
			}
			_, err = controller.NewClient(d.ControllerURL(), cfg).Health()
			t.AddRow("controller session after revocation", verdict(err != nil, "TLS REJECTED", "ALLOWED (!!)"), "-")
			return t, nil
		},
	}, nil
}

// e10 times the substrate's primitives next to their modeled costs.
func e10(env *Env) (*Plan, error) {
	d, _, ce, err := enrolled(env, core.Options{EnableTPM: true})
	if err != nil {
		return nil, err
	}
	signer, err := ce.Signer()
	if err != nil {
		return nil, err
	}
	digest := make([]byte, 32)
	prims := []struct {
		slug, name string
		op         simtime.Op
		run        func() error
	}{
		{"ecall-sign", "ECALL (sign)", simtime.OpECall, func() error { _, err := signer.Sign(nil, digest, nil); return err }},
		{"ecall-hmac", "ECALL (hmac)", simtime.OpECall, func() error { _, err := ce.HMAC([]byte("x")); return err }},
		{"host-evidence-quote", "host evidence (EREPORT+quote)", simtime.OpQuote, func() error {
			_, err := d.Hosts[0].Attest([]byte("n"), false)
			return err
		}},
		{"tpm-quote", "TPM quote", simtime.OpTPMQuote, func() error {
			_, err := d.Hosts[0].TPM().Quote([]byte("n"), []int{10})
			return err
		}},
	}
	var cases []Case
	for _, p := range prims {
		cases = append(cases, Case{Name: p.slug, Body: each(func(int) error { return p.run() })})
	}
	return &Plan{Cases: cases, Table: func(runs int, r Results) (*metrics.Table, error) {
		model := simtime.DefaultCosts()
		t := metrics.NewTable("E10 — SGX substrate primitives (n="+fmt.Sprint(runs)+")",
			"primitive", "modeled cost", "measured mean")
		for _, p := range prims {
			t.AddRow(p.name, model.Cost(p.op).String(), ms(r.Mean(p.slug)))
		}
		return t, nil
	}}, nil
}
