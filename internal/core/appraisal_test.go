package core

import (
	"crypto/sha256"
	"errors"
	"strings"
	"testing"

	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/ima"
	"vnfguard/internal/sgx"
	"vnfguard/internal/verifier"
	"vnfguard/internal/vnf"
)

// evidenceFunc answers one attestation challenge.
type evidenceFunc func(nonce []byte, useTPM bool) (*enclaveapp.HostEvidence, error)

// tamperedHost is a host agent whose attestation evidence is the test's.
type tamperedHost struct {
	verifier.HostConn
	attest evidenceFunc
}

func (h tamperedHost) Attest(nonce []byte, useTPM bool) (*enclaveapp.HostEvidence, error) {
	return h.attest(nonce, useTPM)
}

// requoted launches a stand-in attestation enclave on host 0's platform
// — with the code, security version and debug attribute given, its
// measurement pinned at the VM when pin is set — and returns evidence
// that binds the host's genuine IML, edited by iml when it is set, and
// nonce under that enclave's quote.
func requoted(t *testing.T, d *Deployment, code string, svn uint16, debug, pin bool, iml func(*ima.List)) evidenceFunc {
	t.Helper()
	p := d.Hosts[0].Platform()
	spec := sgx.EnclaveSpec{
		Name: "integrity-attestation", ProdID: 1, SVN: svn,
		Attributes: sgx.Attributes{Debug: debug, Mode64: true}, HeapPages: 8,
		Modules: []sgx.CodeModule{{Name: "attestation", Code: []byte(code), Handlers: map[string]sgx.ECallHandler{
			"report": func(ctx *sgx.Context, digest []byte) ([]byte, error) {
				return sgx.EncodeReport(ctx.Report(p.QE().TargetInfo(), sgx.ReportDataFromHash([32]byte(digest)))), nil
			},
		}}},
	}
	ss, err := sgx.SignEnclave(spec, d.Vendor())
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.Launch(spec, ss)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Destroy)
	if pin {
		d.VM.PinAttestationMeasurement(e.Identity().MRENCLAVE)
	}
	return func(nonce []byte, useTPM bool) (*enclaveapp.HostEvidence, error) {
		ev, err := d.Hosts[0].Attest(nonce, useTPM)
		if err != nil {
			return nil, err
		}
		if iml != nil {
			list, err := ima.ParseList(ev.IML)
			if err != nil {
				return nil, err
			}
			iml(list)
			ev.IML = list.Serialize()
		}
		digest := ev.BindingDigest()
		raw, err := e.ECall("report", digest[:])
		if err != nil {
			return nil, err
		}
		report, err := sgx.DecodeReport(raw)
		if err != nil {
			return nil, err
		}
		q, err := p.QE().GetQuote(report, sgx.SPID{0x42}, sgx.QuoteLinkable)
		if err != nil {
			return nil, err
		}
		ev.Quote = q.Encode()
		return ev, nil
	}
}

// TestAppraisalRefusalsNamed: a hostile host's tampered evidence is
// refused with the sentinel that names the refusal — through
// AttestHost's HostAppraisal.Err and through core's workflow, which
// wraps it with ErrHostNotTrusted. The Findings strings stay for
// operators.
func TestAppraisalRefusalsNamed(t *testing.T) {
	d := newTrustedDeployment(t, Options{})
	genuine := d.Hosts[0].Attest
	var replayed *enclaveapp.HostEvidence
	cases := []struct {
		name   string
		attest evidenceFunc
		// prime runs one trusted appraisal first (the replay's capture).
		prime bool
		want  error
	}{
		{"wrong nonce", func(nonce []byte, useTPM bool) (*enclaveapp.HostEvidence, error) {
			return genuine(append([]byte{0xff}, nonce...), useTPM)
		}, false, verifier.ErrNonceMismatch},
		{"replayed nonce", func(nonce []byte, useTPM bool) (*enclaveapp.HostEvidence, error) {
			if replayed == nil {
				var err error
				replayed, err = genuine(nonce, useTPM)
				return replayed, err
			}
			return replayed, nil
		}, true, verifier.ErrNonceMismatch},
		{"broken binding", func(nonce []byte, useTPM bool) (*enclaveapp.HostEvidence, error) {
			ev, err := genuine(nonce, useTPM)
			if err == nil {
				ev.IML += "\n"
			}
			return ev, err
		}, false, verifier.ErrEvidenceBinding},
		{"unexpected MRENCLAVE", requoted(t, d, "rogue attestation build", 1, false, false, nil), false, verifier.ErrUnexpectedMR},
		{"debug enclave", requoted(t, d, "debug attestation build", 1, true, true, nil), false, verifier.ErrDebugEnclave},
		{"low SVN", requoted(t, d, "outdated attestation build", 0, false, true, nil), false, verifier.ErrSVNTooLow},
		{"unlisted binary in the IML", requoted(t, d, "attestation build", 1, false, true, func(l *ima.List) {
			l.Append(sha256.Sum256([]byte("rootkit")), "/usr/bin/rootkit")
		}), false, verifier.ErrIMAViolation},
		{"modified file in the IML", requoted(t, d, "attestation build", 1, false, true, func(l *ima.List) {
			for _, e := range l.Entries() {
				if e.Path != ima.BootAggregatePath {
					l.Append(sha256.Sum256([]byte("backdoored")), e.Path)
					return
				}
			}
			t.Error("host IML measures no file to modify")
		}), false, verifier.ErrIMAViolation},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d.VM.RegisterHost(d.HostName(0), tamperedHost{d.Hosts[0], tc.attest}, nil)
			if tc.prime {
				if app, err := d.VM.AttestHost(d.HostName(0)); err != nil || !app.Trusted {
					t.Fatalf("priming appraisal: %v %v", err, app.Findings)
				}
			}
			app, err := d.VM.AttestHost(d.HostName(0))
			if err != nil {
				t.Fatal(err)
			}
			if app.Trusted || len(app.Findings) == 0 || !errors.Is(app.Err(), tc.want) {
				t.Fatalf("AttestHost: trusted=%v err=%v, want %v", app.Trusted, app.Err(), tc.want)
			}
			if errors.Is(tc.want, verifier.ErrIMAViolation) && !strings.HasPrefix(app.Findings[0], "IMA: /") {
				t.Fatalf("IMA finding reads %q", app.Findings[0])
			}
			_, err = d.RunWorkflow(0, []vnf.VNF{StandardFirewall("fw-1")})
			if !errors.Is(err, tc.want) || !errors.Is(err, verifier.ErrHostNotTrusted) {
				t.Fatalf("workflow: got %v, want %v and ErrHostNotTrusted", err, tc.want)
			}
		})
	}
	// The genuine host still passes: the refusals came from the evidence.
	d.VM.RegisterHost(d.HostName(0), d.Hosts[0], nil)
	if app, err := d.VM.AttestHost(d.HostName(0)); err != nil || !app.Trusted || app.Err() != nil {
		t.Fatalf("genuine host: %v %v", err, app.Err())
	}
}
