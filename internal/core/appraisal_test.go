package core

import (
	"crypto/sha256"
	"errors"
	"strings"
	"testing"

	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/ima"
	"vnfguard/internal/ra"
	"vnfguard/internal/sgx"
	"vnfguard/internal/translog"
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

// standIn launches a stand-in enclave on host 0's platform — with the
// code, security version and debug attribute given, its measurement
// handed to pin when pin is set — and returns a function that quotes
// report data under that enclave at the platform's quoting enclave.
func standIn(t *testing.T, d *Deployment, code string, svn uint16, debug bool, pin func(sgx.Measurement)) ra.QuoteFunc {
	t.Helper()
	p := d.Hosts[0].Platform()
	spec := sgx.EnclaveSpec{
		Name: "integrity-attestation", ProdID: 1, SVN: svn,
		Attributes: sgx.Attributes{Debug: debug, Mode64: true}, HeapPages: 8,
		Modules: []sgx.CodeModule{{Name: "attestation", Code: []byte(code), Handlers: map[string]sgx.ECallHandler{
			"report": func(ctx *sgx.Context, rd []byte) ([]byte, error) {
				return sgx.EncodeReport(ctx.Report(p.QE().TargetInfo(), sgx.ReportData(rd))), nil
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
	if pin != nil {
		pin(e.Identity().MRENCLAVE)
	}
	return func(rd sgx.ReportData) ([]byte, error) {
		raw, err := e.ECall("report", rd[:])
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
		return q.Encode(), nil
	}
}

// requoted returns evidence that binds host 0's genuine IML, edited by
// iml when it is set, and nonce under the quote of a stand-in
// attestation enclave (standIn), its measurement pinned at the VM when
// pin is set.
func requoted(t *testing.T, d *Deployment, code string, svn uint16, debug, pin bool, iml func(*ima.List)) evidenceFunc {
	t.Helper()
	var pinAt func(sgx.Measurement)
	if pin {
		pinAt = d.VM.PinAttestationMeasurement
	}
	quote := standIn(t, d, code, svn, debug, pinAt)
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
		ev.Quote, err = quote(sgx.ReportDataFromHash(ev.BindingDigest()))
		return ev, err
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

// rogueCredential is a host whose credential enclaves answer the VM's RA
// exchange with an attester quoting under a stand-in enclave.
type rogueCredential struct {
	verifier.HostConn
	d     *Deployment
	quote ra.QuoteFunc
	att   *ra.Attester
}

func (h *rogueCredential) VNFRAMsg1(string) (*ra.Msg1, error) {
	att, m1, err := ra.NewAttester(h.d.Hosts[0].Platform().GID(), h.d.VM.PublicKey())
	h.att = att
	return m1, err
}

func (h *rogueCredential) VNFRAMsg2(_ string, m2 *ra.Msg2) (*ra.Msg3, error) {
	return h.att.ProcessMsg2(m2, h.quote)
}

func (h *rogueCredential) VNFRAMsg4(_ string, m4 *ra.Msg4) error { return h.att.ProcessMsg4(m4) }

// TestCredentialRefusalsNamed: a credential enclave the VM must not
// trust is refused with the sentinel that names the refusal, beside
// ra.ErrEvidenceRejected, through EnrollVNF and AttestVNF, and nothing
// is enrolled or logged as issued.
func TestCredentialRefusalsNamed(t *testing.T) {
	d := newTrustedDeployment(t, Options{})
	cases := []struct {
		name  string
		code  string
		svn   uint16
		debug bool
		pin   bool
		want  error
	}{
		{"unpinned measurement", "rogue credential build", 1, false, false, verifier.ErrUnexpectedMR},
		{"debug enclave", "debug credential build", 1, true, true, verifier.ErrDebugEnclave},
		{"low SVN", "outdated credential build", 0, false, true, verifier.ErrSVNTooLow},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var pin func(sgx.Measurement)
			if tc.pin {
				pin = d.VM.PinCredentialMeasurement
			}
			d.VM.RegisterHost(d.HostName(0), &rogueCredential{HostConn: d.Hosts[0], d: d, quote: standIn(t, d, tc.code, tc.svn, tc.debug, pin)}, nil)
			if app, err := d.VM.AttestHost(d.HostName(0)); err != nil || !app.Trusted {
				t.Fatalf("host appraisal: %v %v", err, app.Findings)
			}
			_, err := d.VM.EnrollVNF(d.HostName(0), "fw-1")
			if !errors.Is(err, tc.want) || !errors.Is(err, ra.ErrEvidenceRejected) {
				t.Fatalf("EnrollVNF: got %v, want %v and ra.ErrEvidenceRejected", err, tc.want)
			}
			if _, err := d.VM.AttestVNF(d.HostName(0), "fw-1"); !errors.Is(err, tc.want) {
				t.Fatalf("AttestVNF: got %v, want %v", err, tc.want)
			}
			assertNotIssued(t, d, "fw-1")
		})
	}
}

// assertNotIssued fails t if the VM holds an enrollment of vnf or its
// transparency log an issuance entry for it.
func assertNotIssued(t *testing.T, d *Deployment, vnf string) {
	t.Helper()
	if _, err := d.VM.Enrollment(vnf); !errors.Is(err, verifier.ErrNotEnrolled) {
		t.Fatalf("%s: enrollment recorded (%v)", vnf, err)
	}
	log := d.VM.TransparencyLog()
	entries, err := log.Entries(0, log.Size())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Actor == vnf && (e.Type == translog.EntryEnroll || e.Type == translog.EntryProvision) {
			t.Fatalf("%s: issuance logged: %+v", vnf, e)
		}
	}
}
