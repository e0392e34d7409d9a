package core

import (
	"bytes"
	"crypto/x509"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/host"
	"vnfguard/internal/pki"
	"vnfguard/internal/ra"
	"vnfguard/internal/secchan"
	"vnfguard/internal/translog"
)

// hostileAgent fronts a genuine host agent. It records the body of every
// reply by request path and relays it, unless a rewrite is set for a
// path ending in its suffix, in which case it relays the rewrite's
// output instead.
type hostileAgent struct {
	agent http.Handler

	mu      sync.Mutex
	replies map[string][]byte
	suffix  string
	rewrite func([]byte) []byte
}

func (a *hostileAgent) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	a.agent.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	a.mu.Lock()
	a.replies[r.URL.Path] = body
	rewrite := a.rewrite
	if !strings.HasSuffix(r.URL.Path, a.suffix) {
		rewrite = nil
	}
	a.mu.Unlock()
	if rewrite != nil {
		body = rewrite(bytes.Clone(body))
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// set makes the agent rewrite replies to paths ending in suffix; a nil
// rewrite relays every reply as the genuine agent sent it.
func (a *hostileAgent) set(suffix string, rewrite func([]byte) []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.suffix, a.rewrite = suffix, rewrite
}

// reply returns the last genuine reply recorded for path.
func (a *hostileAgent) reply(path string) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.replies[path]
}

// TestHostileAgentRefusalsNamed drives the VM against a genuine host
// agent behind a proxy over HTTP. The genuine row attests the host and
// enrolls a VNF over the agent wire. Every other row rewrites one
// reply, and the VM refuses it with the sentinel that names the
// refusal: within the client timeout, without a panic, with no
// enrollment recorded and no issuance logged for that VNF.
func TestHostileAgentRefusalsNamed(t *testing.T) {
	d := newTrustedDeployment(t, Options{})
	agent := &hostileAgent{agent: d.Hosts[0].Handler(), replies: map[string][]byte{}}
	// The genuine row's replies the replay rows send again.
	const msg3Path, framePath = "/agent/v1/vnf/fw-1/ra/msg2", "/agent/v1/vnf/fw-1/frame"
	cases := []struct {
		name    string
		vnf     string // "" for a host attestation row
		suffix  string
		rewrite func(body []byte) []byte
		want    error
	}{
		{"genuine", "fw-1", "", nil, nil},
		{"truncated evidence", "", "/attest", func(b []byte) []byte {
			return b[:len(b)-1]
		}, enclaveapp.ErrEvidenceEncoding},
		{"junk msg1", "fw-2", "/ra/msg1", func([]byte) []byte {
			return []byte("junk")
		}, ra.ErrMalformed},
		{"truncated msg3", "fw-3", "/ra/msg2", func(b []byte) []byte {
			return b[:len(b)-1]
		}, ra.ErrTruncated},
		{"msg3 of another VNF's exchange", "fw-4", "/ra/msg2", func([]byte) []byte {
			return agent.reply(msg3Path)
		}, ra.ErrMsg3MAC},
		{"provisioning reply bit-flipped", "fw-5", "/frame", func(b []byte) []byte {
			b[len(b)-1] ^= 1
			return b
		}, secchan.ErrAuth},
		{"provisioning reply replayed", "fw-6", "/frame", func([]byte) []byte {
			return agent.reply(framePath)
		}, secchan.ErrAuth},
		{"reply over 4 MiB", "fw-7", "/ra/msg1", func([]byte) []byte {
			return make([]byte, 4<<20+1)
		}, host.ErrResponseTooLarge},
	}
	for i := 2; i <= 7; i++ {
		if err := d.DeployVNF(0, fmt.Sprintf("fw-%d", i), "firewall"); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.LearnGolden(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(agent)
	defer srv.Close()
	d.VM.RegisterHost(d.HostName(0), host.NewClient(srv.URL), nil)

	// clientTimeout is host.Client's bound on one agent request.
	const clientTimeout = 10 * time.Second
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			agent.set("", nil)
			if tc.vnf != "" {
				if app, err := d.VM.AttestHost(d.HostName(0)); err != nil || !app.Trusted {
					t.Fatalf("host appraisal: %v %v", err, app.Findings)
				}
			}
			agent.set(tc.suffix, tc.rewrite)
			start := time.Now()
			var err error
			if tc.vnf == "" {
				_, err = d.VM.AttestHost(d.HostName(0))
			} else {
				_, err = d.VM.EnrollVNF(d.HostName(0), tc.vnf)
			}
			if elapsed := time.Since(start); elapsed >= clientTimeout {
				t.Fatalf("call took %v, past the client timeout", elapsed)
			}
			if tc.want == nil {
				if err != nil {
					t.Fatalf("genuine agent: %v", err)
				}
				if len(agent.reply(msg3Path)) == 0 || len(agent.reply(framePath)) == 0 {
					t.Fatal("genuine exchange left no msg3 or provisioning reply to replay")
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if tc.vnf != "" {
				assertNotIssued(t, d, tc.vnf)
			}
			if tc.suffix == "/frame" {
				assertEnclaveCertRevoked(t, d, tc.vnf)
			}
		})
	}
}

// TestUnloggedEnrollmentRevoked: when the enrollment's log commit fails
// after the enclave accepted its credential, EnrollVNF returns the log's
// error and the VM revokes the certificate the enclave holds.
func TestUnloggedEnrollmentRevoked(t *testing.T) {
	d := newTrustedDeployment(t, Options{LogDir: t.TempDir()})
	if app, err := d.VM.AttestHost(d.HostName(0)); err != nil || !app.Trusted {
		t.Fatalf("host appraisal: %v", err)
	}
	// A closed durable log refuses every commit with ErrStoreFailed.
	if err := d.VM.TransparencyLog().Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.VM.EnrollVNF(d.HostName(0), "fw-1"); !errors.Is(err, translog.ErrStoreFailed) {
		t.Fatalf("got %v, want translog.ErrStoreFailed", err)
	}
	assertEnclaveCertRevoked(t, d, "fw-1")
}

// assertEnclaveCertRevoked fails t unless vnf's enclave holds a
// provisioned certificate that the VM's revocation checker refuses: a
// provisioning frame the enclave accepted, under a reply the VM refused,
// leaves a credential the VM must revoke since it never records it.
func assertEnclaveCertRevoked(t *testing.T, d *Deployment, vnf string) {
	t.Helper()
	ce, err := d.Hosts[0].CredentialEnclave(vnf)
	if err != nil {
		t.Fatal(err)
	}
	der, _, err := ce.Certificate()
	if err != nil || len(der) == 0 {
		t.Fatalf("%s: enclave holds no provisioned certificate (%v)", vnf, err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.VM.RevocationChecker()(cert); !errors.Is(err, pki.ErrRevoked) {
		t.Fatalf("%s: enclave certificate serial %s passes the revocation checker (%v)", vnf, cert.SerialNumber, err)
	}
}
