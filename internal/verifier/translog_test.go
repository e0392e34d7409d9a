package verifier

import (
	"crypto/ecdsa"
	"errors"
	"testing"

	"vnfguard/internal/translog"
)

// caPub extracts the log verification key the way relying parties get it:
// from the CA certificate.
func caPub(m *Manager) *ecdsa.PublicKey {
	return m.CA().Certificate().PublicKey.(*ecdsa.PublicKey)
}

// TestManagerAuditsWorkflow walks the full credential lifecycle and
// checks that every trust decision landed in the transparency log with a
// verifiable proof.
func TestManagerAuditsWorkflow(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	d.deployAndLearn(t, "fw-1")

	if _, err := d.m.AttestHost("host-a"); err != nil {
		t.Fatal(err)
	}
	enr, err := d.m.EnrollVNF("host-a", "fw-1")
	if err != nil {
		t.Fatal(err)
	}

	// Enrollment + provisioning are committed synchronously: the proof
	// must be available the instant the credential exists.
	pb, err := d.m.CredentialProof(enr.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Verify(caPub(d.m)); err != nil {
		t.Fatalf("credential proof does not verify: %v", err)
	}
	if pb.Entry.Actor != "fw-1" || pb.Entry.Serial != enr.Serial {
		t.Fatalf("wrong proof entry: %+v", pb.Entry)
	}

	// The host attestation verdict rode the batched appender.
	if err := d.m.FlushLog(); err != nil {
		t.Fatal(err)
	}
	log := d.m.TransparencyLog()
	var kinds []translog.EntryType
	entries, err := log.Entries(0, log.Size())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		kinds = append(kinds, e.Type)
	}
	want := map[translog.EntryType]int{
		translog.EntryAttestOK:  2, // host appraisal + credential enclave
		translog.EntryEnroll:    1,
		translog.EntryProvision: 1,
	}
	got := map[translog.EntryType]int{}
	for _, k := range kinds {
		got[k]++
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("entry kinds %v: want %d × %v", kinds, n, k)
		}
	}

	// Revocation lands synchronously and flips the proof to refusal.
	if err := d.m.RevokeVNF("fw-1"); err != nil {
		t.Fatal(err)
	}
	if !log.SerialRevoked(enr.Serial) {
		t.Fatal("revocation not committed")
	}
	if _, err := d.m.CredentialProof(enr.Serial); !errors.Is(err, translog.ErrLogRevoked) {
		t.Fatalf("want ErrLogRevoked, got %v", err)
	}
	sth := log.STH()
	if err := sth.Verify(caPub(d.m)); err != nil {
		t.Fatal(err)
	}
	if sth.Size != log.Size() {
		t.Fatalf("tree head size %d, log size %d", sth.Size, log.Size())
	}
}

// TestManagerAuditsFailedAppraisal checks that a failed host appraisal is
// logged as EntryAttestFail with the findings.
func TestManagerAuditsFailedAppraisal(t *testing.T) {
	d := newDeployment(t, deployOpts{})
	d.deployAndLearn(t, "fw-1")
	d.h.TamperBinary("fw-1", "/usr/bin/firewall", []byte("backdoored"))
	app, err := d.m.AttestHost("host-a")
	if err != nil {
		t.Fatal(err)
	}
	if app.Trusted {
		t.Fatal("tampered host trusted")
	}
	if err := d.m.FlushLog(); err != nil {
		t.Fatal(err)
	}
	log := d.m.TransparencyLog()
	entries, err := log.Entries(0, log.Size())
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range entries {
		if e.Type == translog.EntryAttestFail && e.Actor == "host-a" && e.Detail != "" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no attest-fail entry in %+v", entries)
	}
}
