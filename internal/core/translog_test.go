package core

import (
	"crypto/ecdsa"
	"crypto/tls"
	"strings"
	"testing"
	"time"

	"vnfguard/internal/controller"
	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/pki"
	"vnfguard/internal/translog"
	"vnfguard/internal/vnf"
)

// TestRogueCACertificateRejectedWithoutLogEntry is the deployment-level
// version of the tentpole's acceptance check: even a certificate signed
// with the genuine CA key is useless against the controller unless the
// Verification Manager committed its issuance to the transparency log.
func TestRogueCACertificateRejectedWithoutLogEntry(t *testing.T) {
	d := newTrustedDeployment(t, Options{Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA})
	if _, err := d.RunWorkflow(0, []vnf.VNF{StandardFirewall("fw-1")}); err != nil {
		t.Fatal(err)
	}

	// Enrolled credential: logged, accepted.
	ce, err := d.Hosts[0].CredentialEnclave("fw-1")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ce.ClientTLSConfig(ServerName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := controller.NewClient(d.ControllerURL(), cfg).Summary(); err != nil {
		t.Fatalf("enrolled credential rejected: %v", err)
	}

	// Rogue credential: minted straight from the CA, bypassing the
	// attestation workflow — and therefore the log.
	rogueKey, err := pki.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	csr, err := pki.CreateCSR("fw-rogue", rogueKey)
	if err != nil {
		t.Fatal(err)
	}
	rogueCert, err := d.VM.CA().SignClientCSR(csr, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rogueCfg := cfg.Clone()
	rogueCfg.Certificates = []tls.Certificate{{Certificate: [][]byte{rogueCert.Raw}, PrivateKey: rogueKey}}
	// The rogue holds none of the enrolled VNF's session tickets: a
	// shared cache would resume the enrolled credential's session.
	rogueCfg.ClientSessionCache = nil
	if _, err := controller.NewClient(d.ControllerURL(), rogueCfg).Summary(); err == nil {
		t.Fatal("unlogged CA-signed certificate accepted in trusted mode")
	}

	// The auditable difference: the enrolled serial proves, the rogue one
	// does not.
	pub := d.VM.CA().Certificate().PublicKey.(*ecdsa.PublicKey)
	enr, err := d.VM.Enrollment("fw-1")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := d.VM.CredentialProof(enr.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Verify(pub); err != nil {
		t.Fatal(err)
	}
	if _, err := d.VM.CredentialProof(rogueCert.SerialNumber.String()); err == nil {
		t.Fatal("rogue serial proved")
	}
}

// TestMidSessionRevocationOverDeployment drives the revocation-
// propagation fix through the real stack: an active keep-alive session is
// cut off by VM.RevokeVNF without any new TLS handshake.
func TestMidSessionRevocationOverDeployment(t *testing.T) {
	d := newTrustedDeployment(t, Options{
		Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA,
		TLSMode: enclaveapp.TLSKeyInEnclave,
	})
	if _, err := d.RunWorkflow(0, []vnf.VNF{StandardFirewall("fw-1")}); err != nil {
		t.Fatal(err)
	}
	ce, err := d.Hosts[0].CredentialEnclave("fw-1")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ce.ClientTLSConfig(ServerName)
	if err != nil {
		t.Fatal(err)
	}
	client := controller.NewClient(d.ControllerURL(), cfg)
	defer client.CloseIdle()
	if _, err := client.Summary(); err != nil {
		t.Fatal(err)
	}
	if err := d.VM.RevokeVNF("fw-1"); err != nil {
		t.Fatal(err)
	}
	_, err = client.Summary()
	if err == nil {
		t.Fatal("revoked VNF kept controller access over its live session")
	}
	if !strings.Contains(err.Error(), "403") {
		t.Fatalf("want per-request 403, got: %v", err)
	}
}

// TestDeploymentLogAuditTrail audits a deployment's log end to end with
// the witness, the way cmd/log-server -monitor would.
func TestDeploymentLogAuditTrail(t *testing.T) {
	d := newTrustedDeployment(t, Options{Mode: controller.ModeTrustedHTTPS, Trust: controller.TrustCA})
	log := d.VM.TransparencyLog()
	pub := d.VM.CA().Certificate().PublicKey.(*ecdsa.PublicKey)
	w := translog.NewWitness(pub)
	fetch := translog.NewLogTileProofSource(log, 0).ConsistencyProof
	if err := w.Advance(log.STH(), fetch); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunWorkflow(0, []vnf.VNF{StandardFirewall("fw-1")}); err != nil {
		t.Fatal(err)
	}
	if err := d.VM.FlushLog(); err != nil {
		t.Fatal(err)
	}
	if err := w.Advance(log.STH(), fetch); err != nil {
		t.Fatalf("honest log growth rejected: %v", err)
	}
	if err := d.VM.RevokeVNF("fw-1"); err != nil {
		t.Fatal(err)
	}
	if err := w.Advance(log.STH(), fetch); err != nil {
		t.Fatalf("post-revocation head rejected: %v", err)
	}
	last, _ := w.Last()
	if last.Size == 0 {
		t.Fatal("witness never advanced")
	}
}
