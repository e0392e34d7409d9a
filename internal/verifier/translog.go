package verifier

import (
	"crypto/ecdsa"
	"crypto/x509"
	"errors"
	"strings"
	"time"

	"vnfguard/internal/sgx"
	"vnfguard/internal/translog"
)

// The Verification Manager commits every externally visible trust
// decision to its transparency log, so hosts, controllers and third-party
// auditors can verify what the trust anchor did instead of taking its
// word. Attestation verdicts ride the batched appender (the hot path
// never blocks on hashing or tree-head signing); enrollment, provisioning
// and revocation commit synchronously, because their entries must be
// provable before the credential is used — the controller's trusted mode
// rejects credentials that are not yet in the log.

// TransparencyLog returns the VM's audit log (serve it with
// translog.Handler or cmd/log-server).
func (m *Manager) TransparencyLog() *translog.Log { return m.tlog }

// CredentialProof returns the verifiable issuance proof for a credential
// serial: the log entry, its audit path and the signed tree head. This is
// what a VNF (or its host) hands to relying parties that demand logged
// evidence. The path folds from the log's tiles, as a relying party's
// own would; the assembler lives for this one call, so the Manager keeps
// no tile cache beside the controller's.
func (m *Manager) CredentialProof(serial string) (*translog.ProofBundle, error) {
	return translog.NewLogTileProofSource(m.tlog, 0).ProveSerial(serial)
}

// CredentialChecker returns the controller-side hook that rejects any
// client certificate the VM never logged (or whose revocation is logged),
// verified against the CA public key. Audit paths are assembled from the
// log's tile read path (with a local expanded-tile cache) instead of
// per-handshake proof computation, so a burst of TLS handshakes never
// turns into a burst of O(log n) hashing on the sequencer's tree.
func (m *Manager) CredentialChecker() func(cert *x509.Certificate) error {
	pub := m.ca.Certificate().PublicKey.(*ecdsa.PublicKey)
	return translog.NewCredentialChecker(pub, translog.NewLogTileProofSource(m.tlog, 0))
}

// FlushLog forces any buffered attestation entries into the tree (tests
// and orderly shutdown).
func (m *Manager) FlushLog() error { return m.tlogAppender.Flush() }

// LogShard reports which per-host shard of the transparency log carries
// a host's audit entries — the mapping the sharded appender and the
// sharded WAL both use. Zero (with ok=false) when the log is unsharded.
func (m *Manager) LogShard(host string) (shard int, ok bool) {
	n := m.tlogAppender.Shards()
	if n <= 1 {
		return 0, false
	}
	return translog.ShardOf(host, n), true
}

// Close releases the Manager's background resources: the appender is
// flushed and stopped, then the log is closed (a durable one with its
// tail segment fsynced).
func (m *Manager) Close() error {
	return errors.Join(m.tlogAppender.Close(), m.tlog.Close())
}

// auditSync commits entries immediately, as one batch under a single
// tree-head signature.
func (m *Manager) auditSync(entries ...translog.Entry) error {
	now := time.Now().UnixMilli()
	for i := range entries {
		entries[i].Timestamp = now
	}
	_, err := m.tlog.AppendBatch(entries)
	if err == nil {
		for i := range entries {
			countVerdict(entries[i].Type)
		}
	}
	return err
}

// auditAsync buffers an entry on the batched appender.
func (m *Manager) auditAsync(e translog.Entry) {
	e.Timestamp = time.Now().UnixMilli()
	// The only failure mode is a closed appender during shutdown; verdicts
	// are still enforced locally, so dropping the audit write is safe.
	if m.tlogAppender.Append(e) == nil {
		countVerdict(e.Type)
	}
}

// auditAppraisal records a host appraisal outcome.
func (m *Manager) auditAppraisal(app *HostAppraisal) {
	e := translog.Entry{
		Type:   translog.EntryAttestOK,
		Actor:  app.Host,
		Host:   app.Host,
		Detail: string(app.QuoteStatus),
	}
	if !app.Trusted {
		e.Type = translog.EntryAttestFail
		e.Detail = strings.Join(app.Findings, "; ")
	}
	m.auditAsync(e)
}

// auditVNFAttestation records a credential-enclave attestation verdict.
func (m *Manager) auditVNFAttestation(vnf, hostName string, mr sgx.Measurement, err error) {
	e := translog.Entry{
		Type:        translog.EntryAttestOK,
		Actor:       vnf,
		Host:        hostName,
		Measurement: append([]byte(nil), mr[:]...),
		Detail:      "OK",
	}
	if err != nil {
		e.Type = translog.EntryAttestFail
		e.Measurement = nil
		e.Detail = err.Error()
	}
	m.auditAsync(e)
}
