package verifier

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vnfguard/internal/ias"
	"vnfguard/internal/pki"
	"vnfguard/internal/sgx"
	"vnfguard/internal/translog"
)

// TestRestartDurableLog is the end-to-end restart guarantee at the
// Verification Manager level: enroll + attest + provision on a durable
// log, shut the VM down, open a fresh Manager over the same statedir —
// and every pre-restart credential proof still verifies, revocations
// still refuse, and the controller-side log gate still admits exactly
// the credentials it admitted before.
func TestRestartDurableLog(t *testing.T) {
	logDir := t.TempDir()
	ca, err := pki.NewCA("restart CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	// First VM lifetime: the full workflow, one credential revoked.
	d := newDeployment(t, deployOpts{ca: ca, log: openLog(t, ca, logDir, translog.StoreConfig{})})
	d.deployAndLearn(t, "fw-keep")
	d.deployAndLearn(t, "fw-revoke")
	if _, err := d.m.AttestHost("host-a"); err != nil {
		t.Fatal(err)
	}
	kept, err := d.m.EnrollVNF("host-a", "fw-keep")
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := d.m.EnrollVNF("host-a", "fw-revoke")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.m.RevokeVNF("fw-revoke"); err != nil {
		t.Fatal(err)
	}
	preProof, err := d.m.CredentialProof(kept.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.m.FlushLog(); err != nil {
		t.Fatal(err)
	}
	preSTH := d.m.TransparencyLog().STH()
	if err := d.m.Close(); err != nil {
		t.Fatal(err)
	}

	// Second lifetime: same CA, same statedir, nothing else carried over
	// (enrollment state is in-memory and deliberately not reused).
	reopened, err := translog.OpenDurableLog(ca.Signer(), logDir, translog.StoreConfig{})
	if err != nil {
		t.Fatalf("reopening VM over durable log: %v", err)
	}
	m2, err := New(Config{
		Name: "vm-restarted", SPID: sgx.SPID{9},
		IAS: &ias.DirectClient{Service: d.iasSvc, Model: d.model},
		CA:  ca,
		Log: reopened,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	log2 := m2.TransparencyLog()
	if !log2.Durable() {
		t.Fatal("restarted VM log not durable")
	}
	if log2.Size() != preSTH.Size {
		t.Fatalf("recovered %d entries, want %d", log2.Size(), preSTH.Size)
	}

	// The pre-restart proof bundle verifies as-is (stateless), and the
	// restarted VM issues a fresh proof for the same serial against its
	// recovered head.
	if err := preProof.Verify(caPub(m2)); err != nil {
		t.Fatalf("pre-restart proof: %v", err)
	}
	postProof, err := m2.CredentialProof(kept.Serial)
	if err != nil {
		t.Fatalf("pre-restart serial unprovable after restart: %v", err)
	}
	if postProof.Index != preProof.Index {
		t.Fatalf("serial index moved across restart: %d -> %d", preProof.Index, postProof.Index)
	}
	if err := postProof.Verify(caPub(m2)); err != nil {
		t.Fatal(err)
	}

	// Revocation persisted: the proof path refuses and the log flags it.
	if _, err := m2.CredentialProof(dropped.Serial); !errors.Is(err, translog.ErrLogRevoked) {
		t.Fatalf("revoked serial after restart: got %v, want ErrLogRevoked", err)
	}
	if !log2.SerialRevoked(dropped.Serial) {
		t.Fatal("revocation lost across restart")
	}

	// The controller's log gate behaves identically to before the
	// restart: logged credential admitted, revoked one refused.
	check := m2.CredentialChecker()
	if err := check(kept.Cert); err != nil {
		t.Fatalf("logged credential rejected after restart: %v", err)
	}
	if err := check(dropped.Cert); err == nil {
		t.Fatal("revoked credential admitted after restart")
	}

	// New appends chain onto the recovered history: the pre-restart head
	// is consistency-proven into the post-restart one.
	if _, err := log2.Append(translog.Entry{Type: translog.EntryAttestOK, Actor: "host-a", Detail: "post-restart"}); err != nil {
		t.Fatal(err)
	}
	postSTH := log2.STH()
	proof, err := translog.NewLogTileProofSource(log2, 0).ConsistencyProof(preSTH.Size, postSTH.Size)
	if err != nil {
		t.Fatal(err)
	}
	if err := translog.VerifyConsistency(preSTH.Size, postSTH.Size, preSTH.RootHash, postSTH.RootHash, proof); err != nil {
		t.Fatalf("post-restart history not an extension of pre-restart history: %v", err)
	}
}

// TestRestartRefusesRolledBackStatedir is the flip side: if the statedir
// was rolled back between runs (here: the whole store emptied but the
// head kept — the minimal rollback), the VM must refuse to start rather
// than silently re-serve truncated history.
func TestRestartRefusesRolledBackStatedir(t *testing.T) {
	logDir := t.TempDir()
	ca, err := pki.NewCA("rollback CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	d := newDeployment(t, deployOpts{ca: ca, log: openLog(t, ca, logDir, translog.StoreConfig{})})
	d.deployAndLearn(t, "fw-1")
	if _, err := d.m.AttestHost("host-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.m.EnrollVNF("host-a", "fw-1"); err != nil {
		t.Fatal(err)
	}
	if err := d.m.Close(); err != nil {
		t.Fatal(err)
	}

	rollBackStore(t, logDir)

	_, err = translog.OpenDurableLog(ca.Signer(), logDir, translog.StoreConfig{})
	if !errors.Is(err, translog.ErrStateRollback) {
		t.Fatalf("rolled-back statedir: got %v, want translog.ErrStateRollback", err)
	}
}

// TestRestartShardedDurableLog runs the restart guarantee over a
// per-host sharded log store: the Manager batches its audit entries
// through the sharded appender, the WAL splits into per-host segment
// streams, and a second Manager lifetime recovers the interleaved
// streams into the same history — proofs, indices and revocations
// intact. The host→shard mapping is exposed and stable across restarts.
func TestRestartShardedDurableLog(t *testing.T) {
	logDir := t.TempDir()
	store := translog.StoreConfig{Shards: 4}
	ca, err := pki.NewCA("shard CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	d := newDeployment(t, deployOpts{ca: ca, log: openLog(t, ca, logDir, store)})
	shard, ok := d.m.LogShard("host-a")
	if !ok || shard < 0 || shard >= 4 {
		t.Fatalf("LogShard(host-a) = (%d,%v), want a slot in [0,4)", shard, ok)
	}
	d.deployAndLearn(t, "fw-keep")
	d.deployAndLearn(t, "fw-revoke")
	if _, err := d.m.AttestHost("host-a"); err != nil {
		t.Fatal(err)
	}
	kept, err := d.m.EnrollVNF("host-a", "fw-keep")
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := d.m.EnrollVNF("host-a", "fw-revoke")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.m.RevokeVNF("fw-revoke"); err != nil {
		t.Fatal(err)
	}
	preProof, err := d.m.CredentialProof(kept.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.m.FlushLog(); err != nil {
		t.Fatal(err)
	}
	preSTH := d.m.TransparencyLog().STH()
	if err := d.m.Close(); err != nil {
		t.Fatal(err)
	}

	// The WAL really is sharded: per-host stream files exist.
	shardSegs, err := filepath.Glob(filepath.Join(logDir, "seg-h*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(shardSegs) == 0 {
		t.Fatal("sharded store produced no per-host segment streams")
	}

	reopened, err := translog.OpenDurableLog(ca.Signer(), logDir, store)
	if err != nil {
		t.Fatalf("reopening VM over sharded durable log: %v", err)
	}
	m2, err := New(Config{
		Name: "vm-restarted", SPID: sgx.SPID{9},
		IAS: &ias.DirectClient{Service: d.iasSvc, Model: d.model},
		CA:  ca,
		Log: reopened,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got, ok := m2.LogShard("host-a"); !ok || got != shard {
		t.Fatalf("host shard moved across restart: %d -> %d (ok=%v)", shard, got, ok)
	}
	log2 := m2.TransparencyLog()
	if log2.Size() != preSTH.Size {
		t.Fatalf("recovered %d entries, want %d", log2.Size(), preSTH.Size)
	}
	if err := preProof.Verify(caPub(m2)); err != nil {
		t.Fatalf("pre-restart proof: %v", err)
	}
	postProof, err := m2.CredentialProof(kept.Serial)
	if err != nil {
		t.Fatalf("pre-restart serial unprovable after sharded restart: %v", err)
	}
	if postProof.Index != preProof.Index {
		t.Fatalf("serial index moved across sharded restart: %d -> %d", preProof.Index, postProof.Index)
	}
	if _, err := m2.CredentialProof(dropped.Serial); !errors.Is(err, translog.ErrLogRevoked) {
		t.Fatalf("revoked serial after sharded restart: got %v, want ErrLogRevoked", err)
	}
}

// openLog opens a durable transparency log in dir under the CA key, for
// a Manager to be handed.
func openLog(t *testing.T, ca *pki.CA, dir string, store translog.StoreConfig) *translog.Log {
	t.Helper()
	l, err := translog.OpenDurableLog(ca.Signer(), dir, store)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// rollBackStore deletes the WAL segments while keeping the persisted
// tree head — the on-disk shape of a restored-from-snapshot attack.
func rollBackStore(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no WAL segments to roll back")
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}
}
