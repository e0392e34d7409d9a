package verifier

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vnfguard/internal/epid"
	"vnfguard/internal/ias"
	"vnfguard/internal/pki"
	"vnfguard/internal/sgx"
	"vnfguard/internal/simtime"
	"vnfguard/internal/translog"
)

// sealFixture is the minimal trust fabric for sealed-log tests: an
// IAS client (required by New), a shared CA, and one SGX platform that
// plays the VM's machine across Manager lifetimes.
type sealFixture struct {
	ias      ias.QuoteVerifier
	ca       *pki.CA
	platform *sgx.Platform
	logDir   string
	// key is the VM's long-term key, stable across Manager lifetimes —
	// it signs the anchor enclave, whose MRSIGNER namespaces the
	// monotonic counter (in deployments it comes from the statedir).
	key *ecdsa.PrivateKey
}

func newSealFixture(t *testing.T) *sealFixture {
	t.Helper()
	issuer, err := epid.NewIssuer(700)
	if err != nil {
		t.Fatal(err)
	}
	iasSvc, err := ias.NewService(issuer.GroupPublicKey())
	if err != nil {
		t.Fatal(err)
	}
	ca, err := pki.NewCA("seal CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := sgx.NewPlatform("vm-machine", issuer, simtime.ZeroCosts())
	if err != nil {
		t.Fatal(err)
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return &sealFixture{
		ias:      &ias.DirectClient{Service: iasSvc, Model: simtime.ZeroCosts()},
		ca:       ca,
		platform: platform,
		logDir:   t.TempDir(),
		key:      key,
	}
}

// manager opens the durable log under a sealed-head anchor signed with
// the VM key, as the verification-manager binary's -seal-log does, and
// hands it to a Manager; a refused open returns the open's error.
func (f *sealFixture) manager(t *testing.T) (*Manager, error) {
	t.Helper()
	sealed, err := translog.NewSealedHeadAnchor(f.platform, f.key,
		filepath.Join(f.logDir, translog.SealedHeadFileName), f.ca.Certificate().PublicKey.(*ecdsa.PublicKey))
	if err != nil {
		t.Fatal(err)
	}
	tlog, err := translog.OpenDurableLog(f.ca.Signer(), f.logDir,
		translog.StoreConfig{Anchors: []translog.TrustAnchor{sealed}})
	if err != nil {
		return nil, err
	}
	return New(Config{
		Name: "vm-sealed", Key: f.key, SPID: sgx.SPID{7},
		IAS: f.ias,
		CA:  f.ca,
		Log: tlog,
	})
}

// TestSealLogRestartAndTotalAmnesia: a Manager on a sealed-head log
// survives a clean restart on the same platform, but a statedir rewound
// to an earlier committed snapshot — sealed blob included, i.e. nothing
// on disk is inconsistent — is refused at the open with
// ErrSealedRollback.
func TestSealLogRestartAndTotalAmnesia(t *testing.T) {
	f := newSealFixture(t)

	m1, err := f.manager(t)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.TransparencyLog().Append(translog.Entry{
		Type: translog.EntryAttestOK, Timestamp: 1, Actor: "host-a", Detail: "OK",
	}); err != nil {
		t.Fatal(err)
	}
	snap := snapshotFiles(t, f.logDir)
	if _, err := m1.TransparencyLog().Append(translog.Entry{
		Type: translog.EntryAttestOK, Timestamp: 2, Actor: "host-a", Detail: "OK again",
	}); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean restart: same statedir, same platform — recovery passes and
	// the log resumes where it stopped.
	m2, err := f.manager(t)
	if err != nil {
		t.Fatalf("clean sealed restart refused: %v", err)
	}
	if got := m2.TransparencyLog().Size(); got < 2 {
		t.Fatalf("recovered %d entries, want ≥ 2", got)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	// The rewind: restore the whole statedir (WAL, sth.json and the
	// sealed blob together) to the one-entry snapshot. Locally
	// consistent — only the counter on the platform knows better.
	restoreFiles(t, f.logDir, snap)
	if _, err := f.manager(t); !errors.Is(err, translog.ErrSealedRollback) {
		t.Fatalf("total-amnesia rewind at open: got %v, want translog.ErrSealedRollback", err)
	}

	// Without the sealed anchor the rewound statedir opens cleanly —
	// the exact gap the sealed head closes.
	plain, err := translog.OpenDurableLog(f.ca.Signer(), f.logDir, translog.StoreConfig{})
	if err != nil {
		t.Fatalf("rewound statedir should fool an unsealed Manager: %v", err)
	}
	m, err := New(Config{Name: "vm-unsealed", SPID: sgx.SPID{7}, IAS: f.ias, CA: f.ca, Log: plain})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
}

func snapshotFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := make(map[string][]byte)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		snap[e.Name()] = data
	}
	return snap
}

func restoreFiles(t *testing.T, dir string, snap map[string][]byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range snap {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
}
