// Package statedir implements the file-based rendezvous the multi-process
// binaries (cmd/ias-server, cmd/controller, cmd/container-host,
// cmd/verification-manager) use to exchange public material and service
// URLs: each process writes what it owns and polls for what it needs.
package statedir

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Dir is a state directory handle.
type Dir struct{ path string }

// Open creates (if needed) and returns a state directory.
func Open(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("statedir: %w", err)
	}
	return &Dir{path: path}, nil
}

// Path returns the absolute location of a named entry.
func (d *Dir) Path(name string) string { return filepath.Join(d.path, name) }

// Write atomically and durably replaces an entry (ReplaceFile with
// sync): entries hold key material and trust-anchor heads, where a
// lost-after-rename file reads as a rollback.
func (d *Dir) Write(name string, data []byte) error {
	return ReplaceFile(d.Path(name), data, true)
}

// ReplaceFile atomically replaces the file at path with data: readers
// see either the old contents or the new, never a partial file, and a
// failed replacement leaves no stray temp file behind. With sync the
// temp file is fsynced before the rename and the parent directory after
// it, so the replacement survives a crash; without it the same
// create-write-rename runs with no fsync, for files whose loss costs
// only a recomputation and for stores run without durability. It is the
// project's one tmp+fsync+rename+dir-sync writer.
//
// Each call stages its bytes in a temp file of its own (<name>.tmp-*,
// mode 0600), so two writers of one file never rename or truncate each
// other's staging: the file ends up holding one writer's whole bytes.
func ReplaceFile(path string, data []byte, sync bool) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("statedir: replacing %s: %w", filepath.Base(path), err)
	}
	tmp := f.Name()
	if _, err = f.Write(data); err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("statedir: replacing %s: %w", filepath.Base(path), err)
	}
	if sync {
		return SyncDir(filepath.Dir(path))
	}
	return nil
}

// SyncDir fsyncs a directory, so the creations and renames within it
// survive a crash.
func SyncDir(path string) error {
	dir, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("statedir: syncing dir: %w", err)
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("statedir: syncing dir: %w", err)
	}
	return nil
}

// Read returns an entry's contents.
func (d *Dir) Read(name string) ([]byte, error) {
	return os.ReadFile(d.Path(name))
}

// ReadString returns a trimmed entry.
func (d *Dir) ReadString(name string) (string, error) {
	b, err := d.Read(name)
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(b)), nil
}

// WaitFor polls until an entry exists (other process publishing it) or
// the timeout elapses.
func (d *Dir) WaitFor(name string, timeout time.Duration) ([]byte, error) {
	deadline := time.Now().Add(timeout)
	for {
		b, err := d.Read(name)
		if err == nil {
			return b, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("statedir: timed out waiting for %s", name)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// Exists reports whether an entry is present.
func (d *Dir) Exists(name string) bool {
	_, err := os.Stat(d.Path(name))
	return err == nil
}

// Match returns the names of entries matching pattern (filepath.Match
// syntax), sorted — the discovery half of the rendezvous: processes that
// publish under a shared prefix (witness gossip URLs, host records) are
// found without any registry.
func (d *Dir) Match(pattern string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(d.path, pattern))
	if err != nil {
		return nil, fmt.Errorf("statedir: %w", err)
	}
	names := make([]string, 0, len(paths))
	for _, p := range paths {
		names = append(names, filepath.Base(p))
	}
	return names, nil
}

// ---- key material helpers -------------------------------------------------

// GenerateKeyPEM creates a fresh P-256 key and returns it as PKCS#8 PEM.
func GenerateKeyPEM() ([]byte, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	return MarshalKeyPEM(key)
}

// MarshalKeyPEM encodes a private key as PKCS#8 PEM.
func MarshalKeyPEM(key *ecdsa.PrivateKey) ([]byte, error) {
	der, err := x509.MarshalPKCS8PrivateKey(key)
	if err != nil {
		return nil, err
	}
	return pem.EncodeToMemory(&pem.Block{Type: "PRIVATE KEY", Bytes: der}), nil
}

// ParseKeyPEM decodes a PKCS#8 PEM private key.
func ParseKeyPEM(data []byte) (*ecdsa.PrivateKey, error) {
	block, _ := pem.Decode(data)
	if block == nil || block.Type != "PRIVATE KEY" {
		return nil, errors.New("statedir: no private key block")
	}
	keyAny, err := x509.ParsePKCS8PrivateKey(block.Bytes)
	if err != nil {
		return nil, err
	}
	key, ok := keyAny.(*ecdsa.PrivateKey)
	if !ok {
		return nil, fmt.Errorf("statedir: key type %T unsupported", keyAny)
	}
	return key, nil
}

// MarshalPubPEM encodes a public key as PKIX PEM.
func MarshalPubPEM(pub *ecdsa.PublicKey) ([]byte, error) {
	der, err := x509.MarshalPKIXPublicKey(pub)
	if err != nil {
		return nil, err
	}
	return pem.EncodeToMemory(&pem.Block{Type: "PUBLIC KEY", Bytes: der}), nil
}

// ParsePubPEM decodes a PKIX PEM public key.
func ParsePubPEM(data []byte) (*ecdsa.PublicKey, error) {
	block, _ := pem.Decode(data)
	if block == nil || block.Type != "PUBLIC KEY" {
		return nil, errors.New("statedir: no public key block")
	}
	pubAny, err := x509.ParsePKIXPublicKey(block.Bytes)
	if err != nil {
		return nil, err
	}
	pub, ok := pubAny.(*ecdsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("statedir: public key type %T unsupported", pubAny)
	}
	return pub, nil
}

// Well-known entry names shared by the binaries.
const (
	FileIssuer         = "epid-issuer.json"
	FileIASURL         = "ias-url"
	FileIASCert        = "ias-signing-cert.pem"
	FileVMKey          = "vm-key.pem"
	FileVMPub          = "vm-pub.pem"
	FileVendorKey      = "vendor-key.pem"
	FileCACert         = "ca-cert.pem"
	FileCAKey          = "ca-key.pem"
	FileControllerCert = "controller-cert.pem"
	FileControllerKey  = "controller-key.pem"
	FileControllerURL  = "controller-url"
	FileLogURL         = "translog-url"
)

// Well-known subdirectories: the durable transparency-log stores (WAL
// segments + persisted tree head) of the Verification Manager and the
// standalone log server. They are separate stores — two processes must
// never share one WAL — chained to the same CA key.
const (
	DirVMLog     = "translog-vm"
	DirServerLog = "translog-server"
)

// HostInfoFile returns the entry name a host agent publishes.
func HostInfoFile(name string) string { return "host-" + name + ".json" }

// WitnessURLFile returns the entry name under which a gossiping witness
// (log-server -monitor) publishes its gossip endpoint URL; peers and the
// Verification Manager discover the witness set via
// Match(WitnessURLPattern).
func WitnessURLFile(name string) string { return "witness-" + name + ".url" }

// WitnessURLPattern matches every published witness gossip URL entry.
const WitnessURLPattern = "witness-*.url"
