// Package verifier implements the Verification Manager, the central
// component of the paper's architecture: it attests container hosts
// (steps 1–2), attests VNF credential enclaves (steps 3–4), acts as the
// certificate authority, generates HMAC keys and nonces, provisions
// credentials over the attested secure channel (step 5), and revokes them
// when trust is withdrawn.
package verifier

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/ias"
	"vnfguard/internal/ima"
	"vnfguard/internal/pki"
	"vnfguard/internal/ra"
	"vnfguard/internal/secchan"
	"vnfguard/internal/sgx"
	"vnfguard/internal/tpm"
	"vnfguard/internal/translog"
)

// HostConn is the Verification Manager's view of a container host. Both
// the in-process host.Host and the HTTP host.Client satisfy it.
type HostConn interface {
	Attest(nonce []byte, useTPM bool) (*enclaveapp.HostEvidence, error)
	VNFs() ([]string, error)
	VNFRAMsg1(vnf string) (*ra.Msg1, error)
	VNFRAMsg2(vnf string, m2 *ra.Msg2) (*ra.Msg3, error)
	VNFRAMsg4(vnf string, m4 *ra.Msg4) error
	VNFFrame(vnf string, frame []byte) ([]byte, error)
}

// Errors.
var (
	ErrUnknownHost      = errors.New("verifier: unknown host")
	ErrHostNotTrusted   = errors.New("verifier: host not trusted")
	ErrNotEnrolled      = errors.New("verifier: VNF not enrolled")
	ErrAlreadyEnrolled  = errors.New("verifier: VNF already enrolled")
	ErrEvidenceBinding  = errors.New("verifier: evidence not bound to quote")
	ErrNonceMismatch    = errors.New("verifier: evidence nonce mismatch")
	ErrUnexpectedMR     = errors.New("verifier: unexpected enclave measurement")
	ErrDebugEnclave     = errors.New("verifier: debug enclave rejected by policy")
	ErrSVNTooLow        = errors.New("verifier: enclave security version below policy floor")
	ErrQuoteStatus      = errors.New("verifier: attestation service rejected quote")
	ErrTPMRequired      = errors.New("verifier: policy requires TPM-rooted measurements")
	ErrTPMMismatch      = errors.New("verifier: IML does not match TPM PCR")
	ErrProvisionTimeout = errors.New("verifier: provisioning failed")

	// ErrIMAViolation wraps each IMA appraisal finding: a measured file
	// outside the golden database, a modified one, or a required one
	// missing. Its text is the "IMA" prefix operators read in Findings.
	ErrIMAViolation = errors.New("IMA")

	// ErrIASReport wraps every IAS client failure behind a host or
	// credential-enclave appraisal: no verifiable attestation report or
	// SigRL came back (transport, status, AVR signature, AVR nonce or
	// an over-cap reply).
	ErrIASReport = errors.New("verifier: no verifiable attestation report")
)

// Policy is the appraisal policy applied to quotes and hosts.
type Policy struct {
	// AllowDebug accepts debug-attribute enclaves (never in production).
	AllowDebug bool
	// MinISVSVN is the lowest acceptable enclave security version.
	MinISVSVN uint16
	// RequireTPM demands hardware-rooted IML on every host attestation
	// (the paper's §4 extension).
	RequireTPM bool
	// ReattestAfter bounds how long a host appraisal remains fresh.
	ReattestAfter time.Duration
}

// DefaultPolicy is fail-closed with one-minute appraisal freshness.
func DefaultPolicy() Policy {
	return Policy{MinISVSVN: 1, ReattestAfter: time.Minute}
}

// Config assembles a Manager.
type Config struct {
	Name string
	// Key is the VM's long-term signing key (generated when nil). Its
	// public half is baked into credential enclave measurements.
	Key *ecdsa.PrivateKey
	// SPID identifies this service provider to IAS.
	SPID sgx.SPID
	// IAS is the attestation-service client.
	IAS ias.QuoteVerifier
	// Policy is the appraisal policy (DefaultPolicy when zero).
	Policy Policy
	// ProvisionMode selects VM-generated keys (the paper's design) or
	// enclave-side CSR (hardening ablation).
	ProvisionMode enclaveapp.ProvisionMode
	// CertValidity bounds issued VNF certificates.
	CertValidity time.Duration
	// CA injects a pre-existing certificate authority (multi-process
	// deployments share one CA across the init and run phases). When nil
	// a fresh CA is created.
	CA *pki.CA
	// Log injects a pre-existing transparency log (deployments that run
	// cmd/log-server in-process share it with the HTTP handler). When nil
	// a fresh log signed by the CA key is created.
	Log *translog.Log
	// LogDir, when set (and Log is nil), opens a durable transparency log
	// in that directory — typically a subdirectory of the deployment's
	// statedir. The open replays, verifies and resumes any previous
	// state, so audit history survives VM restarts; it fails with the
	// translog.ErrState* errors if the on-disk log was rolled back,
	// tampered with or damaged since the last run.
	LogDir string
	// LogStore tunes the durable store when LogDir is set. With
	// LogStore.Shards > 1 the Manager also swaps its hot-path batcher
	// for a translog.ShardedAppender: every enrolled host maps to the
	// shard translog.ShardOf picks for its name, each host's attestation
	// verdicts buffer behind that host's own lock, and a merging
	// sequencer commits all hosts' batches as one Merkle batch per cycle
	// — per-host WAL streams, one tree-head signature and one
	// trust-anchor bump per cycle, so the audit log ingests a fleet of
	// VMs without serialising them.
	LogStore translog.StoreConfig
	// SealLog, when non-nil (and the Manager opens a durable log via
	// LogDir), anchors the log's newest signed tree head in an
	// enclave-sealed, monotonic-counter-stamped blob on this SGX
	// platform — the Manager's own enclave-rooted freshness memory. A
	// statedir rewound consistently (segments, sth.json and even every
	// witness's persisted head together) then still refuses to open,
	// with translog.ErrSealedRollback, because the counter in platform
	// NV outlives the disk. The anchor enclave is signed with the VM's
	// long-term key, whose MRSIGNER namespaces the counter — supply the
	// same Key across restarts (deployments load it from the statedir).
	SealLog *sgx.Platform
}

// hostRecord tracks one registered host.
type hostRecord struct {
	name     string
	conn     HostConn
	aik      *ecdsa.PublicKey // pinned TPM AIK (nil when host has no TPM)
	trusted  bool
	lastSeen time.Time
	last     *HostAppraisal
}

// Enrollment is one provisioned VNF.
type Enrollment struct {
	VNF        string
	Host       string
	CommonName string
	Serial     string
	Cert       *x509.Certificate
	// codec continues the provisioning channel (revocation uses it).
	codec   *secchan.RecordCodec
	hmacKey []byte
	// EnclaveMeasurement is the attested credential-enclave identity.
	EnclaveMeasurement sgx.Measurement
	EnrolledAt         time.Time
}

// Manager is the Verification Manager.
type Manager struct {
	name string
	key  *ecdsa.PrivateKey
	spid sgx.SPID
	iasC ias.QuoteVerifier
	ca   *pki.CA

	policy       Policy
	provMode     enclaveapp.ProvisionMode
	certValidity time.Duration

	goldenIMA *ima.GoldenDB

	// tlog is the transparency log recording every trust decision;
	// tlogAppender batches the hot-path attestation entries through the
	// merging sequencer, one buffer per log shard (Shards: 1 for a
	// one-stream log). tlogOwned marks a durable log the Manager
	// opened itself (from Config.LogDir) and must therefore close.
	tlog         *translog.Log
	tlogOwned    bool
	tlogAppender *translog.ShardedAppender
	tlogShards   int

	mu          sync.Mutex
	expectAtt   map[sgx.Measurement]bool
	expectCred  map[sgx.Measurement]bool
	hosts       map[string]*hostRecord
	enrollments map[string]*Enrollment
	nonces      map[string]bool // issued, unconsumed nonces
}

// New creates a Manager with its embedded CA.
func New(cfg Config) (*Manager, error) {
	if cfg.IAS == nil {
		return nil, errors.New("verifier: config requires an IAS client")
	}
	key := cfg.Key
	if key == nil {
		var err error
		key, err = ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("verifier: generating VM key: %w", err)
		}
	}
	if cfg.Policy == (Policy{}) {
		cfg.Policy = DefaultPolicy()
	}
	if cfg.ProvisionMode == "" {
		cfg.ProvisionMode = enclaveapp.ModeVMGenerated
	}
	if cfg.CertValidity <= 0 {
		cfg.CertValidity = pki.DefaultValidity
	}
	ca := cfg.CA
	if ca == nil {
		var err error
		ca, err = pki.NewCA(cfg.Name+" CA", 10*365*24*time.Hour)
		if err != nil {
			return nil, err
		}
	}
	tlog := cfg.Log
	ownsLog := false
	if tlog == nil {
		var err error
		if cfg.LogDir != "" {
			store := cfg.LogStore
			if cfg.SealLog != nil {
				// The anchor enclave is signed with the VM's long-term
				// key; the sealed blob binds (AAD) to the CA key that
				// signs tree heads, so it can never vouch for another
				// log's freshness. The anchor rides the store's anchor
				// chain: sealed on every committed batch, checked at
				// every open, closed with the log (OpenDurableLog
				// releases it on refused opens too).
				sealed, serr := translog.NewSealedHeadAnchor(cfg.SealLog, key,
					filepath.Join(cfg.LogDir, translog.SealedHeadFileName),
					ca.Certificate().PublicKey.(*ecdsa.PublicKey))
				if serr != nil {
					return nil, fmt.Errorf("verifier: launching sealed-head anchor: %w", serr)
				}
				store.Anchors = append(append([]translog.TrustAnchor(nil), store.Anchors...), sealed)
			}
			tlog, err = translog.OpenDurableLog(ca.Signer(), cfg.LogDir, store)
			ownsLog = true
		} else {
			tlog, err = translog.NewLog(ca.Signer())
		}
		if err != nil {
			return nil, err
		}
	}
	// The effective shard count is whatever the durable store pinned at
	// creation — a store opened with a different LogStore.Shards keeps
	// its original layout, and the Manager's appender and LogShard
	// mapping must agree with the streams the records actually land in.
	logShards := cfg.LogStore.Shards
	if tlog.Durable() {
		logShards = tlog.StoreShards()
	}
	return &Manager{
		name:         cfg.Name,
		key:          key,
		spid:         cfg.SPID,
		iasC:         cfg.IAS,
		ca:           ca,
		tlog:         tlog,
		tlogOwned:    ownsLog,
		tlogAppender: translog.NewShardedAppender(tlog, translog.ShardedAppenderConfig{Shards: logShards}),
		tlogShards:   logShards,
		policy:       cfg.Policy,
		provMode:     cfg.ProvisionMode,
		certValidity: cfg.CertValidity,
		goldenIMA:    ima.NewGoldenDB(),
		expectAtt:    make(map[sgx.Measurement]bool),
		expectCred:   make(map[sgx.Measurement]bool),
		hosts:        make(map[string]*hostRecord),
		enrollments:  make(map[string]*Enrollment),
		nonces:       make(map[string]bool),
	}, nil
}

// PublicKey returns the VM's long-term public key (baked into credential
// enclaves).
func (m *Manager) PublicKey() *ecdsa.PublicKey { return &m.key.PublicKey }

// CA returns the embedded certificate authority.
func (m *Manager) CA() *pki.CA { return m.ca }

// GoldenIMA returns the expected-measurement database.
func (m *Manager) GoldenIMA() *ima.GoldenDB { return m.goldenIMA }

// Policy returns the active appraisal policy.
func (m *Manager) Policy() Policy { return m.policy }

// PinAttestationMeasurement registers an acceptable integrity-attestation
// enclave identity.
func (m *Manager) PinAttestationMeasurement(mr sgx.Measurement) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expectAtt[mr] = true
}

// PinCredentialMeasurement registers an acceptable credential enclave
// identity.
func (m *Manager) PinCredentialMeasurement(mr sgx.Measurement) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expectCred[mr] = true
}

// RegisterHost adds a container host; aik pins its TPM identity (nil for
// TPM-less hosts).
func (m *Manager) RegisterHost(name string, conn HostConn, aik *ecdsa.PublicKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hosts[name] = &hostRecord{name: name, conn: conn, aik: aik}
}

// Hosts lists registered hosts with their trust state.
type HostStatus struct {
	Name     string
	Trusted  bool
	LastSeen time.Time
}

// Hosts returns registered host statuses sorted by name.
func (m *Manager) Hosts() []HostStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]HostStatus, 0, len(m.hosts))
	for _, h := range m.hosts {
		out = append(out, HostStatus{Name: h.name, Trusted: h.trusted, LastSeen: h.lastSeen})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NewNonce issues a fresh attestation nonce (tracked for single use).
func (m *Manager) NewNonce() []byte {
	n := make([]byte, 16)
	if _, err := rand.Read(n); err != nil {
		panic("verifier: nonce entropy unavailable: " + err.Error())
	}
	m.mu.Lock()
	m.nonces[string(n)] = true
	m.mu.Unlock()
	return n
}

// consumeNonce validates single-use freshness.
func (m *Manager) consumeNonce(n []byte) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.nonces[string(n)] {
		return false
	}
	delete(m.nonces, string(n))
	return true
}

// NewHMACKey generates a per-VNF message-authentication key (paper §2:
// the VM "generates the HMAC key and nonces").
func (m *Manager) NewHMACKey() []byte {
	k := make([]byte, 32)
	if _, err := rand.Read(k); err != nil {
		panic("verifier: key entropy unavailable: " + err.Error())
	}
	return k
}

// VerifyVNFMAC checks a MAC produced by an enrolled VNF's enclave with its
// provisioned HMAC key.
func (m *Manager) VerifyVNFMAC(vnf string, data, mac []byte) bool {
	m.mu.Lock()
	e, ok := m.enrollments[vnf]
	m.mu.Unlock()
	if !ok {
		return false
	}
	h := hmac.New(sha256.New, e.hmacKey)
	h.Write(data)
	return hmac.Equal(h.Sum(nil), mac)
}

// Enrollments lists enrolled VNFs sorted by name.
func (m *Manager) Enrollments() []Enrollment {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Enrollment, 0, len(m.enrollments))
	for _, e := range m.enrollments {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VNF < out[j].VNF })
	return out
}

// Enrollment returns one enrollment record.
func (m *Manager) Enrollment(vnf string) (*Enrollment, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.enrollments[vnf]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotEnrolled, vnf)
	}
	cp := *e
	return &cp, nil
}

// RevocationChecker returns the hook the controller installs to reject
// revoked client certificates.
func (m *Manager) RevocationChecker() func(*x509.Certificate) error {
	return func(cert *x509.Certificate) error {
		if m.ca.IsRevoked(cert.SerialNumber) {
			return pki.ErrRevoked
		}
		return nil
	}
}

// IssueControllerCert issues the network controller's server certificate
// from the VM's CA (so VNFs can authenticate the controller with the same
// root).
func (m *Manager) IssueControllerCert(cn string, dnsNames []string, pub crypto.PublicKey) (*x509.Certificate, error) {
	return m.ca.IssueServerCert(cn, dnsNames, nil, pub, 10*365*24*time.Hour)
}

// verifyTPMEvidence checks the hardware anchor: AIK signature, nonce
// freshness, and IML-aggregate-to-PCR equality.
func verifyTPMEvidence(aik *ecdsa.PublicKey, ev *enclaveapp.HostEvidence, list *ima.List) error {
	if ev.TPMQuote == nil {
		return ErrTPMRequired
	}
	if aik == nil {
		return errors.New("verifier: host has no pinned AIK")
	}
	if err := tpm.VerifyQuote(aik, ev.TPMQuote, ev.Nonce); err != nil {
		return fmt.Errorf("verifier: TPM quote: %w", err)
	}
	if len(ev.TPMQuote.PCRValues) != 1 || list.Aggregate() != ev.TPMQuote.PCRValues[0] {
		return ErrTPMMismatch
	}
	return nil
}
