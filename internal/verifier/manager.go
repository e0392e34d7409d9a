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
	// CA injects a pre-existing certificate authority (multi-process
	// deployments share one CA across the init and run phases). When nil
	// a fresh CA is created.
	CA *pki.CA
	// Log is the transparency log the Manager records every trust
	// decision in, and signs tree heads for with the CA key: a log whose
	// head that key did not sign is refused with translog.ErrBadSTH.
	// Callers open a durable one with translog.OpenDurableLog (anchored,
	// for a sealed head, by a translog.SealedHeadAnchor signed with Key).
	// The Manager owns it from New on and closes it on Close, or on a
	// refusal. When nil a fresh in-memory log is created.
	Log *translog.Log
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

	policy   Policy
	provMode enclaveapp.ProvisionMode

	goldenIMA *ima.GoldenDB

	// tlog is the transparency log recording every trust decision;
	// tlogAppender batches the hot-path attestation entries through the
	// merging sequencer, one buffer per WAL stream of the log's store.
	tlog         *translog.Log
	tlogAppender *translog.ShardedAppender

	mu          sync.Mutex
	expectAtt   map[sgx.Measurement]bool
	expectCred  map[sgx.Measurement]bool
	hosts       map[string]*hostRecord
	enrollments map[string]*Enrollment
}

// New creates a Manager with its embedded CA. It owns cfg.Log from the
// call on: a refused log is closed before New returns.
func New(cfg Config) (m *Manager, err error) {
	if cfg.Log != nil {
		defer func() {
			if err != nil {
				cfg.Log.Close()
			}
		}()
	}
	if cfg.IAS == nil {
		return nil, errors.New("verifier: config requires an IAS client")
	}
	key := cfg.Key
	if key == nil {
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
	ca := cfg.CA
	if ca == nil {
		ca, err = pki.NewCA(cfg.Name+" CA", 10*365*24*time.Hour)
		if err != nil {
			return nil, err
		}
	}
	tlog := cfg.Log
	if tlog == nil {
		tlog, err = translog.NewLog(ca.Signer())
		if err != nil {
			return nil, err
		}
	} else if err := tlog.STH().Verify(ca.Certificate().PublicKey.(*ecdsa.PublicKey)); err != nil {
		return nil, fmt.Errorf("verifier: log not signed by the CA key: %w", err)
	}
	return &Manager{
		name: cfg.Name,
		key:  key,
		spid: cfg.SPID,
		iasC: cfg.IAS,
		ca:   ca,
		tlog: tlog,
		// A durable store's appender takes the stream count pinned at
		// the store's creation, so LogShard maps hosts as the WAL does.
		tlogAppender: translog.NewShardedAppender(tlog, translog.ShardedAppenderConfig{}),
		policy:       cfg.Policy,
		provMode:     cfg.ProvisionMode,
		goldenIMA:    ima.NewGoldenDB(),
		expectAtt:    make(map[sgx.Measurement]bool),
		expectCred:   make(map[sgx.Measurement]bool),
		hosts:        make(map[string]*hostRecord),
		enrollments:  make(map[string]*Enrollment),
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

// newNonce issues a fresh attestation nonce. Each attestation demands
// evidence carrying the nonce it sent, which makes the nonce single-use
// without a table of issued ones.
func newNonce() []byte {
	n := make([]byte, 16)
	if _, err := rand.Read(n); err != nil {
		panic("verifier: nonce entropy unavailable: " + err.Error())
	}
	return n
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
