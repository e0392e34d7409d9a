package sgx

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"vnfguard/internal/epid"
	"vnfguard/internal/sigmemo"
	"vnfguard/internal/simtime"
)

// Platform models one SGX-capable CPU package: fused root keys, the CPU
// security version, the EPC budget, and the provisioned EPID membership
// used by its quoting enclave.
type Platform struct {
	name   string
	cpusvn [16]byte

	// rootSeal and rootReport stand in for the fused SGX root keys from
	// which EGETKEY derives sealing and report keys.
	rootSeal   [32]byte
	rootReport [32]byte

	model *simtime.CostModel

	// nv is the platform's non-volatile store: monotonic counters and,
	// when file-backed, the seed the root keys derive from (so one NV
	// file = one "machine" across process restarts).
	nv     *nvStore
	nvPath string

	qe *QuotingEnclave

	// sigs remembers SIGSTRUCT signatures that verified, so launching
	// another enclave from the same signed image skips the repeat ECDSA
	// verification. The measurement is still recomputed and compared on
	// every launch.
	sigs *sigmemo.Memo

	mu           sync.Mutex
	nextEnclave  uint64
	epcUsedPages int
	epcLimit     int // pages
	enclaves     map[uint64]*Enclave
}

// DefaultEPCPages is the usable EPC budget (~92 MiB as on SGX1 parts).
const DefaultEPCPages = 92 * 1024 * 1024 / PageSize

// PlatformOption configures NewPlatform.
type PlatformOption func(*Platform)

// WithEPCPages overrides the EPC budget (in pages).
func WithEPCPages(pages int) PlatformOption {
	return func(p *Platform) { p.epcLimit = pages }
}

// WithCPUSVN sets the CPU security version reported in quotes.
func WithCPUSVN(svn [16]byte) PlatformOption {
	return func(p *Platform) { p.cpusvn = svn }
}

// WithNVFile backs the platform's non-volatile state (root-key seed and
// monotonic counters) with a file, modeling one physical machine across
// process restarts: the same NV file yields the same sealing keys and
// the same counter values. The file stands in for fuses and flash — it
// must live outside any statedir a rollback attacker is assumed to
// control, or the counter's freshness guarantee collapses onto the disk
// it is supposed to audit. Like the hardware it models, an NV file
// belongs to one machine: give each concurrently running platform its
// own file (counter updates merge defensively, but the single-writer
// layout is the supported one).
func WithNVFile(path string) PlatformOption {
	return func(p *Platform) { p.nvPath = path }
}

// NewPlatform creates a platform whose quoting enclave is provisioned into
// the issuer's EPID group (the manufacture-time provisioning flow). model
// may be nil for zero-cost operation.
func NewPlatform(name string, issuer *epid.Issuer, model *simtime.CostModel, opts ...PlatformOption) (*Platform, error) {
	if issuer == nil {
		return nil, errors.New("sgx: platform requires an EPID issuer")
	}
	p := &Platform{
		name:     name,
		model:    model,
		epcLimit: DefaultEPCPages,
		enclaves: make(map[uint64]*Enclave),
		sigs:     sigmemo.New(),
	}
	if _, err := rand.Read(p.rootSeal[:]); err != nil {
		return nil, fmt.Errorf("sgx: fusing seal root: %w", err)
	}
	if _, err := rand.Read(p.rootReport[:]); err != nil {
		return nil, fmt.Errorf("sgx: fusing report root: %w", err)
	}
	p.cpusvn[0] = 2 // baseline CPUSVN
	for _, o := range opts {
		o(p)
	}
	if p.nvPath != "" {
		nv, err := openNV(p.nvPath)
		if err != nil {
			return nil, err
		}
		p.nv = nv
		// File-backed NV carries the machine identity: derive the root
		// keys from the persisted seed so sealed blobs survive process
		// restarts, exactly as fused keys survive reboots.
		p.rootSeal = deriveRoot(nv.seed, "nv-root-seal")
		p.rootReport = deriveRoot(nv.seed, "nv-root-report")
	} else {
		p.nv = newMemNV()
	}
	member, err := issuer.Join()
	if err != nil {
		return nil, fmt.Errorf("sgx: provisioning EPID membership: %w", err)
	}
	p.qe = newQuotingEnclave(p, member)
	return p, nil
}

// Name returns the platform's name (hostname of the container host).
func (p *Platform) Name() string { return p.name }

// CPUSVN returns the platform security version.
func (p *Platform) CPUSVN() [16]byte { return p.cpusvn }

// GID returns the EPID group of the platform's quoting enclave.
func (p *Platform) GID() epid.GroupID { return p.qe.member.GroupID() }

// Model returns the platform's cost model (possibly nil).
func (p *Platform) Model() *simtime.CostModel { return p.model }

// QE returns the platform's quoting enclave.
func (p *Platform) QE() *QuotingEnclave { return p.qe }

// EPIDMember exposes the quoting enclave's group membership. It exists so
// the revocation experiment (E9) can simulate the platform key leaking to
// an attacker who then lands on a PrivRL. Nothing in the trusted workflow
// reads it.
func (p *Platform) EPIDMember() *epid.Member { return p.qe.member }

// EPCUsedPages reports currently committed EPC pages.
func (p *Platform) EPCUsedPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epcUsedPages
}

// deriveRoot expands the NV seed into one of the platform root keys.
func deriveRoot(seed []byte, label string) [32]byte {
	mac := hmac.New(sha256.New, seed)
	mac.Write([]byte(label))
	var k [32]byte
	copy(k[:], mac.Sum(nil))
	return k
}

// reportKey derives the report key of an enclave identified by mrenclave,
// mirroring EGETKEY(REPORT): only the platform (and thus target enclaves
// running on it) can derive it.
func (p *Platform) reportKey(target Measurement) [32]byte {
	mac := hmac.New(sha256.New, p.rootReport[:])
	mac.Write([]byte("report-key-v1"))
	mac.Write(target[:])
	var k [32]byte
	copy(k[:], mac.Sum(nil))
	return k
}

// sealKey derives a sealing key for the given policy and identity fields,
// mirroring EGETKEY(SEAL). Keys bound to ISVSVN n must be derivable by
// enclaves at SVN ≥ n (upgrade path), so the SVN is an explicit input and
// callers request the blob's recorded SVN.
func (p *Platform) sealKey(policy SealPolicy, enclave Measurement, signer Measurement, prodID uint16, svn uint16) [32]byte {
	mac := hmac.New(sha256.New, p.rootSeal[:])
	mac.Write([]byte("seal-key-v1"))
	mac.Write([]byte{byte(policy)})
	switch policy {
	case SealToMRENCLAVE:
		mac.Write(enclave[:])
	case SealToMRSIGNER:
		mac.Write(signer[:])
		var b [4]byte
		b[0] = byte(prodID)
		b[1] = byte(prodID >> 8)
		b[2] = byte(svn)
		b[3] = byte(svn >> 8)
		mac.Write(b[:])
	}
	var k [32]byte
	copy(k[:], mac.Sum(nil))
	return k
}

func (p *Platform) charge(op simtime.Op) { p.model.Charge(op) }

func (p *Platform) chargeN(op simtime.Op, n int) { p.model.ChargeN(op, n) }
