package sgx

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Enclave lifecycle errors.
var (
	ErrNotInitialized  = errors.New("sgx: enclave not initialized")
	ErrDestroyed       = errors.New("sgx: enclave destroyed")
	ErrImmutable       = errors.New("sgx: enclave is immutable after EINIT")
	ErrUnknownECall    = errors.New("sgx: unknown ecall")
	ErrNoOCallHandler  = errors.New("sgx: no ocall handler installed")
	ErrEPCExhausted    = errors.New("sgx: EPC exhausted")
	ErrBadSigStruct    = errors.New("sgx: SIGSTRUCT signature does not match enclave")
	ErrLaunchDenied    = errors.New("sgx: launch denied")
	ErrSealWrongKey    = errors.New("sgx: unseal failed (wrong identity or corrupted blob)")
	ErrSealBadPolicy   = errors.New("sgx: unknown sealing policy")
	ErrSealSVNRollback = errors.New("sgx: sealed blob from newer SVN")
)

// ECallHandler is the entry point of one named ECALL. Handlers run "inside"
// the enclave: they receive a Context granting access to enclave-private
// memory and enclave-only operations (report, seal, ocall).
type ECallHandler func(ctx *Context, args []byte) ([]byte, error)

// OCallHandler serves OCALLs made by enclave code; it is installed by the
// untrusted host runtime.
type OCallHandler func(name string, payload []byte) ([]byte, error)

// CodeModule is a unit of enclave code: the bytes contribute to MRENCLAVE
// and the handlers become the enclave's ECALL table. Tampering with Code
// (as the compromised-host experiments do) changes the measurement.
type CodeModule struct {
	Name     string
	Code     []byte
	Handlers map[string]ECallHandler
}

// EnclaveSpec describes an enclave to be built and launched.
type EnclaveSpec struct {
	Name       string
	ProdID     uint16
	SVN        uint16
	Attributes Attributes
	Modules    []CodeModule
	// HeapPages reserves enclave-private heap (counts against EPC).
	HeapPages int
	// TCSCount bounds concurrent ECALLs (thread control structures).
	// Zero means 4.
	TCSCount int
}

type enclaveState int

const (
	stateInit enclaveState = iota
	stateReady
	stateDestroyed
)

// Identity is the attested identity of an enclave, as reflected in reports
// and quotes.
type Identity struct {
	MRENCLAVE  Measurement
	MRSIGNER   Measurement
	ISVProdID  uint16
	ISVSVN     uint16
	Attributes Attributes
}

// Enclave is a launched enclave instance. All state mutation goes through
// ECALLs; enclave-private memory is held encrypted (memory-encryption-
// engine model) and is only decrypted inside handler contexts.
type Enclave struct {
	platform *Platform
	id       uint64
	name     string
	identity Identity

	mu    sync.Mutex
	state enclaveState
	tcs   chan struct{}

	// memKey is the per-enclave memory-encryption key. Destroyed on
	// enclave teardown, rendering pages unrecoverable.
	memKey [32]byte
	aead   cipher.AEAD
	// heap maps names to ciphertext records (nonce ‖ ct). Host-visible
	// dumps expose only this ciphertext.
	heap map[string][]byte

	handlers map[string]ECallHandler
	ocall    OCallHandler

	pages          int
	overcommitted  int // pages beyond EPC fit; charged as faults per ECALL
	ecallsInFlight sync.WaitGroup
}

// SigStruct is the enclave signature structure: the vendor's signature
// binding measurement, product ID and SVN. MRSIGNER is derived from the
// embedded public key.
type SigStruct struct {
	Measurement Measurement
	ProdID      uint16
	SVN         uint16
	Attributes  Attributes
	SignerPub   []byte // uncompressed P-256
	Signature   []byte // ASN.1 ECDSA over the digest of the above
}

// SignEnclave produces the SIGSTRUCT for a spec under the vendor signing
// key. The measurement is computed exactly as Launch will recompute it.
func SignEnclave(spec EnclaveSpec, signer *ecdsa.PrivateKey) (*SigStruct, error) {
	mr := measureSpec(spec)
	pub := elliptic.Marshal(elliptic.P256(), signer.PublicKey.X, signer.PublicKey.Y)
	digest := sigStructDigest(mr, spec.ProdID, spec.SVN, spec.Attributes, pub)
	sig, err := ecdsa.SignASN1(rand.Reader, signer, digest[:])
	if err != nil {
		return nil, fmt.Errorf("sgx: signing enclave: %w", err)
	}
	return &SigStruct{
		Measurement: mr,
		ProdID:      spec.ProdID,
		SVN:         spec.SVN,
		Attributes:  spec.Attributes,
		SignerPub:   pub,
		Signature:   sig,
	}, nil
}

func sigStructDigest(mr Measurement, prodID, svn uint16, attrs Attributes, pub []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("sigstruct-v1"))
	h.Write(mr[:])
	h.Write([]byte{byte(prodID), byte(prodID >> 8), byte(svn), byte(svn >> 8)})
	var a [8]byte
	v := attrs.encode()
	for i := range a {
		a[i] = byte(v >> (8 * i))
	}
	h.Write(a[:])
	h.Write(pub)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// measureSpec computes MRENCLAVE for a spec: modules are measured in name
// order so that measurement is independent of slice ordering.
func measureSpec(spec EnclaveSpec) Measurement {
	mods := make([]CodeModule, len(spec.Modules))
	copy(mods, spec.Modules)
	sort.Slice(mods, func(i, j int) bool { return mods[i].Name < mods[j].Name })
	size := uint64(spec.HeapPages) * PageSize
	for _, m := range mods {
		size += uint64(len(m.Code)) + PageSize
	}
	l := NewLedger(spec.Attributes, size)
	base := uint64(0x1000)
	for _, m := range mods {
		base = l.AddRegion(base, m.Name, PageRead|PageExecute, m.Code)
	}
	return l.Finalize()
}

// Launch verifies the SIGSTRUCT against the spec, commits EPC, and
// initializes the enclave (ECREATE…EINIT collapsed). After Launch the
// enclave is immutable: its ECALL table and measurement are fixed.
func (p *Platform) Launch(spec EnclaveSpec, ss *SigStruct) (*Enclave, error) {
	if ss == nil {
		return nil, ErrLaunchDenied
	}
	mr := measureSpec(spec)
	if ss.Measurement != mr || ss.ProdID != spec.ProdID || ss.SVN != spec.SVN {
		return nil, ErrBadSigStruct
	}
	x, y := elliptic.Unmarshal(elliptic.P256(), ss.SignerPub)
	if x == nil {
		return nil, ErrBadSigStruct
	}
	pub := &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}
	digest := sigStructDigest(ss.Measurement, ss.ProdID, ss.SVN, ss.Attributes, ss.SignerPub)
	if !p.sigs.Verify(pub, digest, ss.Signature) {
		return nil, ErrBadSigStruct
	}

	pages := spec.HeapPages
	for _, m := range spec.Modules {
		pages += 1 + (len(m.Code)+PageSize-1)/PageSize
	}
	if pages == 0 {
		pages = 1
	}

	e := &Enclave{
		platform: p,
		name:     spec.Name,
		identity: Identity{
			MRENCLAVE:  mr,
			MRSIGNER:   sha256.Sum256(ss.SignerPub),
			ISVProdID:  spec.ProdID,
			ISVSVN:     spec.SVN,
			Attributes: spec.Attributes,
		},
		heap:     make(map[string][]byte),
		handlers: make(map[string]ECallHandler),
		pages:    pages,
	}
	tcs := spec.TCSCount
	if tcs <= 0 {
		tcs = 4
	}
	e.tcs = make(chan struct{}, tcs)
	if _, err := rand.Read(e.memKey[:]); err != nil {
		return nil, fmt.Errorf("sgx: deriving memory key: %w", err)
	}
	block, err := aes.NewCipher(e.memKey[:])
	if err != nil {
		return nil, fmt.Errorf("sgx: memory cipher: %w", err)
	}
	e.aead, err = cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("sgx: memory AEAD: %w", err)
	}
	for _, m := range spec.Modules {
		for name, h := range m.Handlers {
			if _, dup := e.handlers[name]; dup {
				return nil, fmt.Errorf("sgx: duplicate ecall %q", name)
			}
			e.handlers[name] = h
		}
	}

	p.mu.Lock()
	p.nextEnclave++
	e.id = p.nextEnclave
	if p.epcUsedPages+pages > p.epcLimit {
		// Oversubscription: the enclave still launches, but the pages
		// beyond the budget fault (encrypted swap) on every entry.
		e.overcommitted = p.epcUsedPages + pages - p.epcLimit
	}
	p.epcUsedPages += pages
	p.enclaves[e.id] = e
	p.mu.Unlock()

	e.state = stateReady
	return e, nil
}

// Name returns the enclave's debug name.
func (e *Enclave) Name() string { return e.name }

// Identity returns the launched identity.
func (e *Enclave) Identity() Identity { return e.identity }

// Platform returns the hosting platform.
func (e *Enclave) Platform() *Platform { return e.platform }

// SetOCallHandler installs the untrusted OCALL dispatcher. It may be set
// once by the hosting runtime before use.
func (e *Enclave) SetOCallHandler(h OCallHandler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ocall = h
}

// ECall enters the enclave and runs the named handler. It charges the
// transition cost, enforces TCS concurrency, and charges page-fault costs
// when the enclave is EPC-oversubscribed.
func (e *Enclave) ECall(name string, args []byte) ([]byte, error) {
	e.mu.Lock()
	switch e.state {
	case stateDestroyed:
		e.mu.Unlock()
		return nil, ErrDestroyed
	case stateInit:
		e.mu.Unlock()
		return nil, ErrNotInitialized
	}
	h, ok := e.handlers[name]
	over := e.overcommitted
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownECall, name)
	}

	e.tcs <- struct{}{}
	defer func() { <-e.tcs }()

	e.platform.charge(opECall)
	if over > 0 {
		e.platform.chargeN(opPageIn, over)
	}
	e.ecallsInFlight.Add(1)
	defer e.ecallsInFlight.Done()
	return h(&Context{e: e}, args)
}

// Destroy tears the enclave down: EPC is released and the memory key is
// zeroed, making all heap ciphertext unrecoverable (EREMOVE semantics).
func (e *Enclave) Destroy() {
	e.mu.Lock()
	if e.state == stateDestroyed {
		e.mu.Unlock()
		return
	}
	e.state = stateDestroyed
	e.mu.Unlock()
	e.ecallsInFlight.Wait()

	e.mu.Lock()
	for i := range e.memKey {
		e.memKey[i] = 0
	}
	e.aead = nil
	e.heap = nil
	e.mu.Unlock()

	e.platform.mu.Lock()
	if _, ok := e.platform.enclaves[e.id]; ok {
		delete(e.platform.enclaves, e.id)
		e.platform.epcUsedPages -= e.pages
	}
	e.platform.mu.Unlock()
}

// MemoryImage returns a copy of the enclave's host-visible memory: the
// ciphertext records of the heap. Tests scan this for secret material to
// assert the confidentiality property.
func (e *Enclave) MemoryImage() map[string][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	img := make(map[string][]byte, len(e.heap))
	for k, v := range e.heap {
		img[k] = append([]byte(nil), v...)
	}
	return img
}

// Context is the view enclave code has while servicing an ECALL.
type Context struct {
	e *Enclave
}

// Identity returns the identity of the running enclave.
func (c *Context) Identity() Identity { return c.e.identity }

// PlatformCPUSVN returns the platform security version.
func (c *Context) PlatformCPUSVN() [16]byte { return c.e.platform.cpusvn }

// Put stores an enclave-private value. The plaintext exists only inside
// the call; at rest it is AEAD-encrypted under the enclave memory key with
// the record name as associated data.
func (c *Context) Put(key string, value []byte) error {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	if c.e.state == stateDestroyed {
		return ErrDestroyed
	}
	nonce := make([]byte, c.e.aead.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return fmt.Errorf("sgx: heap nonce: %w", err)
	}
	ct := c.e.aead.Seal(nonce, nonce, value, []byte(key))
	c.e.heap[key] = ct
	return nil
}

// Get retrieves an enclave-private value.
func (c *Context) Get(key string) ([]byte, bool) {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	if c.e.state == stateDestroyed {
		return nil, false
	}
	rec, ok := c.e.heap[key]
	if !ok {
		return nil, false
	}
	ns := c.e.aead.NonceSize()
	if len(rec) < ns {
		return nil, false
	}
	pt, err := c.e.aead.Open(nil, rec[:ns], rec[ns:], []byte(key))
	if err != nil {
		return nil, false
	}
	return pt, true
}

// Delete removes an enclave-private value.
func (c *Context) Delete(key string) {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	delete(c.e.heap, key)
}

// Keys lists stored record names in unspecified order.
func (c *Context) Keys() []string {
	c.e.mu.Lock()
	defer c.e.mu.Unlock()
	out := make([]string, 0, len(c.e.heap))
	for k := range c.e.heap {
		out = append(out, k)
	}
	return out
}

// OCall exits the enclave to run an untrusted service and re-enters with
// its result, charging the transition both ways.
func (c *Context) OCall(name string, payload []byte) ([]byte, error) {
	c.e.mu.Lock()
	h := c.e.ocall
	c.e.mu.Unlock()
	if h == nil {
		return nil, ErrNoOCallHandler
	}
	c.e.platform.charge(opOCall)
	out, err := h(name, payload)
	c.e.platform.charge(opECall) // re-entry
	return out, err
}
