package host

import (
	"crypto/ecdsa"
	"errors"
	"fmt"
	"sort"
	"sync"

	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/epid"
	"vnfguard/internal/ima"
	"vnfguard/internal/ra"
	"vnfguard/internal/sgx"
	"vnfguard/internal/simtime"
	"vnfguard/internal/tpm"
)

// Errors.
var (
	ErrUnknownVNF       = errors.New("host: unknown VNF")
	ErrContainerRunning = errors.New("host: container already running")
	ErrUnknownContainer = errors.New("host: unknown container")
)

// ContainerState is the lifecycle state of a container.
type ContainerState int

// Container states.
const (
	StateCreated ContainerState = iota
	StateRunning
	StateStopped
)

// String names the state.
func (s ContainerState) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateStopped:
		return "stopped"
	default:
		return "unknown"
	}
}

// Container is one deployed VNF container.
type Container struct {
	ID      string
	VNFName string
	Image   string
	State   ContainerState
}

// Config assembles a host.
type Config struct {
	Name string
	// Issuer provisions the platform's EPID membership (IAS-side trust).
	Issuer *epid.Issuer
	// Model is the hardware cost model (nil = zero-cost).
	Model *simtime.CostModel
	// VendorKey signs the enclaves (ISV identity).
	VendorKey *ecdsa.PrivateKey
	// VMPub is the Verification Manager's public key, baked into
	// credential enclave measurements.
	VMPub *ecdsa.PublicKey
	// SPID is the service-provider ID used in quotes.
	SPID sgx.SPID
	// EnableTPM anchors IMA into a TPM (the paper's §4 future work).
	EnableTPM bool
	// Policy overrides the IMA policy (nil = ima.DefaultPolicy).
	Policy *ima.Policy
	// AttestationCode overrides the attestation enclave build (tamper
	// experiments).
	AttestationCode string
}

// Host is one container host.
type Host struct {
	name     string
	platform *sgx.Platform
	imaSys   *ima.System
	tpmDev   *tpm.TPM
	attEncl  *enclaveapp.AttestationEnclave
	// credSig is the credential enclave's vendor SIGSTRUCT, signed once
	// in New and presented at every credential-enclave launch.
	credSig *sgx.SigStruct
	vmPub   *ecdsa.PublicKey
	spid    sgx.SPID
	model   *simtime.CostModel

	mu          sync.Mutex
	fs          map[string][]byte // host filesystem view (merged images)
	containers  map[string]*Container
	enclaves    map[string]*enclaveapp.CredentialEnclave // by VNF name
	nextID      int
	attestCount int64
}

// New assembles a host: platform, IMA (TPM-anchored when enabled) and the
// integrity attestation enclave.
func New(cfg Config) (*Host, error) {
	if cfg.Issuer == nil || cfg.VendorKey == nil || cfg.VMPub == nil {
		return nil, errors.New("host: config requires Issuer, VendorKey and VMPub")
	}
	platform, err := sgx.NewPlatform(cfg.Name, cfg.Issuer, cfg.Model)
	if err != nil {
		return nil, err
	}
	h := &Host{
		name:       cfg.Name,
		platform:   platform,
		vmPub:      cfg.VMPub,
		spid:       cfg.SPID,
		model:      cfg.Model,
		fs:         make(map[string][]byte),
		containers: make(map[string]*Container),
		enclaves:   make(map[string]*enclaveapp.CredentialEnclave),
	}
	h.credSig, err = enclaveapp.SignCredentialEnclave(cfg.VendorKey, cfg.VMPub)
	if err != nil {
		return nil, err
	}
	h.imaSys = ima.NewSystem(cfg.Policy, cfg.Model, []byte("boot:"+cfg.Name))
	if cfg.EnableTPM {
		dev, err := tpm.New(cfg.Model)
		if err != nil {
			return nil, err
		}
		h.tpmDev = dev
		// Anchor the pre-existing entries (boot_aggregate), then stream
		// subsequent measurements into PCR 10.
		text, _ := h.imaSys.Snapshot()
		list, err := ima.ParseList(text)
		if err != nil {
			return nil, err
		}
		for _, e := range list.Entries() {
			if err := dev.Extend(ima.PCRIndex, e.TemplateHash); err != nil {
				return nil, err
			}
		}
		h.imaSys.SetPCRSink(func(th [32]byte) { dev.Extend(ima.PCRIndex, th) })
	}

	services := enclaveapp.HostServices{
		ReadIML: func() (string, error) {
			text, _ := h.imaSys.Snapshot()
			return text, nil
		},
	}
	if h.tpmDev != nil {
		services.TPMQuote = func(nonce []byte) (*tpm.Quote, error) {
			return h.tpmDev.Quote(nonce, []int{ima.PCRIndex})
		}
	}
	var opts []enclaveapp.AttestationEnclaveOption
	if cfg.AttestationCode != "" {
		opts = append(opts, enclaveapp.WithAttestationCode(cfg.AttestationCode))
	}
	h.attEncl, err = enclaveapp.NewAttestationEnclave(platform, cfg.VendorKey, services, cfg.SPID, opts...)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Platform returns the SGX platform.
func (h *Host) Platform() *sgx.Platform { return h.platform }

// IMA returns the measurement subsystem.
func (h *Host) IMA() *ima.System { return h.imaSys }

// TPM returns the TPM device, or nil.
func (h *Host) TPM() *tpm.TPM { return h.tpmDev }

// HasTPM reports TPM availability.
func (h *Host) HasTPM() bool { return h.tpmDev != nil }

// AttestationEnclaveIdentity returns the launched attestation enclave
// identity.
func (h *Host) AttestationEnclaveIdentity() sgx.Identity { return h.attEncl.Identity() }

// AttestCount reports served attestation requests.
func (h *Host) AttestCount() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.attestCount
}

// RunContainer deploys an image as a VNF container: the image filesystem
// merges into the host view, the entrypoint exec and config reads fire IMA
// events, and a credential enclave is launched for the VNF.
func (h *Host) RunContainer(im *Image, vnfName string) (*Container, error) {
	if err := im.Validate(); err != nil {
		return nil, err
	}
	h.mu.Lock()
	if _, dup := h.enclaves[vnfName]; dup {
		h.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrContainerRunning, vnfName)
	}
	h.nextID++
	id := fmt.Sprintf("%s-c%03d", h.name, h.nextID)
	fs := im.Flatten()
	for p, content := range fs {
		h.fs[containerPath(vnfName, p)] = content
	}
	h.mu.Unlock()

	// Execution measurements, as the kernel would produce them.
	h.imaSys.HandleEvent(ima.Event{
		Path: containerPath(vnfName, im.Entrypoint),
		Hook: ima.HookBprmCheck, Mask: ima.MayExec, UID: 0,
	}, fs[im.Entrypoint])
	for _, cfgPath := range im.Configs {
		h.imaSys.HandleEvent(ima.Event{
			Path: containerPath(vnfName, cfgPath),
			Hook: ima.HookFileCheck, Mask: ima.MayRead, UID: 0,
		}, fs[cfgPath])
	}

	ce, err := enclaveapp.NewCredentialEnclave(h.platform, h.credSig, h.vmPub, h.spid)
	if err != nil {
		return nil, fmt.Errorf("host: launching credential enclave: %w", err)
	}
	c := &Container{ID: id, VNFName: vnfName, Image: im.Ref(), State: StateRunning}
	h.mu.Lock()
	h.containers[id] = c
	h.enclaves[vnfName] = ce
	h.mu.Unlock()
	return c, nil
}

// containerPath namespaces an image path under the VNF's rootfs, as the
// host kernel sees container files.
func containerPath(vnf, p string) string {
	return "/var/lib/containers/" + vnf + "/rootfs" + p
}

// StopContainer stops a container and destroys its credential enclave
// (wiping key material).
func (h *Host) StopContainer(id string) error {
	h.mu.Lock()
	c, ok := h.containers[id]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownContainer, id)
	}
	c.State = StateStopped
	ce := h.enclaves[c.VNFName]
	delete(h.enclaves, c.VNFName)
	h.mu.Unlock()
	if ce != nil {
		ce.Destroy()
	}
	return nil
}

// Containers lists containers sorted by ID.
func (h *Host) Containers() []Container {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Container, 0, len(h.containers))
	for _, c := range h.containers {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CredentialEnclave returns the enclave serving a VNF.
func (h *Host) CredentialEnclave(vnfName string) (*enclaveapp.CredentialEnclave, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ce, ok := h.enclaves[vnfName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownVNF, vnfName)
	}
	return ce, nil
}

// TamperBinary simulates a host compromise: the on-disk binary of a
// running VNF is replaced and re-executed, producing a divergent
// measurement on the next access.
func (h *Host) TamperBinary(vnfName, path string, newContent []byte) {
	full := containerPath(vnfName, path)
	h.mu.Lock()
	h.fs[full] = newContent
	h.mu.Unlock()
	h.imaSys.HandleEvent(ima.Event{
		Path: full, Hook: ima.HookBprmCheck, Mask: ima.MayExec, UID: 0,
	}, newContent)
}

// ---- Verification-Manager-facing surface (satisfies verifier.HostConn) ----

// Attest collects host evidence (steps 1–2 of the workflow).
func (h *Host) Attest(nonce []byte, useTPM bool) (*enclaveapp.HostEvidence, error) {
	if useTPM && h.tpmDev == nil {
		return nil, errors.New("host: TPM attestation requested but host has no TPM")
	}
	h.mu.Lock()
	h.attestCount++
	h.mu.Unlock()
	return h.attEncl.CollectEvidence(nonce, useTPM)
}

// VNFs lists VNFs with live credential enclaves.
func (h *Host) VNFs() ([]string, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.enclaves))
	for name := range h.enclaves {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// VNFRAMsg1 starts the RA exchange for a VNF's credential enclave.
func (h *Host) VNFRAMsg1(vnf string) (*ra.Msg1, error) {
	ce, err := h.CredentialEnclave(vnf)
	if err != nil {
		return nil, err
	}
	return ce.RAMsg1()
}

// VNFRAMsg2 relays msg2 and returns msg3.
func (h *Host) VNFRAMsg2(vnf string, m2 *ra.Msg2) (*ra.Msg3, error) {
	ce, err := h.CredentialEnclave(vnf)
	if err != nil {
		return nil, err
	}
	return ce.RAProcessMsg2(m2)
}

// VNFRAMsg4 relays the attestation result.
func (h *Host) VNFRAMsg4(vnf string, m4 *ra.Msg4) error {
	ce, err := h.CredentialEnclave(vnf)
	if err != nil {
		return err
	}
	return ce.RAFinalize(m4)
}

// VNFFrame relays one secure-channel frame.
func (h *Host) VNFFrame(vnf string, frame []byte) ([]byte, error) {
	ce, err := h.CredentialEnclave(vnf)
	if err != nil {
		return nil, err
	}
	return ce.HandleFrame(frame)
}
