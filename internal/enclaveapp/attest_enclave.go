package enclaveapp

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"vnfguard/internal/sgx"
	"vnfguard/internal/tpm"
	"vnfguard/internal/wire"
)

// OCALL names served by the host runtime for the attestation enclave.
const (
	OCallReadIML  = "read_iml"
	OCallTPMQuote = "tpm_quote"
)

// attestationEnclaveVersion is measured into MRENCLAVE; bumping it (or
// tampering with it) changes the enclave identity the Verification Manager
// expects.
const attestationEnclaveVersion = "vnfguard attestation enclave v1"

// HostServices are the untrusted host facilities the attestation enclave
// reaches through OCALLs.
type HostServices struct {
	// ReadIML snapshots the host's IMA measurement list.
	ReadIML func() (string, error)
	// TPMQuote obtains a TPM quote over the IMA PCR with the given
	// freshness nonce. Nil when the host has no TPM (the paper's baseline
	// configuration; §4 notes the resulting tampering exposure).
	TPMQuote func(nonce []byte) (*tpm.Quote, error)
}

// HostEvidence is the bundle the Verification Manager appraises in step 2.
type HostEvidence struct {
	// IML is the serialized measurement list.
	IML string `json:"iml"`
	// Nonce is the challenger-chosen freshness value.
	Nonce []byte `json:"nonce"`
	// TPMQuote is the optional hardware-rooted quote over the IMA PCR.
	TPMQuote *tpm.Quote `json:"tpm_quote,omitempty"`
	// Quote is the encoded SGX quote whose report data binds all of the
	// above.
	Quote []byte `json:"quote"`
}

// BindingDigest computes the report-data binding over the evidence fields.
// Verifiers recompute it and compare against the quoted report data.
func (ev *HostEvidence) BindingDigest() [32]byte {
	h := sha256.New()
	io.WriteString(h, ev.IML)
	h.Write(ev.Nonce)
	if ev.TPMQuote != nil {
		b, _ := json.Marshal(ev.TPMQuote)
		h.Write(b)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// evidenceVersion is the first byte of the binary evidence encoding.
const evidenceVersion = 1

// ErrEvidenceEncoding reports host evidence or evidence request bytes
// that are not a valid binary encoding: a wrong version byte or TPM
// flag, a truncated field, a length beyond the input, trailing bytes or
// an undecodable TPM quote.
var ErrEvidenceEncoding = errors.New("enclaveapp: malformed host evidence encoding")

// MarshalBinary encodes the evidence as a version byte followed by four
// uvarint-length-prefixed fields: IML, nonce, TPM quote (its JSON, empty
// when absent) and quote. The attestation ECall and the host agent both
// carry evidence in this form, so the IML crosses each hop as a copy.
func (ev *HostEvidence) MarshalBinary() ([]byte, error) {
	var tpmJSON []byte
	if ev.TPMQuote != nil {
		var err error
		if tpmJSON, err = json.Marshal(ev.TPMQuote); err != nil {
			return nil, fmt.Errorf("enclaveapp: encoding TPM quote: %w", err)
		}
	}
	n := 1 + len(ev.IML) + len(ev.Nonce) + len(tpmJSON) + len(ev.Quote) + 4*binary.MaxVarintLen64
	b := append(make([]byte, 0, n), evidenceVersion)
	b = binary.AppendUvarint(b, uint64(len(ev.IML)))
	b = append(b, ev.IML...)
	for _, field := range [][]byte{ev.Nonce, tpmJSON, ev.Quote} {
		b = binary.AppendUvarint(b, uint64(len(field)))
		b = append(b, field...)
	}
	return b, nil
}

// UnmarshalBinary decodes MarshalBinary output. It copies what it keeps,
// so data may be reused afterwards. Every refusal wraps
// ErrEvidenceEncoding.
func (ev *HostEvidence) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if v := r.U8(); v != evidenceVersion {
		return fmt.Errorf("%w: not version %d", ErrEvidenceEncoding, evidenceVersion)
	}
	var fields [4][]byte
	for i := range fields {
		fields[i] = r.Fixed(r.Uvarint())
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("%w: %w", ErrEvidenceEncoding, err)
	}
	var q *tpm.Quote
	if len(fields[2]) > 0 {
		q = new(tpm.Quote)
		if err := json.Unmarshal(fields[2], q); err != nil {
			return fmt.Errorf("%w: TPM quote: %v", ErrEvidenceEncoding, err)
		}
	}
	*ev = HostEvidence{
		IML:      string(fields[0]),
		Nonce:    cloneOrNil(fields[1]),
		TPMQuote: q,
		Quote:    cloneOrNil(fields[3]),
	}
	return nil
}

// EvidenceRequest is the Verification Manager's attestation challenge:
// its freshness nonce and whether the evidence must carry a TPM quote.
// The host agent's attest request body and the host_evidence ECall's
// arguments are both its binary encoding.
type EvidenceRequest struct {
	Nonce  []byte
	UseTPM bool
}

// MarshalBinary encodes the request as one flag byte (1 asks for a TPM
// quote, 0 does not) followed by the uvarint-length-prefixed nonce.
func (req *EvidenceRequest) MarshalBinary() ([]byte, error) {
	var flag byte
	if req.UseTPM {
		flag = 1
	}
	b := append(make([]byte, 0, 1+binary.MaxVarintLen64+len(req.Nonce)), flag)
	b = binary.AppendUvarint(b, uint64(len(req.Nonce)))
	return append(b, req.Nonce...), nil
}

// UnmarshalBinary decodes MarshalBinary output, copying the nonce.
// Every refusal — a flag other than 0 or 1, a truncated nonce or
// trailing bytes — wraps ErrEvidenceEncoding.
func (req *EvidenceRequest) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	flag := r.U8()
	nonce := r.Fixed(r.Uvarint())
	if err := r.Done(); err != nil {
		return fmt.Errorf("%w: request: %w", ErrEvidenceEncoding, err)
	}
	if flag > 1 {
		return fmt.Errorf("%w: request TPM flag %d", ErrEvidenceEncoding, flag)
	}
	*req = EvidenceRequest{Nonce: cloneOrNil(nonce), UseTPM: flag == 1}
	return nil
}

// cloneOrNil copies b, mapping an empty field to nil.
func cloneOrNil(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return bytes.Clone(b)
}

// AttestationEnclave wraps the launched integrity-attestation enclave.
type AttestationEnclave struct {
	enclave  *sgx.Enclave
	platform *sgx.Platform
	spid     sgx.SPID
}

// AttestationEnclaveOption configures construction.
type AttestationEnclaveOption func(*attestationConfig)

type attestationConfig struct {
	codeVersion string
}

// WithAttestationCode overrides the measured code bytes — used by tests
// and the compromised-host example to model a tampered enclave build.
func WithAttestationCode(version string) AttestationEnclaveOption {
	return func(c *attestationConfig) { c.codeVersion = version }
}

// NewAttestationEnclave launches the attestation enclave on a platform.
// signer is the ISV vendor key; host provides the OCALL services.
func NewAttestationEnclave(p *sgx.Platform, signer *ecdsa.PrivateKey, host HostServices, spid sgx.SPID, opts ...AttestationEnclaveOption) (*AttestationEnclave, error) {
	if host.ReadIML == nil {
		return nil, errors.New("enclaveapp: attestation enclave requires ReadIML host service")
	}
	cfg := attestationConfig{codeVersion: attestationEnclaveVersion}
	for _, o := range opts {
		o(&cfg)
	}
	spec := sgx.EnclaveSpec{
		Name:       "integrity-attestation",
		ProdID:     1,
		SVN:        1,
		Attributes: sgx.Attributes{Mode64: true},
		HeapPages:  8,
		Modules: []sgx.CodeModule{{
			Name: "attestation",
			Code: []byte(cfg.codeVersion),
			Handlers: map[string]sgx.ECallHandler{
				"host_evidence": handleHostEvidence(p),
			},
		}},
	}
	ss, err := sgx.SignEnclave(spec, signer)
	if err != nil {
		return nil, err
	}
	e, err := p.Launch(spec, ss)
	if err != nil {
		return nil, err
	}
	e.SetOCallHandler(func(name string, payload []byte) ([]byte, error) {
		switch name {
		case OCallReadIML:
			iml, err := host.ReadIML()
			if err != nil {
				return nil, err
			}
			return []byte(iml), nil
		case OCallTPMQuote:
			if host.TPMQuote == nil {
				return nil, errors.New("host has no TPM")
			}
			q, err := host.TPMQuote(payload)
			if err != nil {
				return nil, err
			}
			return json.Marshal(q)
		default:
			return nil, fmt.Errorf("enclaveapp: unknown ocall %q", name)
		}
	})
	return &AttestationEnclave{enclave: e, platform: p, spid: spid}, nil
}

// handleHostEvidence is the enclave's ECALL: gather the IML (and TPM quote
// when requested) via OCALLs, bind them into report data, and emit a local
// report targeted at the quoting enclave. The reply is the evidence in its
// binary encoding, with the encoded report in the quote slot.
func handleHostEvidence(p *sgx.Platform) sgx.ECallHandler {
	return func(ctx *sgx.Context, args []byte) ([]byte, error) {
		var req EvidenceRequest
		if err := req.UnmarshalBinary(args); err != nil {
			return nil, err
		}
		imlBytes, err := ctx.OCall(OCallReadIML, nil)
		if err != nil {
			return nil, fmt.Errorf("enclaveapp: reading IML: %w", err)
		}
		ev := HostEvidence{IML: string(imlBytes), Nonce: req.Nonce}
		if req.UseTPM {
			raw, err := ctx.OCall(OCallTPMQuote, req.Nonce)
			if err != nil {
				return nil, fmt.Errorf("enclaveapp: TPM quote: %w", err)
			}
			var q tpm.Quote
			if err := json.Unmarshal(raw, &q); err != nil {
				return nil, fmt.Errorf("enclaveapp: TPM quote decode: %w", err)
			}
			ev.TPMQuote = &q
		}
		rd := sgx.ReportDataFromHash(ev.BindingDigest())
		ev.Quote = sgx.EncodeReport(ctx.Report(p.QE().TargetInfo(), rd))
		return ev.MarshalBinary()
	}
}

// CollectEvidence runs the full evidence flow: ECALL into the enclave,
// then quote the resulting report at the platform QE.
func (a *AttestationEnclave) CollectEvidence(nonce []byte, useTPM bool) (*HostEvidence, error) {
	args, err := (&EvidenceRequest{Nonce: nonce, UseTPM: useTPM}).MarshalBinary()
	if err != nil {
		return nil, err
	}
	out, err := a.enclave.ECall("host_evidence", args)
	if err != nil {
		return nil, err
	}
	var ev HostEvidence
	if err := ev.UnmarshalBinary(out); err != nil {
		return nil, fmt.Errorf("enclaveapp: evidence reply: %w", err)
	}
	report, err := sgx.DecodeReport(ev.Quote)
	if err != nil {
		return nil, err
	}
	quote, err := a.platform.QE().GetQuote(report, a.spid, sgx.QuoteLinkable)
	if err != nil {
		return nil, fmt.Errorf("enclaveapp: quoting host evidence: %w", err)
	}
	ev.Quote = quote.Encode()
	return &ev, nil
}

// Identity returns the enclave's launched identity (for golden-value
// registration at the Verification Manager).
func (a *AttestationEnclave) Identity() sgx.Identity { return a.enclave.Identity() }

// Destroy tears down the enclave.
func (a *AttestationEnclave) Destroy() { a.enclave.Destroy() }

// ExpectedMeasurement computes the MRENCLAVE of the canonical attestation
// enclave build (what the Verification Manager pins).
func ExpectedAttestationMeasurement(signer *ecdsa.PrivateKey) (sgx.Measurement, error) {
	spec := sgx.EnclaveSpec{
		Name:       "integrity-attestation",
		ProdID:     1,
		SVN:        1,
		Attributes: sgx.Attributes{Mode64: true},
		HeapPages:  8,
		Modules: []sgx.CodeModule{{
			Name: "attestation",
			Code: []byte(attestationEnclaveVersion),
		}},
	}
	ss, err := sgx.SignEnclave(spec, signer)
	if err != nil {
		return sgx.Measurement{}, err
	}
	return ss.Measurement, nil
}
