package enclaveapp

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math/big"
	"net"
	"reflect"
	"testing"
	"time"

	"vnfguard/internal/epid"
	"vnfguard/internal/ima"
	"vnfguard/internal/pki"
	"vnfguard/internal/ra"
	"vnfguard/internal/secchan"
	"vnfguard/internal/sgx"
	"vnfguard/internal/simtime"
	"vnfguard/internal/tpm"
)

// fixture assembles a host platform with IMA, optional TPM, and keys.
type fixture struct {
	issuer  *epid.Issuer
	plat    *sgx.Platform
	imaSys  *ima.System
	tpmDev  *tpm.TPM
	vendor  *ecdsa.PrivateKey // ISV signing key
	vmKey   *ecdsa.PrivateKey // Verification Manager long-term key
	model   *simtime.CostModel
	hostSvc HostServices
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	issuer, err := epid.NewIssuer(300)
	if err != nil {
		t.Fatal(err)
	}
	model := simtime.ZeroCosts()
	plat, err := sgx.NewPlatform("host-1", issuer, model)
	if err != nil {
		t.Fatal(err)
	}
	vendor, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	vmKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tpmDev, err := tpm.New(model)
	if err != nil {
		t.Fatal(err)
	}
	imaSys := ima.NewSystem(nil, model, []byte("boot"))
	// Anchor the pre-existing entries (boot_aggregate), then stream new
	// measurements into the TPM.
	text, _ := imaSys.Snapshot()
	list, err := ima.ParseList(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range list.Entries() {
		if err := tpmDev.Extend(ima.PCRIndex, e.TemplateHash); err != nil {
			t.Fatal(err)
		}
	}
	imaSys.SetPCRSink(func(th [32]byte) { tpmDev.Extend(ima.PCRIndex, th) })

	fx := &fixture{
		issuer: issuer, plat: plat, imaSys: imaSys, tpmDev: tpmDev,
		vendor: vendor, vmKey: vmKey, model: model,
	}
	fx.hostSvc = HostServices{
		ReadIML: func() (string, error) {
			text, _ := imaSys.Snapshot()
			return text, nil
		},
		TPMQuote: func(nonce []byte) (*tpm.Quote, error) {
			return tpmDev.Quote(nonce, []int{ima.PCRIndex})
		},
	}
	return fx
}

func (fx *fixture) measure(t testing.TB, path string, content []byte) {
	t.Helper()
	fx.imaSys.HandleEvent(ima.Event{Path: path, Hook: ima.HookBprmCheck, Mask: ima.MayExec, UID: 0}, content)
}

// --- attestation enclave ------------------------------------------------------

func TestAttestationEnclaveEvidence(t *testing.T) {
	fx := newFixture(t)
	fx.measure(t, "/usr/bin/vnf-firewall", []byte("firewall v1"))
	ae, err := NewAttestationEnclave(fx.plat, fx.vendor, fx.hostSvc, sgx.SPID{1})
	if err != nil {
		t.Fatal(err)
	}
	defer ae.Destroy()

	nonce := []byte("vm-nonce-1234")
	ev, err := ae.CollectEvidence(nonce, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains([]byte(ev.IML), []byte("/usr/bin/vnf-firewall")) {
		t.Fatal("IML missing measured binary")
	}
	quote, err := sgx.DecodeQuote(ev.Quote)
	if err != nil {
		t.Fatal(err)
	}
	// The quote's report data binds the IML and nonce.
	want := sgx.ReportDataFromHash(ev.BindingDigest())
	if quote.Body.ReportData != want {
		t.Fatal("quote does not bind evidence")
	}
	// The quote verifies under the group key.
	if err := sgx.VerifyQuote(quote, fx.issuer.GroupPublicKey(), nil, nil); err != nil {
		t.Fatalf("quote invalid: %v", err)
	}
	// The quoted identity matches the canonical build.
	wantMR, err := ExpectedAttestationMeasurement(fx.vendor)
	if err != nil {
		t.Fatal(err)
	}
	if quote.Body.MRENCLAVE != wantMR {
		t.Fatal("measurement differs from canonical build")
	}
}

func TestAttestationEnclaveTPMMode(t *testing.T) {
	fx := newFixture(t)
	fx.measure(t, "/usr/bin/vnf-lb", []byte("lb v1"))
	ae, err := NewAttestationEnclave(fx.plat, fx.vendor, fx.hostSvc, sgx.SPID{1})
	if err != nil {
		t.Fatal(err)
	}
	defer ae.Destroy()

	nonce := []byte("tpm-nonce")
	ev, err := ae.CollectEvidence(nonce, true)
	if err != nil {
		t.Fatal(err)
	}
	if ev.TPMQuote == nil {
		t.Fatal("no TPM quote in TPM mode")
	}
	if err := tpm.VerifyQuote(fx.tpmDev.AIKPublic(), ev.TPMQuote, nonce); err != nil {
		t.Fatalf("TPM quote invalid: %v", err)
	}
	// The IML aggregate must replay to the quoted PCR value.
	list, err := ima.ParseList(ev.IML)
	if err != nil {
		t.Fatal(err)
	}
	if list.Aggregate() != ev.TPMQuote.PCRValues[0] {
		t.Fatal("IML aggregate does not match TPM PCR")
	}
}

func TestTPMModeDetectsTamperedIML(t *testing.T) {
	fx := newFixture(t)
	fx.measure(t, "/usr/bin/evil", []byte("malware"))
	ae, err := NewAttestationEnclave(fx.plat, fx.vendor, fx.hostSvc, sgx.SPID{1})
	if err != nil {
		t.Fatal(err)
	}
	defer ae.Destroy()

	// Root adversary rewrites the software measurement list (§4 threat).
	clean := ima.NewList([]byte("boot"))
	clean.Append(sha256.Sum256([]byte("innocent")), "/usr/bin/innocent")
	fx.imaSys.TamperList(clean)

	ev, err := ae.CollectEvidence([]byte("n"), true)
	if err != nil {
		t.Fatal(err)
	}
	list, err := ima.ParseList(ev.IML)
	if err != nil {
		t.Fatal(err)
	}
	// Software-only check would pass (list is internally consistent)...
	if list.Aggregate() == [32]byte{} {
		t.Fatal("sanity: aggregate computed")
	}
	// ...but the TPM PCR still reflects the true history.
	if list.Aggregate() == ev.TPMQuote.PCRValues[0] {
		t.Fatal("tampered IML matches TPM PCR — tamper not detectable")
	}
}

// --- host evidence encoding ----------------------------------------------------

func mustMarshalEvidence(t *testing.T, ev *HostEvidence) []byte {
	t.Helper()
	b, err := ev.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestHostEvidenceBinaryRoundTrip(t *testing.T) {
	fx := newFixture(t)
	fx.measure(t, "/usr/bin/vnf-fw", []byte("fw v1"))
	ae, err := NewAttestationEnclave(fx.plat, fx.vendor, fx.hostSvc, sgx.SPID{1})
	if err != nil {
		t.Fatal(err)
	}
	defer ae.Destroy()
	for _, useTPM := range []bool{false, true} {
		ev, err := ae.CollectEvidence([]byte("nonce"), useTPM)
		if err != nil {
			t.Fatal(err)
		}
		var got HostEvidence
		if err := got.UnmarshalBinary(mustMarshalEvidence(t, ev)); err != nil {
			t.Fatalf("tpm=%v: %v", useTPM, err)
		}
		if !reflect.DeepEqual(&got, ev) || got.BindingDigest() != ev.BindingDigest() {
			t.Fatalf("tpm=%v: evidence changed in a round trip", useTPM)
		}
	}
}

// evidenceRefusals derives, from a valid encoding of ev, every damaged
// form the decoder must refuse with ErrEvidenceEncoding.
func evidenceRefusals(t *testing.T, ev *HostEvidence, enc []byte) map[string][]byte {
	t.Helper()
	oldJSON, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	wrongVersion := bytes.Clone(enc)
	wrongVersion[0]++
	// The IML length claims every byte of the input, more than is left.
	oversized := binary.AppendUvarint([]byte{evidenceVersion}, uint64(len(enc)))
	oversized = append(oversized, enc[1+uvarintLen(len(ev.IML)):]...)
	return map[string][]byte{
		"empty":          nil,
		"version only":   enc[:1],
		"truncated half": enc[:len(enc)/2],
		"truncated":      enc[:len(enc)-1],
		"trailing byte":  append(bytes.Clone(enc), 0),
		"wrong version":  wrongVersion,
		"oversized":      oversized,
		"varint overrun": append([]byte{evidenceVersion}, bytes.Repeat([]byte{0xff}, 11)...),
		"old JSON body":  oldJSON,
	}
}

func uvarintLen(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }

func TestHostEvidenceBinaryRefusals(t *testing.T) {
	ev := &HostEvidence{IML: "10 iml\n", Nonce: []byte("n"), Quote: []byte("q")}
	cases := evidenceRefusals(t, ev, mustMarshalEvidence(t, ev))
	cases["bad TPM quote"] = []byte{evidenceVersion, 0, 0, 1, '{', 0}
	for name, data := range cases {
		var got HostEvidence
		if err := got.UnmarshalBinary(data); !errors.Is(err, ErrEvidenceEncoding) {
			t.Errorf("%s: got %v, want ErrEvidenceEncoding", name, err)
		}
	}
}

// FuzzHostEvidenceBinary feeds the decoder what an untrusted host could
// send. Arbitrary bytes either decode to evidence that re-encodes to a
// fixed point or are refused with ErrEvidenceEncoding; the same bytes
// used as evidence fields round-trip, and every damaged form of their
// encoding, an old JSON body among them, is refused with that sentinel.
func FuzzHostEvidenceBinary(f *testing.F) {
	f.Add([]byte("10 iml\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ev HostEvidence
		if err := ev.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, ErrEvidenceEncoding) {
				t.Fatalf("decode refused without the sentinel: %v", err)
			}
		} else {
			enc := mustMarshalEvidence(t, &ev)
			var again HostEvidence
			if err := again.UnmarshalBinary(enc); err != nil {
				t.Fatalf("re-encoded evidence refused: %v", err)
			}
			if !reflect.DeepEqual(&again, &ev) || !bytes.Equal(mustMarshalEvidence(t, &again), enc) {
				t.Fatal("decoded evidence does not re-encode to a fixed point")
			}
		}

		half := len(data) / 2
		src := &HostEvidence{IML: string(data), Nonce: cloneOrNil(data[:half]), Quote: cloneOrNil(data[half:])}
		if len(data)%2 == 1 {
			src.TPMQuote = &tpm.Quote{Nonce: src.Nonce, PCRs: []int{ima.PCRIndex}, PCRDigest: sha256.Sum256(data)}
		}
		enc := mustMarshalEvidence(t, src)
		var got HostEvidence
		if err := got.UnmarshalBinary(enc); err != nil {
			t.Fatalf("round trip refused: %v", err)
		}
		if !reflect.DeepEqual(&got, src) {
			t.Fatal("round trip changed the evidence")
		}
		for name, bad := range evidenceRefusals(t, src, enc) {
			if err := got.UnmarshalBinary(bad); !errors.Is(err, ErrEvidenceEncoding) {
				t.Fatalf("%s: got %v, want ErrEvidenceEncoding", name, err)
			}
		}
	})
}

func mustMarshalRequest(t *testing.T, req *EvidenceRequest) []byte {
	t.Helper()
	b, err := req.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEvidenceRequestBinary: an attestation challenge round-trips
// through its encoding, and every damaged form — the old JSON body
// among them — is refused with ErrEvidenceEncoding.
func TestEvidenceRequestBinary(t *testing.T) {
	for _, req := range []EvidenceRequest{
		{Nonce: []byte("vm-nonce")},
		{Nonce: []byte("vm-nonce"), UseTPM: true},
		{UseTPM: true},
	} {
		var got EvidenceRequest
		if err := got.UnmarshalBinary(mustMarshalRequest(t, &req)); err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("round trip of %+v: got %+v, %v", req, got, err)
		}
	}
	enc := mustMarshalRequest(t, &EvidenceRequest{Nonce: []byte("vm-nonce"), UseTPM: true})
	for name, data := range map[string][]byte{
		"empty":         nil,
		"flag only":     enc[:1],
		"flag over 1":   append([]byte{2}, enc[1:]...),
		"truncated":     enc[:len(enc)-1],
		"trailing byte": append(bytes.Clone(enc), 0),
		"old JSON body": []byte(`{"nonce":"dm0tbm9uY2U=","use_tpm":true}`),
	} {
		var got EvidenceRequest
		if err := got.UnmarshalBinary(data); !errors.Is(err, ErrEvidenceEncoding) {
			t.Errorf("%s: got %v, want ErrEvidenceEncoding", name, err)
		}
	}
}

// FuzzEvidenceRequest feeds the attestation challenge decoder what a
// host agent's or the attestation enclave's caller could send:
// arbitrary bytes either decode to a request whose encoding decodes
// back to it or are refused with ErrEvidenceEncoding.
func FuzzEvidenceRequest(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 5, 'n', 'o', 'n', 'c', 'e'})
	f.Add([]byte{2, 0})
	f.Add([]byte{1, 6, 'n'})
	f.Add([]byte(`{"nonce":"bm9uY2U=","use_tpm":false}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req EvidenceRequest
		if err := req.UnmarshalBinary(data); err != nil {
			if !errors.Is(err, ErrEvidenceEncoding) {
				t.Fatalf("decode refused without the sentinel: %v", err)
			}
			return
		}
		var again EvidenceRequest
		if err := again.UnmarshalBinary(mustMarshalRequest(t, &req)); err != nil || !reflect.DeepEqual(again, req) {
			t.Fatalf("re-encoded request %+v decodes to %+v, %v", req, again, err)
		}
	})
}

func TestTamperedAttestationEnclaveMeasuresDifferently(t *testing.T) {
	fx := newFixture(t)
	ae, err := NewAttestationEnclave(fx.plat, fx.vendor, fx.hostSvc, sgx.SPID{1},
		WithAttestationCode("backdoored build"))
	if err != nil {
		t.Fatal(err)
	}
	defer ae.Destroy()
	want, err := ExpectedAttestationMeasurement(fx.vendor)
	if err != nil {
		t.Fatal(err)
	}
	if ae.Identity().MRENCLAVE == want {
		t.Fatal("tampered build has canonical measurement")
	}
}

// --- credential enclave: RA + provisioning -------------------------------------

// vmSide drives the challenger role against a credential enclave, as the
// Verification Manager will in the verifier package.
type vmSide struct {
	ch    *ra.Challenger
	codec *secchan.RecordCodec
}

func runEnrollment(t testing.TB, fx *fixture, ce *CredentialEnclave) *vmSide {
	t.Helper()
	m1, err := ce.RAMsg1()
	if err != nil {
		t.Fatal(err)
	}
	ch := ra.NewChallenger(sgx.SPID{1}, fx.vmKey, sgx.QuoteLinkable)
	m2, err := ch.ProcessMsg1(m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := ce.RAProcessMsg2(m2)
	if err != nil {
		t.Fatal(err)
	}
	m4, err := ch.ProcessMsg3(m3, func(q []byte) (string, error) { return "OK", nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := ce.RAFinalize(m4); err != nil {
		t.Fatal(err)
	}
	sk, err := ch.SessionKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := secchan.NewCodec(sk, secchan.RoleInitiator)
	if err != nil {
		t.Fatal(err)
	}
	return &vmSide{ch: ch, codec: codec}
}

// provision pushes credentials in the given mode and returns cert + key.
func provision(t testing.TB, vm *vmSide, ce *CredentialEnclave, ca *pki.CA, cn string, mode ProvisionMode) *x509.Certificate {
	t.Helper()
	var payload ProvisionPayload
	payload.Mode = mode
	payload.CADER = ca.Certificate().Raw
	payload.HMACKey = []byte("vm-generated-hmac-key")

	switch mode {
	case ModeVMGenerated:
		key, err := pki.GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		csr, err := pki.CreateCSR(cn, key)
		if err != nil {
			t.Fatal(err)
		}
		cert, err := ca.SignClientCSR(csr, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		pkcs8, err := x509.MarshalPKCS8PrivateKey(key)
		if err != nil {
			t.Fatal(err)
		}
		payload.KeyPKCS8 = pkcs8
		payload.CertDER = cert.Raw
	case ModeCSR:
		req, err := json.Marshal(CSRRequest{CommonName: cn})
		if err != nil {
			t.Fatal(err)
		}
		frame, err := vm.codec.Seal(secchan.TypeCSR, req)
		if err != nil {
			t.Fatal(err)
		}
		respFrame, err := ce.HandleFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		typ, respPayload, err := vm.codec.Open(respFrame)
		if err != nil {
			t.Fatal(err)
		}
		if typ != secchan.TypeCSR {
			t.Fatalf("CSR response type %d: %s", typ, respPayload)
		}
		var resp CSRResponse
		if err := json.Unmarshal(respPayload, &resp); err != nil {
			t.Fatal(err)
		}
		cert, err := ca.SignClientCSR(resp.CSRDER, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		payload.CertDER = cert.Raw
	}

	body, err := payload.Encode()
	if err != nil {
		t.Fatal(err)
	}
	frame, err := vm.codec.Seal(secchan.TypeProvision, body)
	if err != nil {
		t.Fatal(err)
	}
	respFrame, err := ce.HandleFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	typ, respPayload, err := vm.codec.Open(respFrame)
	if err != nil {
		t.Fatal(err)
	}
	if typ != secchan.TypeAck {
		t.Fatalf("provisioning response type %d: %s", typ, respPayload)
	}
	cert, err := x509.ParseCertificate(payload.CertDER)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

func newCredEnclave(t testing.TB, fx *fixture) *CredentialEnclave {
	t.Helper()
	ss, err := SignCredentialEnclave(fx.vendor, &fx.vmKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := NewCredentialEnclave(fx.plat, ss, &fx.vmKey.PublicKey, sgx.SPID{1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ce.Destroy)
	return ce
}

func TestEnrollAndProvisionVMGenerated(t *testing.T) {
	fx := newFixture(t)
	ce := newCredEnclave(t, fx)
	ca, err := pki.NewCA("vm-ca", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	vm := runEnrollment(t, fx, ce)
	cert := provision(t, vm, ce, ca, "vnf-1", ModeVMGenerated)

	enrolled, provisioned, err := ce.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !enrolled || !provisioned {
		t.Fatalf("status enrolled=%v provisioned=%v", enrolled, provisioned)
	}
	certDER, caDER, err := ce.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(certDER, cert.Raw) {
		t.Fatal("certificate mismatch")
	}
	if !bytes.Equal(caDER, ca.Certificate().Raw) {
		t.Fatal("CA mismatch")
	}
	// The enclave signs with the provisioned key.
	digest := sha256.Sum256([]byte("controller challenge"))
	signer, err := ce.Signer()
	if err != nil {
		t.Fatal(err)
	}
	sig, err := signer.Sign(nil, digest[:], nil)
	if err != nil {
		t.Fatal(err)
	}
	pub := cert.PublicKey.(*ecdsa.PublicKey)
	if !ecdsa.VerifyASN1(pub, digest[:], sig) {
		t.Fatal("enclave signature invalid under certificate key")
	}
}

func TestEnrollAndProvisionCSRMode(t *testing.T) {
	fx := newFixture(t)
	ce := newCredEnclave(t, fx)
	ca, err := pki.NewCA("vm-ca", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	vm := runEnrollment(t, fx, ce)
	cert := provision(t, vm, ce, ca, "vnf-csr", ModeCSR)
	if cert.Subject.CommonName != "vnf-csr" {
		t.Fatalf("CN = %q", cert.Subject.CommonName)
	}
	if err := ca.VerifyClient(cert); err != nil {
		t.Fatal(err)
	}
}

func TestCredentialsNeverVisibleInHostMemory(t *testing.T) {
	fx := newFixture(t)
	ce := newCredEnclave(t, fx)
	ca, err := pki.NewCA("vm-ca", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	vm := runEnrollment(t, fx, ce)
	provision(t, vm, ce, ca, "vnf-1", ModeCSR)

	// Extract the real private key scalar via a signature check: we know
	// it exists; confirm its encodings don't appear in the memory image.
	der, err := ce.enclave.ECall("pubkey", nil)
	if err != nil {
		t.Fatal(err)
	}
	img := ce.MemoryImage()
	if len(img) == 0 {
		t.Fatal("expected heap records")
	}
	for name, ct := range img {
		if bytes.Contains(ct, []byte("PRIVATE KEY")) {
			t.Fatalf("record %s leaks PEM text", name)
		}
		// PKCS8 ECDSA keys embed the public point; its presence would
		// imply plaintext storage.
		if len(der) > 24 && bytes.Contains(ct, der[len(der)-24:]) {
			t.Fatalf("record %s leaks key structure", name)
		}
	}
}

func TestProvisionRejectsKeyCertMismatch(t *testing.T) {
	fx := newFixture(t)
	ce := newCredEnclave(t, fx)
	ca, err := pki.NewCA("vm-ca", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	vm := runEnrollment(t, fx, ce)

	keyA, _ := pki.GenerateKey()
	keyB, _ := pki.GenerateKey()
	csr, err := pki.CreateCSR("vnf", keyA)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.SignClientCSR(csr, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	pkcs8B, _ := x509.MarshalPKCS8PrivateKey(keyB)
	payload := ProvisionPayload{
		Mode: ModeVMGenerated, KeyPKCS8: pkcs8B,
		CertDER: cert.Raw, CADER: ca.Certificate().Raw,
	}
	body, _ := payload.Encode()
	frame, err := vm.codec.Seal(secchan.TypeProvision, body)
	if err != nil {
		t.Fatal(err)
	}
	respFrame, err := ce.HandleFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	typ, msg, err := vm.codec.Open(respFrame)
	if err != nil {
		t.Fatal(err)
	}
	if typ != secchan.TypeError || !bytes.Contains(msg, []byte("does not match")) {
		t.Fatalf("mismatched key accepted: type=%d msg=%s", typ, msg)
	}
}

// TestProvisionRefusesUnsupportedKeyType: a non-ECDSA certificate and a
// non-ECDSA PKCS#8 key are each refused with ErrKeyTypeUnsupported, and
// the enclave is left unprovisioned.
func TestProvisionRefusesUnsupportedKeyType(t *testing.T) {
	fx := newFixture(t)
	ce := newCredEnclave(t, fx)
	ca, err := pki.NewCA("vm-ca", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	vm := runEnrollment(t, fx, ce)

	edPub, edKey, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{SerialNumber: big.NewInt(1), NotBefore: time.Now(), NotAfter: time.Now().Add(time.Hour)}
	edCert, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, edPub, edKey)
	if err != nil {
		t.Fatal(err)
	}
	edPKCS8, err := x509.MarshalPKCS8PrivateKey(edKey)
	if err != nil {
		t.Fatal(err)
	}
	ecKey, err := pki.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	ecPKCS8, err := x509.MarshalPKCS8PrivateKey(ecKey)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := pki.CreateCSR("vnf", ecKey)
	if err != nil {
		t.Fatal(err)
	}
	ecCert, err := ca.SignClientCSR(csr, time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name      string
		cert, key []byte
	}{
		{"ed25519 certificate", edCert, ecPKCS8},
		{"ed25519 PKCS#8 key", ecCert.Raw, edPKCS8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := ProvisionPayload{Mode: ModeVMGenerated, KeyPKCS8: tc.key, CertDER: tc.cert, CADER: ca.Certificate().Raw}
			// The refusal comes before the enclave heap is touched, so no
			// ECALL context is needed to see the sentinel itself.
			if err := ce.storeCredentials(nil, &payload); !errors.Is(err, ErrKeyTypeUnsupported) {
				t.Fatalf("storeCredentials: got %v, want ErrKeyTypeUnsupported", err)
			}
			body, err := payload.Encode()
			if err != nil {
				t.Fatal(err)
			}
			frame, err := vm.codec.Seal(secchan.TypeProvision, body)
			if err != nil {
				t.Fatal(err)
			}
			respFrame, err := ce.HandleFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			typ, msg, err := vm.codec.Open(respFrame)
			if err != nil {
				t.Fatal(err)
			}
			if typ != secchan.TypeError || !bytes.Contains(msg, []byte(ErrKeyTypeUnsupported.Error())) {
				t.Fatalf("provisioning answered type %d: %s", typ, msg)
			}
			if _, _, err := ce.Certificate(); !errors.Is(err, ErrNotProvisioned) {
				t.Fatalf("refused credentials provisioned the enclave: %v", err)
			}
		})
	}
}

func TestRevokeWipesCredentials(t *testing.T) {
	fx := newFixture(t)
	ce := newCredEnclave(t, fx)
	ca, err := pki.NewCA("vm-ca", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	vm := runEnrollment(t, fx, ce)
	provision(t, vm, ce, ca, "vnf-1", ModeCSR)

	frame, err := vm.codec.Seal(secchan.TypeRevoke, nil)
	if err != nil {
		t.Fatal(err)
	}
	respFrame, err := ce.HandleFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	typ, _, err := vm.codec.Open(respFrame)
	if err != nil || typ != secchan.TypeAck {
		t.Fatalf("revoke failed: type=%d err=%v", typ, err)
	}
	if _, _, err := ce.Certificate(); !errors.Is(err, ErrNotProvisioned) {
		t.Fatalf("certificate after revoke: %v", err)
	}
	if _, err := ce.Signer(); !errors.Is(err, ErrNotProvisioned) {
		t.Fatalf("signer after revoke: %v", err)
	}
}

func TestChannelFrameRequiresSession(t *testing.T) {
	fx := newFixture(t)
	ce := newCredEnclave(t, fx)
	if _, err := ce.HandleFrame([]byte("junk")); !errors.Is(err, ErrNoSession) {
		t.Fatalf("got %v, want ErrNoSession", err)
	}
}

func TestForgedChannelFrameRejected(t *testing.T) {
	fx := newFixture(t)
	ce := newCredEnclave(t, fx)
	runEnrollment(t, fx, ce)
	// A host adversary injects a frame sealed under a key it invented.
	rogue, err := secchan.NewCodec([16]byte{6, 6, 6}, secchan.RoleInitiator)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := rogue.Seal(secchan.TypeRevoke, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ce.HandleFrame(frame); !errors.Is(err, secchan.ErrAuth) {
		t.Fatalf("forged frame: %v", err)
	}
}

func TestHMACWithProvisionedKey(t *testing.T) {
	fx := newFixture(t)
	ce := newCredEnclave(t, fx)
	ca, err := pki.NewCA("vm-ca", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	vm := runEnrollment(t, fx, ce)
	provision(t, vm, ce, ca, "vnf-1", ModeCSR)
	mac, err := ce.HMAC([]byte("status report"))
	if err != nil {
		t.Fatal(err)
	}
	want := hmacSum([]byte("vm-generated-hmac-key"), []byte("status report"))
	if !bytes.Equal(mac, want) {
		t.Fatal("HMAC mismatch with VM-held key")
	}
}

// --- in-enclave TLS -------------------------------------------------------------

// startTLSServer runs a mutual-TLS echo server trusting ca for clients.
func startTLSServer(t testing.TB, ca *pki.CA) (addr string, stop func()) {
	t.Helper()
	serverKey, err := pki.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	serverCert, err := ca.IssueServerCert("controller", []string{"controller"}, []net.IP{net.IPv4(127, 0, 0, 1)}, &serverKey.PublicKey, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &tls.Config{
		MinVersion:   tls.VersionTLS12,
		Certificates: []tls.Certificate{{Certificate: [][]byte{serverCert.Raw}, PrivateKey: serverKey}},
		ClientAuth:   tls.RequireAndVerifyClientCert,
		ClientCAs:    ca.Pool(),
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(conn)
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); <-done }
}

func provisionedEnclave(t testing.TB) (*fixture, *CredentialEnclave, *pki.CA, string, func()) {
	t.Helper()
	fx := newFixture(t)
	ce := newCredEnclave(t, fx)
	ca, err := pki.NewCA("vm-ca", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	vm := runEnrollment(t, fx, ce)
	provision(t, vm, ce, ca, "vnf-tls", ModeCSR)
	addr, stop := startTLSServer(t, ca)
	return fx, ce, ca, addr, stop
}

func TestFullSessionTLS(t *testing.T) {
	fx, ce, _, addr, stop := provisionedEnclave(t)
	defer stop()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ce.DialTLS(raw, "controller")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("flow-mod: allow 10.0.0.0/24")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("echo mismatch: %q", buf)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	// Record I/O crossed the boundary: OCALLs were charged.
	if fx.model.Count(simtime.OpOCall) == 0 {
		t.Fatal("full-session mode charged no OCALLs")
	}
}

func TestKeyInEnclaveTLS(t *testing.T) {
	fx, ce, _, addr, stop := provisionedEnclave(t)
	defer stop()
	cfg, err := ce.ClientTLSConfig("controller")
	if err != nil {
		t.Fatal(err)
	}
	before := fx.model.Count(simtime.OpECall)
	conn, err := tls.Dial("tcp", addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	// Handshake required at least one in-enclave signature, but far fewer
	// transitions than full-session mode.
	delta := fx.model.Count(simtime.OpECall) - before
	if delta < 1 {
		t.Fatal("no ECALL during key-in-enclave handshake")
	}
	if delta > 5 {
		t.Fatalf("key-in-enclave handshake used %d ECALLs, expected few", delta)
	}
}

func TestTLSWithoutProvisioningFails(t *testing.T) {
	fx := newFixture(t)
	ce := newCredEnclave(t, fx)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if _, err := ce.DialTLS(a, "controller"); err == nil {
		t.Fatal("unprovisioned enclave performed TLS")
	}
}

func TestCredentialMeasurementBindsVMKey(t *testing.T) {
	fx := newFixture(t)
	otherVM, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := ExpectedCredentialMeasurement(fx.vendor, &fx.vmKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ExpectedCredentialMeasurement(fx.vendor, &otherVM.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 {
		t.Fatal("credential enclave measurement independent of VM key")
	}
	ce := newCredEnclave(t, fx)
	if ce.Identity().MRENCLAVE != m1 {
		t.Fatal("launched enclave does not match expected measurement")
	}
}
