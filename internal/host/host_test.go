package host

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vnfguard/internal/epid"
	"vnfguard/internal/ima"
	"vnfguard/internal/sgx"
	"vnfguard/internal/simtime"
)

func testImage() *Image {
	return &Image{
		Name: "vnf-firewall", Tag: "1.0",
		Entrypoint: "/usr/bin/firewall",
		Configs:    []string{"/etc/firewall.conf"},
		Layers: []Layer{
			{Files: map[string][]byte{"/usr/bin/firewall": []byte("firewall binary v1")}},
			{Files: map[string][]byte{"/etc/firewall.conf": []byte("allow 443")}},
		},
	}
}

func newHost(t *testing.T, enableTPM bool) *Host {
	t.Helper()
	issuer, err := epid.NewIssuer(400)
	if err != nil {
		t.Fatal(err)
	}
	vendor, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(Config{
		Name: "host-a", Issuer: issuer, Model: simtime.ZeroCosts(),
		VendorKey: vendor, VMPub: &vm.PublicKey, SPID: sgx.SPID{1},
		EnableTPM: enableTPM,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestImageDigestAndFlatten(t *testing.T) {
	im := testImage()
	d1 := im.Digest()
	im2 := testImage()
	if im2.Digest() != d1 {
		t.Fatal("digest not deterministic")
	}
	im2.Layers[0].Files["/usr/bin/firewall"] = []byte("evil")
	if im2.Digest() == d1 {
		t.Fatal("content change did not change digest")
	}
	// Later layers override earlier ones.
	im3 := testImage()
	im3.Layers = append(im3.Layers, Layer{Files: map[string][]byte{"/etc/firewall.conf": []byte("allow all")}})
	fs := im3.Flatten()
	if string(fs["/etc/firewall.conf"]) != "allow all" {
		t.Fatal("layer override failed")
	}
}

func TestImageValidation(t *testing.T) {
	im := testImage()
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testImage()
	bad.Entrypoint = "/missing"
	if err := bad.Validate(); err == nil {
		t.Fatal("missing entrypoint accepted")
	}
	bad2 := testImage()
	bad2.Configs = []string{"/missing.conf"}
	if err := bad2.Validate(); err == nil {
		t.Fatal("missing config accepted")
	}
	bad3 := testImage()
	bad3.Tag = ""
	if err := bad3.Validate(); err == nil {
		t.Fatal("untagged image accepted")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	im := testImage()
	if err := r.Push(im); err != nil {
		t.Fatal(err)
	}
	got, err := r.Pull("vnf-firewall:1.0")
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != im.Digest() {
		t.Fatal("pulled image differs")
	}
	if _, err := r.Pull("nope:1"); err == nil {
		t.Fatal("missing image pulled")
	}
	if list := r.List(); len(list) != 1 || list[0] != "vnf-firewall:1.0" {
		t.Fatalf("list = %v", list)
	}
}

func TestRunContainerMeasuresExecution(t *testing.T) {
	h := newHost(t, false)
	before := h.IMA().Len()
	c, err := h.RunContainer(testImage(), "fw-1")
	if err != nil {
		t.Fatal(err)
	}
	if c.State != StateRunning {
		t.Fatalf("state = %v", c.State)
	}
	// Entrypoint (exec) + config (root read under /etc... path is
	// namespaced so the default policy's /etc rule does not match; the
	// BPRM_CHECK rule does).
	if h.IMA().Len() <= before {
		t.Fatal("container run produced no measurements")
	}
	text, _ := h.IMA().Snapshot()
	if !strings.Contains(text, "/var/lib/containers/fw-1/rootfs/usr/bin/firewall") {
		t.Fatalf("IML missing entrypoint:\n%s", text)
	}
	// The credential enclave exists.
	if _, err := h.CredentialEnclave("fw-1"); err != nil {
		t.Fatal(err)
	}
}

func TestRunContainerDuplicateVNF(t *testing.T) {
	h := newHost(t, false)
	if _, err := h.RunContainer(testImage(), "fw-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.RunContainer(testImage(), "fw-1"); !errors.Is(err, ErrContainerRunning) {
		t.Fatalf("got %v", err)
	}
}

func TestStopContainerDestroysEnclave(t *testing.T) {
	h := newHost(t, false)
	c, err := h.RunContainer(testImage(), "fw-1")
	if err != nil {
		t.Fatal(err)
	}
	ce, err := h.CredentialEnclave("fw-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.StopContainer(c.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := h.CredentialEnclave("fw-1"); !errors.Is(err, ErrUnknownVNF) {
		t.Fatalf("got %v", err)
	}
	// Enclave is destroyed: calls fail.
	if _, err := ce.RAMsg1(); !errors.Is(err, sgx.ErrDestroyed) {
		t.Fatalf("got %v", err)
	}
	if err := h.StopContainer("ghost"); !errors.Is(err, ErrUnknownContainer) {
		t.Fatalf("got %v", err)
	}
}

func TestAttestProducesBoundEvidence(t *testing.T) {
	h := newHost(t, false)
	h.RunContainer(testImage(), "fw-1")
	nonce := []byte("vm-nonce")
	ev, err := h.Attest(nonce, false)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sgx.DecodeQuote(ev.Quote)
	if err != nil {
		t.Fatal(err)
	}
	if q.Body.ReportData != sgx.ReportDataFromHash(ev.BindingDigest()) {
		t.Fatal("evidence binding broken")
	}
	if h.AttestCount() != 1 {
		t.Fatal("attest counter")
	}
}

func TestAttestTPMWithoutDevice(t *testing.T) {
	h := newHost(t, false)
	if _, err := h.Attest([]byte("n"), true); err == nil {
		t.Fatal("TPM attestation succeeded without TPM")
	}
}

func TestAttestWithTPMAnchorsIML(t *testing.T) {
	h := newHost(t, true)
	h.RunContainer(testImage(), "fw-1")
	ev, err := h.Attest([]byte("n"), true)
	if err != nil {
		t.Fatal(err)
	}
	list, err := ima.ParseList(ev.IML)
	if err != nil {
		t.Fatal(err)
	}
	if ev.TPMQuote == nil || list.Aggregate() != ev.TPMQuote.PCRValues[0] {
		t.Fatal("TPM PCR does not anchor the IML")
	}
}

func TestTamperBinaryChangesIML(t *testing.T) {
	h := newHost(t, false)
	h.RunContainer(testImage(), "fw-1")
	len1 := h.IMA().Len()
	h.TamperBinary("fw-1", "/usr/bin/firewall", []byte("backdoored"))
	if h.IMA().Len() != len1+1 {
		t.Fatal("tampered execution not measured")
	}
}

func TestAgentHTTPRoundTrip(t *testing.T) {
	h := newHost(t, false)
	h.RunContainer(testImage(), "fw-1")
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	names, err := client.VNFs()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "fw-1" {
		t.Fatalf("vnfs = %v", names)
	}
	ev, err := client.Attest([]byte("nonce"), false)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sgx.DecodeQuote(ev.Quote)
	if err != nil {
		t.Fatal(err)
	}
	if local.Body.ReportData != sgx.ReportDataFromHash(ev.BindingDigest()) {
		t.Fatal("evidence binding lost over HTTP")
	}
	// RA msg1 over HTTP matches the in-process shape.
	m1, err := client.VNFRAMsg1("fw-1")
	if err != nil {
		t.Fatal(err)
	}
	if m1.GID != h.Platform().GID() {
		t.Fatal("GID mismatch over HTTP")
	}
	if _, err := client.VNFRAMsg1("ghost"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown VNF: %v", err)
	}
}

// TestAgentRequestRefusals: the agent answers a body over its cap with
// 413 — refused whole, never decoded truncated — a body that is not its
// message's encoding with 400, and a request for an unknown VNF with
// 404.
func TestAgentRequestRefusals(t *testing.T) {
	h := newHost(t, false)
	h.RunContainer(testImage(), "fw-1")
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()
	oldAttest := `{"nonce":"bm9uY2U=","use_tpm":false}`
	cases := []struct {
		name, path string
		body       []byte
		want       int
	}{
		{"frame over the cap", vnfPath(pathFrame, "fw-1"), make([]byte, maxBodyBytes+1), http.StatusRequestEntityTooLarge},
		{"attest over the cap", pathAttest, make([]byte, maxBodyBytes+1), http.StatusRequestEntityTooLarge},
		{"attest old JSON body", pathAttest, []byte(oldAttest), http.StatusBadRequest},
		{"attest TPM flag 2", pathAttest, []byte{2, 0}, http.StatusBadRequest},
		{"msg2 junk", vnfPath(pathRAMsg2, "fw-1"), []byte("junk"), http.StatusBadRequest},
		{"msg4 old JSON body", vnfPath(pathRAMsg4, "fw-1"), []byte(`{"data":"AA=="}`), http.StatusBadRequest},
		{"msg1 unknown VNF", vnfPath(pathRAMsg1, "ghost"), nil, http.StatusNotFound},
		{"frame unknown VNF", vnfPath(pathFrame, "ghost"), []byte("frame"), http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+tc.path, "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestAgentClientTimesOutOnHungAgent: a host agent that accepts the
// connection but never answers must fail the request with a timeout
// error, not stall the Verification Manager's attestation of it.
func TestAgentClientTimesOutOnHungAgent(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
	t.Cleanup(func() {
		close(release)
		srv.Close()
	})
	client := NewClient(srv.URL)
	if got := client.http.Timeout; got != clientTimeout {
		t.Fatalf("client timeout %v, want %v", got, clientTimeout)
	}
	// Tighten the bound so the test does not wait out the default.
	client.http.Timeout = 150 * time.Millisecond
	isTimeout := func(err error) bool {
		var ne net.Error
		return errors.As(err, &ne) && ne.Timeout()
	}
	start := time.Now()
	if _, err := client.Attest([]byte("nonce"), false); !isTimeout(err) {
		t.Fatalf("attest against a hung agent: got %v, want a timeout", err)
	}
	if _, err := client.VNFs(); !isTimeout(err) {
		t.Fatalf("vnfs against a hung agent: got %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("client hung %v despite a 150ms timeout", elapsed)
	}
}

// TestClientResponseTooLarge: a reply one byte over the client's limit is
// refused as too large, not truncated into a decode error.
func TestClientResponseTooLarge(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(make([]byte, maxBodyBytes+1))
	}))
	defer srv.Close()
	_, err := NewClient(srv.URL).Attest([]byte("nonce"), false)
	if !errors.Is(err, ErrResponseTooLarge) {
		t.Fatalf("attest with a %d-byte reply: got %v, want ErrResponseTooLarge", maxBodyBytes+1, err)
	}
}

// TestClientVNFsResponseTooLarge: an agent's VNF list one byte over the
// client's limit is refused as too large, like every other agent reply.
func TestClientVNFsResponseTooLarge(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(make([]byte, maxBodyBytes+1))
	}))
	defer srv.Close()
	_, err := NewClient(srv.URL).VNFs()
	if !errors.Is(err, ErrResponseTooLarge) {
		t.Fatalf("vnfs with a %d-byte reply: got %v, want ErrResponseTooLarge", maxBodyBytes+1, err)
	}
}

// TestAgentAttestAllocationsFlat: fetching evidence over HTTP costs no
// allocation per IML entry, on the agent or the client side: the list
// crosses the ECall and the wire as a length-prefixed copy.
func TestAgentAttestAllocationsFlat(t *testing.T) {
	attestAllocs := func(entries int) float64 {
		h := newHost(t, false)
		for i := h.IMA().Len(); i < entries; i++ {
			path := fmt.Sprintf("/usr/lib/vnf/module-%05d.so", i)
			h.IMA().HandleEvent(ima.Event{Path: path, Hook: ima.HookBprmCheck, Mask: ima.MayExec}, []byte(path))
		}
		if h.IMA().Len() != entries {
			t.Fatalf("host measured %d entries, want %d", h.IMA().Len(), entries)
		}
		srv := httptest.NewServer(h.Handler())
		defer srv.Close()
		client := NewClient(srv.URL)
		return testing.AllocsPerRun(5, func() {
			if _, err := client.Attest([]byte("nonce"), false); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := attestAllocs(10), attestAllocs(10_000)
	t.Logf("allocations per attest: %v at 10 entries, %v at 10000", small, large)
	if large-small > 100 {
		t.Fatalf("attest allocates %v times at 10 entries, %v at 10000: cost grows with the list", small, large)
	}
}
