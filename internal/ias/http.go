package ias

import (
	"bytes"
	"crypto/elliptic"
	"crypto/x509"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"vnfguard/internal/epid"
	"vnfguard/internal/httpbody"
	"vnfguard/internal/simtime"
)

var ecdsaCurve = elliptic.P256()

// API paths, following the IAS v4 layout.
const (
	reportPath = "/attestation/v4/report"
	sigrlPath  = "/attestation/v4/sigrl/"
)

// subscriptionHeader is the API-key header IAS uses.
const subscriptionHeader = "Ocp-Apim-Subscription-Key"

// AVR response headers.
const (
	headerReportSignature = "X-IASReport-Signature"
	headerReportCert      = "X-IASReport-Signing-Certificate"
)

// maxBodyBytes caps every report request the service reads and every
// report or SigRL reply the client reads. An over-cap body is refused
// whole (413 at the service, httpbody.ErrResponseTooLarge at the
// client), never decoded truncated.
const maxBodyBytes = 1 << 20

// reportRequest is the POST body of the report API.
type reportRequest struct {
	ISVEnclaveQuote string `json:"isvEnclaveQuote"`
	Nonce           string `json:"nonce,omitempty"`
}

// Handler returns the HTTP interface of the service.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+reportPath, s.handleReport)
	mux.HandleFunc("GET "+sigrlPath+"{gid}", s.handleSigRL)
	return mux
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	if !s.validKey(r.Header.Get(subscriptionHeader)) {
		http.Error(w, "invalid subscription key", http.StatusUnauthorized)
		return
	}
	body, ok := httpbody.ReadRequest(w, r, maxBodyBytes)
	if !ok {
		return
	}
	var req reportRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "malformed request", http.StatusBadRequest)
		return
	}
	if len(req.Nonce) > 32 {
		http.Error(w, "nonce too long", http.StatusBadRequest)
		return
	}
	quote, err := base64.StdEncoding.DecodeString(req.ISVEnclaveQuote)
	if err != nil {
		http.Error(w, "quote is not base64", http.StatusBadRequest)
		return
	}
	avr, err := s.VerifyQuote(quote, req.Nonce)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrUnknownGroup) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	signed, err := s.Sign(avr)
	if err != nil {
		http.Error(w, "signing failure", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(headerReportSignature, base64.StdEncoding.EncodeToString(signed.Signature))
	w.Header().Set(headerReportCert, url.QueryEscape(string(s.SigningCertPEM())))
	w.WriteHeader(http.StatusOK)
	w.Write(signed.Body)
}

func (s *Service) handleSigRL(w http.ResponseWriter, r *http.Request) {
	if !s.validKey(r.Header.Get(subscriptionHeader)) {
		http.Error(w, "invalid subscription key", http.StatusUnauthorized)
		return
	}
	gidHex := r.PathValue("gid")
	if _, err := hex.DecodeString(gidHex); err != nil || len(gidHex) != 8 {
		http.Error(w, "malformed gid", http.StatusBadRequest)
		return
	}
	sigrl := s.SigRL()
	out := make([]string, len(sigrl))
	for i, p := range sigrl {
		out[i] = base64.StdEncoding.EncodeToString(p[:])
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// QuoteVerifier is the challenger-facing interface to the attestation
// service; both the HTTP client and the in-process client implement it.
type QuoteVerifier interface {
	// VerifyQuote submits an encoded quote and returns the verified AVR.
	VerifyQuote(quote []byte, nonce string) (*AVR, error)
	// SigRL fetches the current signature revocation list for a group.
	SigRL(gid epid.GroupID) ([][32]byte, error)
}

// Client talks to the service over HTTP, verifying AVR signatures against
// the pinned report-signing certificate and charging the WAN round trip.
type Client struct {
	baseURL     string
	httpClient  *http.Client
	key         string
	signingCert *x509.Certificate
	model       *simtime.CostModel
}

// clientTimeout bounds every report and SigRL request end to end, so a
// hung attestation service fails an enrollment instead of stalling it.
const clientTimeout = 10 * time.Second

// NewClient constructs a client. signingCertPEM pins the AVR signer.
func NewClient(baseURL, subscriptionKey string, signingCertPEM []byte, model *simtime.CostModel) (*Client, error) {
	block := signingCertPEM
	cert, err := parsePEMCert(block)
	if err != nil {
		return nil, fmt.Errorf("ias: pinning signing certificate: %w", err)
	}
	return &Client{
		baseURL:     strings.TrimRight(baseURL, "/"),
		httpClient:  &http.Client{Timeout: clientTimeout},
		key:         subscriptionKey,
		signingCert: cert,
		model:       model,
	}, nil
}

func parsePEMCert(pemBytes []byte) (*x509.Certificate, error) {
	// Minimal PEM handling without importing pki (keeps ias standalone).
	const begin = "-----BEGIN CERTIFICATE-----"
	const end = "-----END CERTIFICATE-----"
	text := string(pemBytes)
	i := strings.Index(text, begin)
	j := strings.Index(text, end)
	if i < 0 || j < 0 {
		return nil, errors.New("no certificate block")
	}
	b64 := strings.Map(func(r rune) rune {
		if r == '\n' || r == '\r' || r == ' ' {
			return -1
		}
		return r
	}, text[i+len(begin):j])
	der, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, err
	}
	return x509.ParseCertificate(der)
}

// VerifyQuote implements QuoteVerifier over HTTP.
func (c *Client) VerifyQuote(quote []byte, nonce string) (*AVR, error) {
	c.model.Charge(simtime.OpIASRoundTrip)
	body, err := json.Marshal(reportRequest{
		ISVEnclaveQuote: base64.StdEncoding.EncodeToString(quote),
		Nonce:           nonce,
	})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.baseURL+reportPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(subscriptionHeader, c.key)
	resp, err := c.httpClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("ias: report request: %w", err)
	}
	defer resp.Body.Close()
	respBody, err := httpbody.ReadReply(resp, maxBodyBytes)
	if err != nil {
		return nil, fmt.Errorf("ias: reading report response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("ias: report API status %d: %s", resp.StatusCode, strings.TrimSpace(string(respBody)))
	}
	sigB64 := resp.Header.Get(headerReportSignature)
	sig, err := base64.StdEncoding.DecodeString(sigB64)
	if err != nil {
		return nil, fmt.Errorf("ias: malformed report signature header: %w", err)
	}
	signed := &SignedAVR{Body: respBody, Signature: sig}
	if err := VerifyAVR(c.signingCert, signed); err != nil {
		return nil, err
	}
	avr, err := signed.Report()
	if err != nil {
		return nil, err
	}
	if avr.Nonce != nonce {
		return nil, errors.New("ias: AVR nonce mismatch (replayed report)")
	}
	return avr, nil
}

// SigRL implements QuoteVerifier over HTTP.
func (c *Client) SigRL(gid epid.GroupID) ([][32]byte, error) {
	c.model.Charge(simtime.OpIASRoundTrip)
	gidHex := fmt.Sprintf("%08x", uint32(gid))
	req, err := http.NewRequest(http.MethodGet, c.baseURL+sigrlPath+gidHex, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(subscriptionHeader, c.key)
	resp, err := c.httpClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("ias: sigrl request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("ias: sigrl API status %d", resp.StatusCode)
	}
	body, err := httpbody.ReadReply(resp, maxBodyBytes)
	if err != nil {
		return nil, fmt.Errorf("ias: reading sigrl response: %w", err)
	}
	var entries []string
	if err := json.Unmarshal(body, &entries); err != nil {
		return nil, fmt.Errorf("ias: decoding sigrl: %w", err)
	}
	out := make([][32]byte, 0, len(entries))
	for _, e := range entries {
		raw, err := base64.StdEncoding.DecodeString(e)
		if err != nil || len(raw) != 32 {
			return nil, errors.New("ias: malformed sigrl entry")
		}
		var p [32]byte
		copy(p[:], raw)
		out = append(out, p)
	}
	return out, nil
}

// DirectClient is an in-process QuoteVerifier: same verification logic and
// modeled WAN cost, without HTTP framing. Benchmarks use it to separate
// protocol cost from transport cost.
type DirectClient struct {
	Service *Service
	Model   *simtime.CostModel
}

// VerifyQuote implements QuoteVerifier.
func (d *DirectClient) VerifyQuote(quote []byte, nonce string) (*AVR, error) {
	d.Model.Charge(simtime.OpIASRoundTrip)
	return d.Service.VerifyQuote(quote, nonce)
}

// SigRL implements QuoteVerifier.
func (d *DirectClient) SigRL(gid epid.GroupID) ([][32]byte, error) {
	d.Model.Charge(simtime.OpIASRoundTrip)
	return d.Service.SigRL(), nil
}
