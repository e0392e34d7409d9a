package host

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/httpbody"
	"vnfguard/internal/ra"
)

// Agent API paths (the host daemon's management surface).
const (
	pathAttest = "/agent/v1/attest"
	pathVNFs   = "/agent/v1/vnfs"
	pathRAMsg1 = "/agent/v1/vnf/{name}/ra/msg1"
	pathRAMsg2 = "/agent/v1/vnf/{name}/ra/msg2"
	pathRAMsg4 = "/agent/v1/vnf/{name}/ra/msg4"
	pathFrame  = "/agent/v1/vnf/{name}/frame"
)

// octets is the content type of every agent body but the VNF list's.
const octets = "application/octet-stream"

// maxBodyBytes caps every agent request the handler reads and every
// agent reply the client reads. An over-cap body is refused whole (413
// at the agent, ErrResponseTooLarge at the client), never decoded
// truncated.
const maxBodyBytes = 4 << 20

// Handler exposes the host over HTTP for a remote Verification Manager.
// In deployments this endpoint runs under mutual TLS on the management
// network; transport protection is the operator's choice and orthogonal to
// the credential workflow being reproduced.
//
// Every request and reply body is the binary encoding of the message it
// carries: an enclaveapp.EvidenceRequest and the HostEvidence it
// returns, RA msg1–msg4 in their ra encodings, and secure-channel frames
// as they are. msg4's reply is empty; only the VNF list is JSON.
func (h *Host) Handler() http.Handler {
	mux := http.NewServeMux()
	serve := func(pattern, contentType string, fn func(vnf string, body []byte) ([]byte, error)) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			body, ok := httpbody.ReadRequest(w, r, maxBodyBytes)
			if !ok {
				return
			}
			reply, err := fn(r.PathValue("name"), body)
			if err != nil {
				http.Error(w, err.Error(), errorStatus(err))
				return
			}
			w.Header().Set("Content-Type", contentType)
			w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
			w.Write(reply)
		})
	}
	serve("POST "+pathAttest, octets, func(_ string, body []byte) ([]byte, error) {
		var req enclaveapp.EvidenceRequest
		if err := req.UnmarshalBinary(body); err != nil {
			return nil, err
		}
		ev, err := h.Attest(req.Nonce, req.UseTPM)
		if err != nil {
			return nil, err
		}
		return ev.MarshalBinary()
	})
	serve("GET "+pathVNFs, "application/json", func(string, []byte) ([]byte, error) {
		names, err := h.VNFs()
		if err != nil {
			return nil, err
		}
		return json.Marshal(names)
	})
	serve("POST "+pathRAMsg1, octets, func(vnf string, _ []byte) ([]byte, error) {
		m1, err := h.VNFRAMsg1(vnf)
		if err != nil {
			return nil, err
		}
		return m1.Encode(), nil
	})
	serve("POST "+pathRAMsg2, octets, func(vnf string, body []byte) ([]byte, error) {
		m2, err := ra.DecodeMsg2(body)
		if err != nil {
			return nil, err
		}
		m3, err := h.VNFRAMsg2(vnf, m2)
		if err != nil {
			return nil, err
		}
		return m3.Encode(), nil
	})
	serve("POST "+pathRAMsg4, octets, func(vnf string, body []byte) ([]byte, error) {
		m4, err := ra.DecodeMsg4(body)
		if err != nil {
			return nil, err
		}
		return nil, h.VNFRAMsg4(vnf, m4)
	})
	serve("POST "+pathFrame, octets, h.VNFFrame)
	return mux
}

// errorStatus maps a refusal to its HTTP status: 400 for a body that is
// not its message's encoding, 404 for an unknown VNF, 500 otherwise.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, enclaveapp.ErrEvidenceEncoding), errors.Is(err, ra.ErrMalformed):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownVNF):
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// Client talks to a remote host agent; it satisfies the same interface the
// in-process Host does, so the Verification Manager is transport-agnostic.
type Client struct {
	base string
	http *http.Client
}

// clientTimeout bounds every agent request end to end, so a hung host
// agent fails its own attestation or enrollment instead of stalling it.
const clientTimeout = 10 * time.Second

// NewClient builds an agent client.
func NewClient(baseURL string) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/"), http: &http.Client{Timeout: clientTimeout}}
}

// ErrResponseTooLarge reports an agent reply body over the client's
// 4 MiB limit. The client refuses such a reply whole rather than decode
// a truncated one.
var ErrResponseTooLarge = httpbody.ErrResponseTooLarge

// call makes one agent request with body and returns the body of a 200
// reply, read under the client's cap. Every Client method goes through
// it.
func (c *Client) call(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", octets)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("host client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := httpbody.ReadReply(resp, maxBodyBytes)
	if err != nil {
		return nil, fmt.Errorf("host client: %s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("host client: %s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// Attest requests host evidence.
func (c *Client) Attest(nonce []byte, useTPM bool) (*enclaveapp.HostEvidence, error) {
	req, err := (&enclaveapp.EvidenceRequest{Nonce: nonce, UseTPM: useTPM}).MarshalBinary()
	if err != nil {
		return nil, err
	}
	data, err := c.call(http.MethodPost, pathAttest, req)
	if err != nil {
		return nil, err
	}
	var ev enclaveapp.HostEvidence
	if err := ev.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("host client: POST %s: %w", pathAttest, err)
	}
	return &ev, nil
}

// VNFs lists the host's VNFs.
func (c *Client) VNFs() ([]string, error) {
	data, err := c.call(http.MethodGet, pathVNFs, nil)
	if err != nil {
		return nil, err
	}
	var names []string
	if err := json.Unmarshal(data, &names); err != nil {
		return nil, fmt.Errorf("host client: GET %s: %w", pathVNFs, err)
	}
	return names, nil
}

func vnfPath(template, name string) string {
	return strings.Replace(template, "{name}", name, 1)
}

// VNFRAMsg1 starts the RA exchange remotely.
func (c *Client) VNFRAMsg1(vnf string) (*ra.Msg1, error) {
	data, err := c.call(http.MethodPost, vnfPath(pathRAMsg1, vnf), nil)
	if err != nil {
		return nil, err
	}
	return ra.DecodeMsg1(data)
}

// VNFRAMsg2 relays msg2, returning msg3.
func (c *Client) VNFRAMsg2(vnf string, m2 *ra.Msg2) (*ra.Msg3, error) {
	data, err := c.call(http.MethodPost, vnfPath(pathRAMsg2, vnf), m2.Encode())
	if err != nil {
		return nil, err
	}
	return ra.DecodeMsg3(data)
}

// VNFRAMsg4 relays msg4.
func (c *Client) VNFRAMsg4(vnf string, m4 *ra.Msg4) error {
	_, err := c.call(http.MethodPost, vnfPath(pathRAMsg4, vnf), m4.Encode())
	return err
}

// VNFFrame relays a secure-channel frame.
func (c *Client) VNFFrame(vnf string, frame []byte) ([]byte, error) {
	return c.call(http.MethodPost, vnfPath(pathFrame, vnf), frame)
}
