package host

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"vnfguard/internal/enclaveapp"
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

type attestRequest struct {
	NonceB64 string `json:"nonce"`
	UseTPM   bool   `json:"use_tpm"`
}

type bytesMsg struct {
	DataB64 string `json:"data"`
}

func encodeBytes(b []byte) bytesMsg {
	return bytesMsg{DataB64: base64.StdEncoding.EncodeToString(b)}
}

func (m bytesMsg) decode() ([]byte, error) {
	return base64.StdEncoding.DecodeString(m.DataB64)
}

// Handler exposes the host over HTTP for a remote Verification Manager.
// In deployments this endpoint runs under mutual TLS on the management
// network; transport protection is the operator's choice and orthogonal to
// the credential workflow being reproduced.
func (h *Host) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+pathAttest, func(w http.ResponseWriter, r *http.Request) {
		var req attestRequest
		if err := readJSON(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		nonce, err := base64.StdEncoding.DecodeString(req.NonceB64)
		if err != nil {
			http.Error(w, "nonce not base64", http.StatusBadRequest)
			return
		}
		ev, err := h.Attest(nonce, req.UseTPM)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		body, err := ev.MarshalBinary()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// Binary, not JSON: the IML is the bulk of the reply, and the
		// codec carries it as a length-prefixed copy.
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	})
	mux.HandleFunc("GET "+pathVNFs, func(w http.ResponseWriter, r *http.Request) {
		names, err := h.VNFs()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, names)
	})
	mux.HandleFunc("POST "+pathRAMsg1, func(w http.ResponseWriter, r *http.Request) {
		m1, err := h.VNFRAMsg1(r.PathValue("name"))
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, encodeBytes(m1.Encode()))
	})
	mux.HandleFunc("POST "+pathRAMsg2, func(w http.ResponseWriter, r *http.Request) {
		raw, err := readBytesMsg(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		m2, err := ra.DecodeMsg2(raw)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		m3, err := h.VNFRAMsg2(r.PathValue("name"), m2)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, encodeBytes(m3.Encode()))
	})
	mux.HandleFunc("POST "+pathRAMsg4, func(w http.ResponseWriter, r *http.Request) {
		raw, err := readBytesMsg(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		m4, err := ra.DecodeMsg4(raw)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := h.VNFRAMsg4(r.PathValue("name"), m4); err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST "+pathFrame, func(w http.ResponseWriter, r *http.Request) {
		raw, err := readBytesMsg(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := h.VNFFrame(r.PathValue("name"), raw)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, encodeBytes(resp))
	})
	return mux
}

func readJSON(r *http.Request, v any) error {
	data, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func readBytesMsg(r *http.Request) ([]byte, error) {
	var m bytesMsg
	if err := readJSON(r, &m); err != nil {
		return nil, err
	}
	return m.decode()
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, ErrUnknownVNF) {
		status = http.StatusNotFound
	}
	http.Error(w, err.Error(), status)
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

// maxResponseBytes bounds the body of every agent response the client
// reads.
const maxResponseBytes = 4 << 20

// ErrResponseTooLarge reports an agent response body over the client's
// 4 MiB limit. The client refuses such a reply whole rather than decode
// a truncated one.
var ErrResponseTooLarge = errors.New("host client: response body exceeds 4 MiB")

// postRaw posts body as JSON and returns the body of a 200 reply.
func (c *Client) postRaw(path string, body any) ([]byte, error) {
	var reader io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		reader = bytes.NewReader(buf)
	}
	resp, err := c.http.Post(c.base+path, "application/json", reader)
	if err != nil {
		return nil, fmt.Errorf("host client: POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return nil, fmt.Errorf("host client: POST %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("host client: POST %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// readBody reads a response body of at most maxResponseBytes, sized up
// front from its Content-Length when the agent sent one.
func readBody(resp *http.Response) ([]byte, error) {
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= maxResponseBytes {
		// MinRead spare bytes let the final read see EOF without
		// growing the buffer.
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxResponseBytes+1)); err != nil {
		return nil, err
	}
	if buf.Len() > maxResponseBytes {
		return nil, ErrResponseTooLarge
	}
	return buf.Bytes(), nil
}

func (c *Client) post(path string, body, out any) error {
	data, err := c.postRaw(path, body)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// Attest requests host evidence. The agent replies in the evidence's
// binary encoding.
func (c *Client) Attest(nonce []byte, useTPM bool) (*enclaveapp.HostEvidence, error) {
	data, err := c.postRaw(pathAttest, attestRequest{
		NonceB64: base64.StdEncoding.EncodeToString(nonce), UseTPM: useTPM,
	})
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
	resp, err := c.http.Get(c.base + pathVNFs)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("host client: vnfs status %d", resp.StatusCode)
	}
	data, err := readBody(resp)
	if err != nil {
		return nil, fmt.Errorf("host client: GET %s: %w", pathVNFs, err)
	}
	var names []string
	if err := json.Unmarshal(data, &names); err != nil {
		return nil, err
	}
	return names, nil
}

func vnfPath(template, name string) string {
	return strings.Replace(template, "{name}", name, 1)
}

// VNFRAMsg1 starts the RA exchange remotely.
func (c *Client) VNFRAMsg1(vnf string) (*ra.Msg1, error) {
	var out bytesMsg
	if err := c.post(vnfPath(pathRAMsg1, vnf), nil, &out); err != nil {
		return nil, err
	}
	raw, err := out.decode()
	if err != nil {
		return nil, err
	}
	return ra.DecodeMsg1(raw)
}

// VNFRAMsg2 relays msg2, returning msg3.
func (c *Client) VNFRAMsg2(vnf string, m2 *ra.Msg2) (*ra.Msg3, error) {
	var out bytesMsg
	if err := c.post(vnfPath(pathRAMsg2, vnf), encodeBytes(m2.Encode()), &out); err != nil {
		return nil, err
	}
	raw, err := out.decode()
	if err != nil {
		return nil, err
	}
	return ra.DecodeMsg3(raw)
}

// VNFRAMsg4 relays msg4.
func (c *Client) VNFRAMsg4(vnf string, m4 *ra.Msg4) error {
	return c.post(vnfPath(pathRAMsg4, vnf), encodeBytes(m4.Encode()), nil)
}

// VNFFrame relays a secure-channel frame.
func (c *Client) VNFFrame(vnf string, frame []byte) ([]byte, error) {
	var out bytesMsg
	if err := c.post(vnfPath(pathFrame, vnf), encodeBytes(frame), &out); err != nil {
		return nil, err
	}
	return out.decode()
}
