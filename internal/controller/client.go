package controller

import (
	"bytes"
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"

	"vnfguard/internal/httpbody"
	"vnfguard/internal/netsim"
)

// Client is a north-bound REST client (what a VNF uses to talk to the
// controller, step 6 of the workflow).
type Client struct {
	base string
	http *http.Client
}

// NewClient builds a client. tlsCfg may be nil for plain HTTP endpoints;
// for trusted-HTTPS it should come from the credential enclave
// (enclaveapp.ClientTLSConfig) so the private key stays enclave-resident.
func NewClient(baseURL string, tlsCfg *tls.Config) *Client {
	transport := &http.Transport{TLSClientConfig: tlsCfg}
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		http: &http.Client{Transport: transport},
	}
}

// NewClientWithDialer builds a client whose TLS connections are produced
// by dial — used for full-session-in-enclave mode, where the dialer
// returns an enclave-managed connection and the HTTP layer never sees key
// material or session state.
func NewClientWithDialer(baseURL string, dial func(ctx context.Context, network, addr string) (net.Conn, error)) *Client {
	transport := &http.Transport{
		DialTLSContext: dial,
		// The in-enclave session is established per connection; disable
		// idle pooling so transitions are attributable per request burst.
		DisableKeepAlives: false,
	}
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		http: &http.Client{Transport: transport},
	}
}

// CloseIdle releases pooled connections.
func (c *Client) CloseIdle() { c.http.CloseIdleConnections() }

// maxReplyBytes bounds the body of every controller reply the client
// reads.
const maxReplyBytes = 1 << 20

// ErrResponseTooLarge reports a controller reply body over 1 MiB; the
// client refuses it whole rather than decode a truncated document.
var ErrResponseTooLarge = httpbody.ErrResponseTooLarge

// do sends one request with an already encoded body and returns the body
// of a 200 reply.
func (c *Client) do(method, path string, body []byte) ([]byte, error) {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, reader)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("controller client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := httpbody.ReadReply(resp, maxReplyBytes)
	if err != nil {
		return nil, fmt.Errorf("controller client: %s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("controller client: %s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// get fetches path and decodes its reply with strict, falling back to
// encoding/json.
func get[T any](c *Client, path string, strict func(*reader) (T, bool)) (T, error) {
	data, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := decode(data, strict)
	if err != nil {
		return v, fmt.Errorf("controller client: decoding %s: %w", path, err)
	}
	return v, nil
}

// Summary fetches deployment counts.
func (c *Client) Summary() (Summary, error) {
	return get(c, PathSummary, readSummary)
}

// Health checks the controller health resource.
func (c *Client) Health() (bool, error) {
	out, err := get[map[string]bool](c, PathHealth, nil)
	return out["healthy"], err
}

// Links fetches the topology links.
func (c *Client) Links() ([]netsim.LinkInfo, error) {
	return get(c, PathLinks, readLinks)
}

// PushFlow installs a static flow entry.
func (c *Client) PushFlow(spec FlowSpec) error {
	_, err := c.do(http.MethodPost, PathStaticFlow, appendFlowSpec(make([]byte, 0, 256), &spec))
	return err
}

// DeleteFlow removes a static flow entry by name.
func (c *Client) DeleteFlow(name string) error {
	_, err := c.do(http.MethodDelete, PathStaticFlow, appendNamed(make([]byte, 0, 16+len(name)), "name", name))
	return err
}

// ListFlows fetches static flows on one switch.
func (c *Client) ListFlows(dpid string) (map[string]FlowSpec, error) {
	out, err := get(c, PathFlowList+dpid+"/json", readFlowList)
	if err != nil {
		return nil, err
	}
	return out[dpid], nil
}
