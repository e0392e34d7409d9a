package controller

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"vnfguard/internal/netsim"
)

func TestDevicesEndpoint(t *testing.T) {
	c := New("ctrl", testNet(t))
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + PathDevices)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var devices []struct {
		Host string `json:"host"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&devices); err != nil {
		t.Fatal(err)
	}
	if len(devices) != 2 || devices[0].Host != "h1" {
		t.Fatalf("devices = %v", devices)
	}
}

func TestPrincipalEmptyWithoutTLS(t *testing.T) {
	c := New("ctrl", testNet(t))
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	body := strings.NewReader(`{"name":"f","switch":"00:00:01","actions":"output=2"}`)
	resp, err := http.Post(srv.URL+PathStaticFlow, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	flows := c.FlowsOn("00:00:01")
	if len(flows) != 1 || flows[0].PushedBy != "" {
		t.Fatalf("flows = %+v", flows)
	}
}

func TestFlowListUnknownSwitchEmpty(t *testing.T) {
	c := New("ctrl", testNet(t))
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + PathFlowList + "ghost/json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]map[string]FlowSpec
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out["ghost"]) != 0 {
		t.Fatalf("out = %v", out)
	}
}

func TestDeleteFlowMalformedBody(t *testing.T) {
	c := New("ctrl", testNet(t))
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	req, err := http.NewRequest(http.MethodDelete, srv.URL+PathStaticFlow, strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestPacketInCounting(t *testing.T) {
	n := testNet(t)
	c := New("ctrl", n)
	// Table miss punts to the controller via the installed handler.
	if _, err := n.Inject("00:00:01", 1, netsim.Packet{Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if c.PacketIns() != 1 {
		t.Fatalf("packet-ins = %d", c.PacketIns())
	}
}

// TestResponseTooLarge refuses a reply over 1 MiB whole, with or without
// a Content-Length, instead of decoding a truncated document; a reply of
// exactly 1 MiB still reads.
func TestResponseTooLarge(t *testing.T) {
	for _, tc := range []struct {
		name   string
		size   int
		length bool
	}{
		{"chunked", maxReplyBytes + 1, false},
		{"content-length", maxReplyBytes + 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.length {
					w.Header().Set("Content-Length", strconv.Itoa(tc.size))
				}
				w.Write([]byte(`{"# Switches":1`))
				w.Write([]byte(strings.Repeat(" ", tc.size-len(`{"# Switches":1}`))))
				w.Write([]byte(`}`))
			}))
			defer srv.Close()
			if _, err := NewClient(srv.URL, nil).Summary(); !errors.Is(err, ErrResponseTooLarge) {
				t.Fatalf("got %v, want ErrResponseTooLarge", err)
			}
		})
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"# Switches":1` + strings.Repeat(" ", maxReplyBytes-len(`{"# Switches":1}`)) + `}`))
	}))
	defer srv.Close()
	if s, err := NewClient(srv.URL, nil).Summary(); err != nil || s.Switches != 1 {
		t.Fatalf("1 MiB reply: %+v, %v", s, err)
	}
}

// TestRequestBodyTooLarge: a well-formed push or delete body over the
// handler's cap is refused whole with 413, not decoded truncated and
// called malformed; a body at the cap still reaches the decoder.
func TestRequestBodyTooLarge(t *testing.T) {
	c := New("ctrl", testNet(t))
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	send := func(method, body string) int {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+PathStaticFlow, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// padded returns a document of exactly size bytes whose name field
	// fills the room the rest leaves.
	padded := func(size int, pre, post string) string {
		return pre + strings.Repeat("a", size-len(pre)-len(post)) + post
	}
	const pushPre, pushPost = `{"name":"`, `","switch":"00:00:01","actions":"output=2"}`
	const delPre, delPost = `{"name":"`, `"}`
	for _, tc := range []struct {
		name   string
		method string
		body   string
		want   int
	}{
		{"push over 1 MiB", http.MethodPost, padded(1<<20+1, pushPre, pushPost), http.StatusRequestEntityTooLarge},
		{"push at 1 MiB", http.MethodPost, padded(1<<20, pushPre, pushPost), http.StatusOK},
		{"delete over 64 KiB", http.MethodDelete, padded(1<<16+1, delPre, delPost), http.StatusRequestEntityTooLarge},
		{"delete at 64 KiB", http.MethodDelete, padded(1<<16, delPre, delPost), http.StatusNotFound},
	} {
		if got := send(tc.method, tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
}
