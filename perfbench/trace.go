package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/x509"
	"encoding/json"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"vnfguard/internal/controller"
	"vnfguard/internal/core"
	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/epid"
	"vnfguard/internal/ias"
	"vnfguard/internal/ra"
	"vnfguard/internal/translog"
	"vnfguard/internal/verifier"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer started; Parent is the index of the enclosing span of
// the same client (-1 for an operation's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Client int    `json:"client"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the traced run. Every client runs one
// operation at a time (closed loop), so a span's parent is the innermost
// span its client has open — whether the call runs on the client's own
// goroutine or on a server goroutine serving that client's request.
// Spans are kept from a client's first startOp on, so set-up and warm-up
// calls leave none.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	state  []clientState
	gids   map[uint64]int
	owners sync.Map // VNF name or credential serial -> client
}

type clientState struct {
	op    int64
	on    bool
	stack []int
}

func newTracer(clients int) *tracer {
	return &tracer{t0: time.Now(), state: make([]clientState, clients), gids: make(map[uint64]int)}
}

// bind records that the calling goroutine drives client c.
func (t *tracer) bind(c int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.gids[goid()] = c
	t.mu.Unlock()
}

// current reports the client the calling goroutine drives.
func (t *tracer) current() (int, bool) {
	id := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.gids[id]
	return c, ok
}

// own attributes a VNF name or serial to client c.
func (t *tracer) own(key string, c int) {
	if t != nil {
		t.owners.Store(key, c)
	}
}

func (t *tracer) ownerOf(key string) (int, bool) {
	c, ok := t.owners.Load(key)
	if !ok {
		return 0, false
	}
	return c.(int), true
}

// startOp marks the start of client c's next operation.
func (t *tracer) startOp(c int, op int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.state[c] = clientState{op: op, on: true}
	t.mu.Unlock()
}

// begin opens a span for client c and returns its index, or -1 before
// the client's first operation.
func (t *tracer) begin(c int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &t.state[c]
	if !st.on {
		return -1
	}
	parent := -1
	if n := len(st.stack); n > 0 {
		parent = st.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: st.op, Client: c})
	i := len(t.spans) - 1
	st.stack = append(st.stack, i)
	return i
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	st := &t.state[t.spans[i].Client]
	for k := len(st.stack) - 1; k >= 0; k-- {
		if st.stack[k] == i {
			st.stack = append(st.stack[:k], st.stack[k+1:]...)
			break
		}
	}
}

// timed runs fn inside a span of client c.
func timed[T any](t *tracer, c int, name string, fn func() (T, error)) (T, error) {
	i := t.begin(c, name)
	defer t.end(i)
	return fn()
}

// timedHere runs fn inside a span of the client the calling goroutine
// drives (no span on a goroutine bound to none).
func timedHere[T any](t *tracer, name string, fn func() (T, error)) (T, error) {
	c, ok := t.current()
	i := t.spanFor(c, ok, name)
	defer t.end(i)
	return fn()
}

// spanFor opens a span for the client resolved by who (no span when the
// call cannot be attributed).
func (t *tracer) spanFor(c int, ok bool, name string) int {
	if !ok {
		return -1
	}
	return t.begin(c, name)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid is the calling goroutine's id, parsed from its stack header
// ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[:n])
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

// ---- decorators on the seams between layers ---------------------------------

// tracedHost times the Verification Manager's calls into one host agent.
// The VM calls host agents on the goroutine of the client driving it.
type tracedHost struct {
	next verifier.HostConn
	tr   *tracer
}

func (h *tracedHost) Attest(nonce []byte, useTPM bool) (*enclaveapp.HostEvidence, error) {
	return timedHere(h.tr, "host.attest", func() (*enclaveapp.HostEvidence, error) { return h.next.Attest(nonce, useTPM) })
}

func (h *tracedHost) VNFs() ([]string, error) {
	return timedHere(h.tr, "host.vnfs", h.next.VNFs)
}

func (h *tracedHost) VNFRAMsg1(vnf string) (*ra.Msg1, error) {
	return timedHere(h.tr, "host.ra_msg1", func() (*ra.Msg1, error) { return h.next.VNFRAMsg1(vnf) })
}

func (h *tracedHost) VNFRAMsg2(vnf string, m2 *ra.Msg2) (*ra.Msg3, error) {
	return timedHere(h.tr, "host.ra_msg2", func() (*ra.Msg3, error) { return h.next.VNFRAMsg2(vnf, m2) })
}

func (h *tracedHost) VNFRAMsg4(vnf string, m4 *ra.Msg4) error {
	_, err := timedHere(h.tr, "host.ra_msg4", func() (struct{}, error) { return struct{}{}, h.next.VNFRAMsg4(vnf, m4) })
	return err
}

func (h *tracedHost) VNFFrame(vnf string, frame []byte) ([]byte, error) {
	return timedHere(h.tr, "host.frame", func() ([]byte, error) { return h.next.VNFFrame(vnf, frame) })
}

// tracedIAS times the Verification Manager's attestation-service calls.
// The VM calls IAS on the goroutine of the client driving it.
type tracedIAS struct {
	next ias.QuoteVerifier
	tr   *tracer
}

func (q *tracedIAS) VerifyQuote(quote []byte, nonce string) (*ias.AVR, error) {
	return timedHere(q.tr, "ias.verify", func() (*ias.AVR, error) { return q.next.VerifyQuote(quote, nonce) })
}

func (q *tracedIAS) SigRL(gid epid.GroupID) ([][32]byte, error) {
	return timedHere(q.tr, "ias.sigrl", func() ([][32]byte, error) { return q.next.SigRL(gid) })
}

// tracedProofs times credential-proof reads; who attributes a serial to
// a client.
type tracedProofs struct {
	next translog.ProofSource
	tr   *tracer
	who  func(serial string) (int, bool)
}

func (p *tracedProofs) ProveSerial(serial string) (*translog.ProofBundle, error) {
	c, ok := p.who(serial)
	i := p.tr.spanFor(c, ok, "translog.prove_serial")
	defer p.tr.end(i)
	return p.next.ProveSerial(serial)
}

// certHook times a controller certificate hook (ServerConfig.Revoked or
// ServerConfig.CredentialLog); it runs on the controller's goroutine for
// the client whose certificate it checks.
func (t *tracer) certHook(name string, next func(*x509.Certificate) error) func(*x509.Certificate) error {
	return func(cert *x509.Certificate) error {
		c, ok := t.ownerOf(certName(cert))
		i := t.spanFor(c, ok, name)
		defer t.end(i)
		return next(cert)
	}
}

// tracedClient is the controller client of a VNF whose TLS session runs
// in its credential enclave, as vnf.NewInstance builds it in
// full-session mode, with the enclave handshake timed.
func (t *tracer) tracedClient(c int, ce *enclaveapp.CredentialEnclave, url string) *controller.Client {
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		raw, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		i := t.begin(c, "enclaveapp.handshake")
		conn, err := ce.DialTLS(raw, core.ServerName)
		t.end(i)
		if err != nil {
			raw.Close()
			return nil, err
		}
		return conn, nil
	}
	return controller.NewClientWithDialer(url, dial)
}
