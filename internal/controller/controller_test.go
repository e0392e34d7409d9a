package controller

import (
	"crypto/tls"
	"crypto/x509"
	"net"
	"strings"
	"testing"
	"time"

	"vnfguard/internal/netsim"
	"vnfguard/internal/pki"
)

// testNet builds h1 -- s1 -- h2 (h1 on port 1, h2 on port 2).
func testNet(t *testing.T) *netsim.Network {
	t.Helper()
	n := netsim.NewNetwork()
	if _, err := n.AddSwitch("00:00:01"); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost("h1", "00:00:01", 1); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost("h2", "00:00:01", 2); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestFlowSpecCompile(t *testing.T) {
	spec := FlowSpec{
		Name: "f1", Switch: "00:00:01", Priority: "100",
		InPort: "1", IPv4Dst: "10.0.0.2", IPProto: "tcp", TCPDst: "80",
		Actions: "output=2",
	}
	e, err := spec.compile()
	if err != nil {
		t.Fatal(err)
	}
	if e.Priority != 100 || e.Match.InPort != 1 || e.Match.DstPort != 80 {
		t.Fatalf("entry = %+v", e)
	}
	if e.Match.IPDst.String() != "10.0.0.2/32" {
		t.Fatalf("ipdst = %v", e.Match.IPDst)
	}
	if len(e.Actions) != 1 || e.Actions[0].Type != netsim.ActionOutput || e.Actions[0].Port != 2 {
		t.Fatalf("actions = %v", e.Actions)
	}
}

func TestFlowSpecCompileErrors(t *testing.T) {
	cases := []FlowSpec{
		{Switch: "s", Actions: "drop"},                                  // no name
		{Name: "f", Actions: "drop"},                                    // no switch
		{Name: "f", Switch: "s"},                                        // no actions
		{Name: "f", Switch: "s", Actions: "teleport"},                   // bad action
		{Name: "f", Switch: "s", Actions: "output=x"},                   // bad port
		{Name: "f", Switch: "s", Actions: "drop", Priority: "high"},     // bad priority
		{Name: "f", Switch: "s", Actions: "drop", IPv4Src: "not-an-ip"}, // bad ip
		{Name: "f", Switch: "s", Actions: "drop", IPProto: "icmpv9"},    // bad proto
		{Name: "f", Switch: "s", Actions: "drop", TCPDst: "99999"},      // bad port range
		{Name: "f", Switch: "s", Actions: "drop", InPort: "one"},        // bad in_port
	}
	for i, spec := range cases {
		if _, err := spec.compile(); err == nil {
			t.Errorf("case %d accepted: %+v", i, spec)
		}
	}
}

func TestPushAndDeleteFlow(t *testing.T) {
	n := testNet(t)
	c := New("ctrl", n)
	spec := FlowSpec{Name: "fwd", Switch: "00:00:01", Priority: "10", Actions: "output=2"}
	if err := c.PushFlow(spec); err != nil {
		t.Fatal(err)
	}
	d, err := n.Inject("00:00:01", 1, netsim.Packet{Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Delivered || d.Host != "h2" {
		t.Fatalf("delivery = %+v", d)
	}
	if err := c.DeleteFlow("fwd"); err != nil {
		t.Fatal(err)
	}
	d, err = n.Inject("00:00:01", 1, netsim.Packet{Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if d.Delivered {
		t.Fatal("flow survived deletion")
	}
	if err := c.DeleteFlow("fwd"); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestPushFlowUnknownSwitch(t *testing.T) {
	c := New("ctrl", testNet(t))
	err := c.PushFlow(FlowSpec{Name: "f", Switch: "ghost", Actions: "drop"})
	if err == nil {
		t.Fatal("unknown switch accepted")
	}
}

func TestSummaryCounts(t *testing.T) {
	n := testNet(t)
	c := New("ctrl", n)
	c.PushFlow(FlowSpec{Name: "f", Switch: "00:00:01", Actions: "drop"})
	s := c.Summary()
	if s.Switches != 1 || s.Hosts != 2 || s.StaticFlows != 1 {
		t.Fatalf("summary = %+v", s)
	}
}

// startServer spins a controller endpoint in the given mode, returning a
// ready client factory.
func startServer(t *testing.T, mode SecurityMode, trust TrustModel) (*Controller, *Server, *pki.CA) {
	t.Helper()
	ca, err := pki.NewCA("vm-ca", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	serverKey, err := pki.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	serverCert, err := ca.IssueServerCert("controller", []string{"controller"}, []net.IP{net.IPv4(127, 0, 0, 1)}, &serverKey.PublicKey, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := New("ctrl", testNet(t))
	cfg := ServerConfig{
		Mode:  mode,
		Cert:  tls.Certificate{Certificate: [][]byte{serverCert.Raw}, PrivateKey: serverKey},
		Trust: trust,
		Revoked: func(cert *x509.Certificate) error {
			if ca.IsRevoked(cert.SerialNumber) {
				return pki.ErrRevoked
			}
			return nil
		},
	}
	if trust == TrustCA {
		cfg.ClientCAs = ca.Pool()
	}
	srv, err := Serve(ctrl, cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return ctrl, srv, ca
}

// clientCert issues a client certificate + tls.Certificate for tests.
func clientCert(t *testing.T, ca *pki.CA, cn string) (tls.Certificate, *x509.Certificate) {
	t.Helper()
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
	return tls.Certificate{Certificate: [][]byte{cert.Raw}, PrivateKey: key}, cert
}

func TestHTTPMode(t *testing.T) {
	ctrl, srv, _ := startServer(t, ModeHTTP, TrustCA)
	client := NewClient(srv.URL(), nil)
	healthy, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if !healthy {
		t.Fatal("unhealthy")
	}
	if err := client.PushFlow(FlowSpec{Name: "f", Switch: "00:00:01", Actions: "output=2"}); err != nil {
		t.Fatal(err)
	}
	if ctrl.Requests() < 2 {
		t.Fatalf("requests = %d", ctrl.Requests())
	}
}

func TestHTTPSModeRequiresServerTrust(t *testing.T) {
	_, srv, ca := startServer(t, ModeHTTPS, TrustCA)
	// Without the CA the handshake fails.
	bad := NewClient(srv.URL(), &tls.Config{ServerName: "controller"})
	if _, err := bad.Health(); err == nil {
		t.Fatal("untrusted server accepted")
	}
	good := NewClient(srv.URL(), &tls.Config{RootCAs: ca.Pool(), ServerName: "controller"})
	if _, err := good.Health(); err != nil {
		t.Fatal(err)
	}
}

func TestTrustedHTTPSRejectsNoCert(t *testing.T) {
	_, srv, ca := startServer(t, ModeTrustedHTTPS, TrustCA)
	client := NewClient(srv.URL(), &tls.Config{RootCAs: ca.Pool(), ServerName: "controller"})
	if _, err := client.Health(); err == nil {
		t.Fatal("certificate-less client accepted in trusted mode")
	}
}

func TestTrustedHTTPSAcceptsCAClient(t *testing.T) {
	ctrl, srv, ca := startServer(t, ModeTrustedHTTPS, TrustCA)
	cert, _ := clientCert(t, ca, "vnf-1")
	client := NewClient(srv.URL(), &tls.Config{
		RootCAs: ca.Pool(), ServerName: "controller", Certificates: []tls.Certificate{cert},
	})
	if err := client.PushFlow(FlowSpec{Name: "f", Switch: "00:00:01", Actions: "output=2"}); err != nil {
		t.Fatal(err)
	}
	// The flow records its authenticated pusher.
	flows := ctrl.FlowsOn("00:00:01")
	if len(flows) != 1 || flows[0].PushedBy != "vnf-1" {
		t.Fatalf("flows = %+v", flows)
	}
}

func TestTrustedHTTPSRejectsForeignCA(t *testing.T) {
	_, srv, _ := startServer(t, ModeTrustedHTTPS, TrustCA)
	otherCA, err := pki.NewCA("rogue", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cert, _ := clientCert(t, otherCA, "impostor")
	// Client trusts the right server but presents a foreign-CA cert.
	client := NewClient(srv.URL(), &tls.Config{
		InsecureSkipVerify: true, // isolate client-auth failure
		Certificates:       []tls.Certificate{cert},
	})
	if _, err := client.Health(); err == nil {
		t.Fatal("foreign-CA client accepted")
	}
}

func TestTrustedHTTPSRevocation(t *testing.T) {
	_, srv, ca := startServer(t, ModeTrustedHTTPS, TrustCA)
	cert, parsed := clientCert(t, ca, "vnf-1")
	mk := func() *Client {
		return NewClient(srv.URL(), &tls.Config{
			RootCAs: ca.Pool(), ServerName: "controller", Certificates: []tls.Certificate{cert},
		})
	}
	if _, err := mk().Health(); err != nil {
		t.Fatal(err)
	}
	ca.Revoke(parsed.SerialNumber)
	if _, err := mk().Health(); err == nil {
		t.Fatal("revoked client accepted")
	}
}

func TestKeystoreMode(t *testing.T) {
	_, srv, ca := startServer(t, ModeTrustedHTTPS, TrustKeystore)
	cert, parsed := clientCert(t, ca, "vnf-1")
	cfg := &tls.Config{RootCAs: ca.Pool(), ServerName: "controller", Certificates: []tls.Certificate{cert}}
	// Not pinned yet → rejected even though the CA signed it.
	if _, err := NewClient(srv.URL(), cfg).Health(); err == nil {
		t.Fatal("unpinned client accepted in keystore mode")
	}
	srv.PinCertificate(parsed)
	if _, err := NewClient(srv.URL(), cfg).Health(); err != nil {
		t.Fatalf("pinned client rejected: %v", err)
	}
}

func TestRESTFlowLifecycleOverHTTP(t *testing.T) {
	_, srv, _ := startServer(t, ModeHTTP, TrustCA)
	client := NewClient(srv.URL(), nil)
	spec := FlowSpec{Name: "fw-allow-web", Switch: "00:00:01", Priority: "50",
		IPProto: "tcp", TCPDst: "443", Actions: "output=2"}
	if err := client.PushFlow(spec); err != nil {
		t.Fatal(err)
	}
	flows, err := client.ListFlows("00:00:01")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := flows["fw-allow-web"]; !ok {
		t.Fatalf("flows = %v", flows)
	}
	links, err := client.Links()
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 0 {
		t.Fatalf("links = %v", links)
	}
	sum, err := client.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.StaticFlows != 1 || sum.Hosts != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	if err := client.DeleteFlow("fw-allow-web"); err != nil {
		t.Fatal(err)
	}
	if err := client.DeleteFlow("fw-allow-web"); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("second delete: %v", err)
	}
}

func TestRESTRejectsMalformedFlow(t *testing.T) {
	_, srv, _ := startServer(t, ModeHTTP, TrustCA)
	client := NewClient(srv.URL(), nil)
	err := client.PushFlow(FlowSpec{Name: "bad", Switch: "00:00:01", Actions: "fly"})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("malformed flow: %v", err)
	}
}

// TestRepushOtherSwitch pushes one name to two switches in turn. Names are
// unique across the deployment, so the entry moves: the first switch must
// not keep a copy that no REST call can list or remove.
func TestRepushOtherSwitch(t *testing.T) {
	n := testNet(t)
	if _, err := n.AddSwitch("00:00:02"); err != nil {
		t.Fatal(err)
	}
	c := New("ctrl", n)
	for _, dpid := range []string{"00:00:01", "00:00:02"} {
		if err := c.PushFlow(FlowSpec{Name: "x", Switch: dpid, Actions: "output=2"}); err != nil {
			t.Fatal(err)
		}
	}
	held := func(dpid string) int {
		s, err := n.Switch(dpid)
		if err != nil {
			t.Fatal(err)
		}
		return len(s.Flows())
	}
	if held("00:00:01") != 0 || len(c.FlowsOn("00:00:01")) != 0 {
		t.Fatalf("first switch still holds the re-pushed entry: %d installed", held("00:00:01"))
	}
	if held("00:00:02") != 1 || len(c.FlowsOn("00:00:02")) != 1 || c.Summary().StaticFlows != 1 {
		t.Fatalf("second switch: %d installed, %d listed, summary %+v", held("00:00:02"), len(c.FlowsOn("00:00:02")), c.Summary())
	}
	if err := c.DeleteFlow("x"); err != nil {
		t.Fatal(err)
	}
	if held("00:00:01")+held("00:00:02") != 0 || c.Summary().StaticFlows != 0 {
		t.Fatalf("after delete: %d + %d installed", held("00:00:01"), held("00:00:02"))
	}
	// A failed move leaves the entry where it was.
	if err := c.PushFlow(FlowSpec{Name: "y", Switch: "00:00:01", Actions: "drop"}); err != nil {
		t.Fatal(err)
	}
	if err := c.PushFlow(FlowSpec{Name: "y", Switch: "ghost", Actions: "drop"}); err == nil {
		t.Fatal("push to an unknown switch accepted")
	}
	if held("00:00:01") != 1 || len(c.FlowsOn("00:00:01")) != 1 {
		t.Fatalf("failed move dropped the entry: %d installed", held("00:00:01"))
	}
}
