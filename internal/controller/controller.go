// Package controller implements the network controller of the paper's
// deployment: a Floodlight-like SDN controller exposing a north-bound REST
// API with Floodlight's three security modes — non-secure HTTP, HTTPS, and
// trusted HTTPS with client authentication. In trusted mode the controller
// validates client certificates against a trusted certificate authority
// (the Verification Manager's CA) instead of a per-certificate keystore,
// exactly the key-management fix §3 of the paper describes; keystore mode
// is retained as an ablation (experiment E4).
package controller

import (
	"fmt"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vnfguard/internal/netsim"
)

// Controller is the SDN controller core: the forwarding-plane handle plus
// the static-flow-pusher store and device/usage accounting.
type Controller struct {
	name    string
	network *netsim.Network
	started time.Time

	// mu orders static-flow changes with the data plane they program.
	mu sync.RWMutex
	// flows holds each switch's static flow entries sorted by name;
	// switchOf maps an entry name to its switch (Floodlight's static flow
	// pusher is name-keyed across the deployment).
	flows    map[string][]FlowSpec
	switchOf map[string]string
	// packetIns counts southbound punts.
	packetIns atomic.Uint64
	// requests counts REST calls served.
	requests atomic.Uint64
}

// New creates a controller managing the given forwarding plane.
func New(name string, network *netsim.Network) *Controller {
	c := &Controller{
		name:     name,
		network:  network,
		started:  time.Now(),
		flows:    make(map[string][]FlowSpec),
		switchOf: make(map[string]string),
	}
	network.SetPacketInHandler(func(dpid string, inPort int, pkt netsim.Packet) {
		c.packetIns.Add(1)
	})
	return c
}

// Name returns the controller's name.
func (c *Controller) Name() string { return c.name }

// Network returns the managed forwarding plane.
func (c *Controller) Network() *netsim.Network { return c.network }

// PacketIns reports punted packets.
func (c *Controller) PacketIns() uint64 { return c.packetIns.Load() }

// Requests reports REST calls served.
func (c *Controller) Requests() uint64 { return c.requests.Load() }

// FlowSpec is the static-flow-pusher JSON entry, following Floodlight's
// string-typed field conventions.
type FlowSpec struct {
	Name     string `json:"name"`
	Switch   string `json:"switch"`
	Priority string `json:"priority,omitempty"`
	InPort   string `json:"in_port,omitempty"`
	EthSrc   string `json:"eth_src,omitempty"`
	EthDst   string `json:"eth_dst,omitempty"`
	IPv4Src  string `json:"ipv4_src,omitempty"`
	IPv4Dst  string `json:"ipv4_dst,omitempty"`
	IPProto  string `json:"ip_proto,omitempty"`
	TCPSrc   string `json:"tcp_src,omitempty"`
	TCPDst   string `json:"tcp_dst,omitempty"`
	Actions  string `json:"actions"` // "output=2", "drop", "controller", comma-separated
	// PushedBy records the authenticated principal (client certificate
	// CN) in trusted mode; audit trail for enrollment experiments.
	PushedBy string `json:"pushed_by,omitempty"`
}

// compile translates the spec into a netsim flow entry.
func (s *FlowSpec) compile() (netsim.FlowEntry, error) {
	e := netsim.FlowEntry{Name: s.Name, Priority: 32768}
	if s.Name == "" {
		return e, fmt.Errorf("controller: flow entry requires a name")
	}
	if s.Switch == "" {
		return e, fmt.Errorf("controller: flow entry requires a switch")
	}
	if s.Priority != "" {
		p, err := strconv.Atoi(s.Priority)
		if err != nil {
			return e, fmt.Errorf("controller: priority %q: %w", s.Priority, err)
		}
		e.Priority = p
	}
	var m netsim.Match
	if s.InPort != "" {
		p, err := strconv.Atoi(s.InPort)
		if err != nil {
			return e, fmt.Errorf("controller: in_port %q: %w", s.InPort, err)
		}
		m.InPort = p
	}
	m.EthSrc, m.EthDst = s.EthSrc, s.EthDst
	if s.IPv4Src != "" {
		p, err := parsePrefix(s.IPv4Src)
		if err != nil {
			return e, err
		}
		m.IPSrc = p
	}
	if s.IPv4Dst != "" {
		p, err := parsePrefix(s.IPv4Dst)
		if err != nil {
			return e, err
		}
		m.IPDst = p
	}
	switch strings.ToLower(s.IPProto) {
	case "":
	case "tcp", "0x06", "6":
		m.Proto = netsim.ProtoTCP
	case "udp", "0x11", "17":
		m.Proto = netsim.ProtoUDP
	default:
		return e, fmt.Errorf("controller: ip_proto %q unsupported", s.IPProto)
	}
	if s.TCPSrc != "" {
		p, err := strconv.ParseUint(s.TCPSrc, 10, 16)
		if err != nil {
			return e, fmt.Errorf("controller: tcp_src %q: %w", s.TCPSrc, err)
		}
		m.SrcPort = uint16(p)
	}
	if s.TCPDst != "" {
		p, err := strconv.ParseUint(s.TCPDst, 10, 16)
		if err != nil {
			return e, fmt.Errorf("controller: tcp_dst %q: %w", s.TCPDst, err)
		}
		m.DstPort = uint16(p)
	}
	e.Match = m

	if s.Actions == "" {
		return e, fmt.Errorf("controller: flow entry requires actions")
	}
	for _, raw := range strings.Split(s.Actions, ",") {
		raw = strings.TrimSpace(raw)
		switch {
		case raw == "drop":
			e.Actions = append(e.Actions, netsim.Action{Type: netsim.ActionDrop})
		case raw == "controller":
			e.Actions = append(e.Actions, netsim.Action{Type: netsim.ActionController})
		case strings.HasPrefix(raw, "output="):
			p, err := strconv.Atoi(strings.TrimPrefix(raw, "output="))
			if err != nil {
				return e, fmt.Errorf("controller: action %q: %w", raw, err)
			}
			e.Actions = append(e.Actions, netsim.Action{Type: netsim.ActionOutput, Port: p})
		default:
			return e, fmt.Errorf("controller: action %q unsupported", raw)
		}
	}
	return e, nil
}

func parsePrefix(s string) (netip.Prefix, error) {
	if !strings.Contains(s, "/") {
		s += "/32"
	}
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return netip.Prefix{}, fmt.Errorf("controller: address %q: %w", s, err)
	}
	return p, nil
}

// PushFlow validates and installs a static flow entry. Names are unique
// across the deployment: pushing a name that lives on another switch
// moves the entry there.
func (c *Controller) PushFlow(spec FlowSpec) error {
	entry, err := spec.compile()
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.network.InstallFlow(spec.Switch, entry); err != nil {
		return err
	}
	if old, ok := c.switchOf[spec.Name]; ok && old != spec.Switch {
		c.unindex(old, spec.Name)
		// The index held the entry, so the old switch does too.
		c.network.RemoveFlow(old, spec.Name)
	}
	c.switchOf[spec.Name] = spec.Switch
	flows := c.flows[spec.Switch]
	i, found := slices.BinarySearchFunc(flows, spec.Name, byName)
	if found {
		flows[i] = spec
	} else {
		c.flows[spec.Switch] = slices.Insert(flows, i, spec)
	}
	return nil
}

// DeleteFlow removes a static flow entry by name.
func (c *Controller) DeleteFlow(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	dpid, ok := c.switchOf[name]
	if !ok {
		return fmt.Errorf("controller: no static flow %q", name)
	}
	delete(c.switchOf, name)
	c.unindex(dpid, name)
	return c.network.RemoveFlow(dpid, name)
}

// unindex drops name from dpid's entries; c.mu is held.
func (c *Controller) unindex(dpid, name string) {
	flows := c.flows[dpid]
	if i, found := slices.BinarySearchFunc(flows, name, byName); found {
		flows = slices.Delete(flows, i, i+1)
	}
	if len(flows) == 0 {
		delete(c.flows, dpid)
	} else {
		c.flows[dpid] = flows
	}
}

func byName(s FlowSpec, name string) int { return strings.Compare(s.Name, name) }

// FlowsOn lists static flow entries for one switch, sorted by name.
func (c *Controller) FlowsOn(dpid string) []FlowSpec {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return slices.Clone(c.flows[dpid])
}

// flowListReply encodes the flow-list reply for one switch.
func (c *Controller) flowListReply(dpid string) []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	flows := c.flows[dpid]
	return appendFlowList(make([]byte, 0, 64+256*len(flows)), dpid, flows)
}

// Summary mirrors Floodlight's controller summary resource.
type Summary struct {
	Switches         int `json:"# Switches"`
	Hosts            int `json:"# hosts"`
	InterSwitchLinks int `json:"# inter-switch links"`
	StaticFlows      int `json:"# static flows"`
}

// Summary reports deployment counts.
func (c *Controller) Summary() Summary {
	c.mu.RLock()
	flows := len(c.switchOf)
	c.mu.RUnlock()
	return Summary{
		Switches:         len(c.network.Switches()),
		Hosts:            len(c.network.Hosts()),
		InterSwitchLinks: len(c.network.Links()),
		StaticFlows:      flows,
	}
}

// Uptime reports time since construction.
func (c *Controller) Uptime() time.Duration { return time.Since(c.started) }
