package controller

import (
	"encoding/json"
	"strconv"
	"strings"

	"vnfguard/internal/netsim"
)

// The Floodlight REST wire's one codec, used by both the controller's
// handlers and Client.
//
// The encoder appends exactly the bytes encoding/json writes for the same
// value: json.Marshal's for request bodies, and json.NewEncoder(w).Encode's
// (trailing newline included) for replies, via writeReply. A string of
// plain printable ASCII is copied as-is; any other string is encoded by
// json.Marshal itself, so HTML escaping, U+2028/U+2029 and invalid UTF-8
// come out as before.
//
// The decoder is strict: it accepts only the canonical form the encoder
// writes — no whitespace but one trailing newline, no escapes, no
// non-ASCII, keys exactly as tagged and in struct order, map keys sorted
// and unique, every value of its field's JSON type. It declines anything
// else, and decode hands that document to encoding/json, so a real
// Floodlight or a hand-written client decodes exactly as before.

// flowKeys are FlowSpec's JSON keys in struct order (FlowSpec.fields
// returns the fields in the same order); flowOmitEmpty marks the
// omitempty ones.
var (
	flowKeys = [...]string{"name", "switch", "priority", "in_port", "eth_src", "eth_dst",
		"ipv4_src", "ipv4_dst", "ip_proto", "tcp_src", "tcp_dst", "actions", "pushed_by"}
	flowOmitEmpty = [len(flowKeys)]bool{2: true, 3: true, 4: true, 5: true, 6: true,
		7: true, 8: true, 9: true, 10: true, 12: true}
)

func (s *FlowSpec) fields() [len(flowKeys)]*string {
	return [...]*string{&s.Name, &s.Switch, &s.Priority, &s.InPort, &s.EthSrc, &s.EthDst,
		&s.IPv4Src, &s.IPv4Dst, &s.IPProto, &s.TCPSrc, &s.TCPDst, &s.Actions, &s.PushedBy}
}

// summaryKeys and linkKeys are Summary's and netsim.LinkInfo's JSON keys
// in struct order.
var (
	summaryKeys = [...]string{"# Switches", "# hosts", "# inter-switch links", "# static flows"}
	linkKeys    = [...]string{"src-switch", "src-port", "dst-switch", "dst-port"}
)

func (s *Summary) fields() [len(summaryKeys)]*int {
	return [...]*int{&s.Switches, &s.Hosts, &s.InterSwitchLinks, &s.StaticFlows}
}

// copyable marks the bytes encoding/json copies verbatim into a string:
// printable ASCII but '"', '\\' and the HTML-escaped '<', '>', '&'.
// readable marks the bytes the strict decoder takes inside a string: the
// same, with '<', '>' and '&' allowed.
var copyable, readable = func() (c, r [256]bool) {
	for b := 0x20; b <= 0x7e; b++ {
		c[b], r[b] = true, true
	}
	c['"'], c['\\'], c['<'], c['>'], c['&'] = false, false, false, false, false
	r['"'], r['\\'] = false, false
	return c, r
}()

// plain reports whether encoding/json copies s verbatim between quotes.
func plain(s string) bool {
	for _, c := range []byte(s) {
		if !copyable[c] {
			return false
		}
	}
	return true
}

func appendString(b []byte, s string) []byte {
	if !plain(s) {
		q, _ := json.Marshal(s) // marshalling a string cannot fail
		return append(b, q...)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendKey appends a key the codec defines; none needs escaping.
func appendKey(b []byte, key string) []byte {
	b = append(b, '"')
	b = append(b, key...)
	return append(b, '"', ':')
}

func appendFlowSpec(b []byte, s *FlowSpec) []byte {
	b = append(b, '{')
	for i, f := range s.fields() {
		if *f == "" && flowOmitEmpty[i] {
			continue
		}
		if i > 0 { // name is never omitted, so every later field follows one
			b = append(b, ',')
		}
		b = appendString(appendKey(b, flowKeys[i]), *f)
	}
	return append(b, '}')
}

// appendFlowList appends the flow-list document {dpid:{name:spec}} for
// flows sorted by name (encoding/json's map key order).
func appendFlowList(b []byte, dpid string, flows []FlowSpec) []byte {
	b = appendString(append(b, '{'), dpid)
	b = append(b, ':', '{')
	for i := range flows {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, flows[i].Name)
		b = appendFlowSpec(append(b, ':'), &flows[i])
	}
	return append(b, '}', '}')
}

func appendSummary(b []byte, s Summary) []byte {
	b = append(b, '{')
	for i, f := range s.fields() {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(appendKey(b, summaryKeys[i]), int64(*f), 10)
	}
	return append(b, '}')
}

func appendLinks(b []byte, links []netsim.LinkInfo) []byte {
	if links == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, l := range links {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(appendKey(append(b, '{'), linkKeys[0]), l.SrcDPID)
		b = strconv.AppendInt(appendKey(append(b, ','), linkKeys[1]), int64(l.SrcPort), 10)
		b = appendString(appendKey(append(b, ','), linkKeys[2]), l.DstDPID)
		b = strconv.AppendInt(appendKey(append(b, ','), linkKeys[3]), int64(l.DstPort), 10)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendDevices appends the device list [{"host":name}...].
func appendDevices(b []byte, hosts []string) []byte {
	b = append(b, '[')
	for i, h := range hosts {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(appendKey(append(b, '{'), "host"), h)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendNamed appends {"<key>":value}: the status replies and the delete
// request body.
func appendNamed(b []byte, key, value string) []byte {
	b = appendString(appendKey(append(b, '{'), key), value)
	return append(b, '}')
}

// deleteRequest is the body of a static-flow delete.
type deleteRequest struct {
	Name string `json:"name"`
}

// decode reads one document: through strict, if any, when it is in the
// codec's canonical form, through encoding/json otherwise.
func decode[T any](data []byte, strict func(*reader) (T, bool)) (T, error) {
	if strict != nil {
		r := reader{s: string(data)}
		if v, ok := strict(&r); ok && r.end() {
			return v, nil
		}
	}
	var v T
	err := json.Unmarshal(data, &v)
	return v, err
}

// reader is the strict decoder's cursor. Every string it returns is a
// substring of the one document, so a decoded reply costs one copy of
// its bytes whatever its field count.
type reader struct {
	s string
	i int
}

func (r *reader) byte(c byte) bool {
	if r.i < len(r.s) && r.s[r.i] == c {
		r.i++
		return true
	}
	return false
}

// end accepts the rest of the document: nothing, or the encoder's
// trailing newline.
func (r *reader) end() bool {
	r.byte('\n')
	return r.i == len(r.s)
}

// str reads a string of printable ASCII without escapes.
func (r *reader) str() (string, bool) {
	if !r.byte('"') {
		return "", false
	}
	rest := r.s[r.i:]
	n := 0
	for n < len(rest) && readable[rest[n]] {
		n++
	}
	if n == len(rest) || rest[n] != '"' {
		return "", false
	}
	r.i += n + 1
	return rest[:n], true
}

// int reads an integer in JSON's grammar (no fraction or exponent) that
// fits an int.
func (r *reader) int() (int, bool) {
	start := r.i
	r.byte('-')
	digits := r.i
	for r.i < len(r.s) && r.s[r.i] >= '0' && r.s[r.i] <= '9' {
		r.i++
	}
	if r.i == digits || (r.s[digits] == '0' && r.i > digits+1) {
		return 0, false
	}
	v, err := strconv.Atoi(r.s[start:r.i])
	return v, err == nil
}

// object reads an object whose keys are a strictly increasing subsequence
// of keys, calling val(i) to read the value of keys[i]. A missing key
// leaves its field zero, as encoding/json does.
func (r *reader) object(keys []string, val func(i int) bool) bool {
	if !r.byte('{') {
		return false
	}
	if r.byte('}') {
		return true
	}
	for next := 0; ; next++ {
		k, ok := r.str()
		if !ok || !r.byte(':') {
			return false
		}
		for next < len(keys) && keys[next] != k {
			next++
		}
		if next == len(keys) || !val(next) {
			return false
		}
		if r.byte('}') {
			return true
		}
		if !r.byte(',') {
			return false
		}
	}
}

// sortedObject reads an object with sorted, unique keys, calling val to
// read each key's value.
func (r *reader) sortedObject(val func(key string) bool) bool {
	if !r.byte('{') {
		return false
	}
	if r.byte('}') {
		return true
	}
	prev := ""
	for first := true; ; first = false {
		k, ok := r.str()
		if !ok || (!first && k <= prev) || !r.byte(':') || !val(k) {
			return false
		}
		prev = k
		if r.byte('}') {
			return true
		}
		if !r.byte(',') {
			return false
		}
	}
}

func readFlowSpec(r *reader) (FlowSpec, bool) {
	var s FlowSpec
	f := s.fields()
	ok := r.object(flowKeys[:], func(i int) bool {
		v, ok := r.str()
		*f[i] = v
		return ok
	})
	return s, ok
}

// readFlowList reads the flow-list document {dpid:{name:spec}}.
func readFlowList(r *reader) (map[string]map[string]FlowSpec, bool) {
	// Each canonical spec opens with `{"name":`: a size hint for the first
	// (in a controller's reply, the only) switch's map, capped so that a
	// hostile document cannot size a large map before it is refused.
	hint := min(strings.Count(r.s, `{"name":`), 1024)
	out := make(map[string]map[string]FlowSpec, 1)
	ok := r.sortedObject(func(dpid string) bool {
		flows := make(map[string]FlowSpec, hint)
		hint = 0
		out[dpid] = flows
		return r.sortedObject(func(name string) bool {
			s, ok := readFlowSpec(r)
			flows[name] = s
			return ok
		})
	})
	return out, ok
}

func readSummary(r *reader) (Summary, bool) {
	var s Summary
	f := s.fields()
	ok := r.object(summaryKeys[:], func(i int) bool {
		v, ok := r.int()
		*f[i] = v
		return ok
	})
	return s, ok
}

func readLinks(r *reader) ([]netsim.LinkInfo, bool) {
	if strings.HasPrefix(r.s[r.i:], "null") {
		r.i += len("null")
		return nil, true
	}
	if !r.byte('[') {
		return nil, false
	}
	out := []netsim.LinkInfo{}
	if r.byte(']') {
		return out, true
	}
	for {
		var l netsim.LinkInfo
		ok := r.object(linkKeys[:], func(i int) bool {
			var ok bool
			switch i {
			case 0:
				l.SrcDPID, ok = r.str()
			case 1:
				l.SrcPort, ok = r.int()
			case 2:
				l.DstDPID, ok = r.str()
			default:
				l.DstPort, ok = r.int()
			}
			return ok
		})
		if !ok {
			return nil, false
		}
		out = append(out, l)
		if r.byte(']') {
			return out, true
		}
		if !r.byte(',') {
			return nil, false
		}
	}
}

func readDeleteRequest(r *reader) (deleteRequest, bool) {
	var d deleteRequest
	ok := r.object([]string{"name"}, func(int) bool {
		var ok bool
		d.Name, ok = r.str()
		return ok
	})
	return d, ok
}
