package controller

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vnfguard/internal/netsim"
)

// encodeJSON is what every handler wrote before the codec:
// json.NewEncoder(w).Encode(v).
func encodeJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// flowMap is the flow-list reply's value for one switch, as the handler
// built it before the codec.
func flowMap(flows []FlowSpec) map[string]FlowSpec {
	m := make(map[string]FlowSpec, len(flows))
	for _, f := range flows {
		m[f.Name] = f
	}
	return m
}

// goldenNet is two linked switches with a host on each: a topology whose
// links reply is not null.
func goldenNet(t *testing.T) *netsim.Network {
	t.Helper()
	n := testNet(t)
	if _, err := n.AddSwitch("00:00:02"); err != nil {
		t.Fatal(err)
	}
	if err := n.Link("00:00:01", 3, "00:00:02", 1); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachHost("h<3>", "00:00:02", 2); err != nil {
		t.Fatal(err)
	}
	return n
}

// goldenFlows are flows whose names and fields need every kind of
// escaping encoding/json does, beside plain ones.
func goldenFlows() []FlowSpec {
	odd := []string{"fw<&>", "café", "line\u2028sep", "tab\there", `q"uote`, `back\slash`, "bad\xffutf8", "del\x7f"}
	var out []FlowSpec
	for i := 0; i < 21; i++ {
		f := FlowSpec{
			Name: fmt.Sprintf("vnf-%02d-allow", i), Switch: "00:00:01", Priority: fmt.Sprint(100 + i),
			IPProto: "tcp", TCPDst: fmt.Sprint(8000 + i), Actions: "output=2",
			PushedBy: fmt.Sprintf("vnf-%02d", i),
		}
		if i%3 == 0 {
			f.InPort, f.EthSrc, f.EthDst = "1", "02:00:00:00:00:01", "02:00:00:00:00:02"
			f.IPv4Src, f.IPv4Dst, f.TCPSrc = "10.0.0.0/24", "10.0.0.2", "1024"
		}
		if i < len(odd) {
			f.Name = odd[i]
			f.PushedBy = odd[len(odd)-1-i]
		}
		out = append(out, f)
	}
	return out
}

// TestRepliesByteIdentical sends every handler's reply through a real
// HTTP server and compares it byte for byte with what encoding/json
// writes for the same value (http.Error's text for refusals).
func TestRepliesByteIdentical(t *testing.T) {
	n := goldenNet(t)
	c := New("ctrl", n)
	flows := goldenFlows()
	for _, f := range flows {
		if err := c.PushFlow(f); err != nil {
			t.Fatalf("push %q: %v", f.Name, err)
		}
	}
	if err := c.PushFlow(FlowSpec{Name: "on-two", Switch: "00:00:02", Actions: "drop"}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	const jsonType, textType = "application/json", "text/plain; charset=utf-8"
	cases := []struct {
		name, method, path, body string
		status                   int
		ctype                    string
		want                     func() []byte
	}{
		{"summary", "GET", PathSummary, "", 200, jsonType, func() []byte { return encodeJSON(t, c.Summary()) }},
		{"health", "GET", PathHealth, "", 200, jsonType, func() []byte { return encodeJSON(t, map[string]bool{"healthy": true}) }},
		{"links", "GET", PathLinks, "", 200, jsonType, func() []byte { return encodeJSON(t, n.Links()) }},
		{"links-none", "GET", "/none" + PathLinks, "", 200, jsonType, func() []byte { return encodeJSON(t, []netsim.LinkInfo(nil)) }},
		{"devices", "GET", PathDevices, "", 200, jsonType, func() []byte { return encodeJSON(t, devices(n.Hosts())) }},
		{"devices-none", "GET", "/none" + PathDevices, "", 200, jsonType, func() []byte { return encodeJSON(t, devices(nil)) }},
		{"flows-many", "GET", PathFlowList + "00:00:01/json", "", 200, jsonType, func() []byte {
			return encodeJSON(t, map[string]map[string]FlowSpec{"00:00:01": flowMap(flows)})
		}},
		{"flows-one", "GET", PathFlowList + "00:00:02/json", "", 200, jsonType, func() []byte {
			return encodeJSON(t, map[string]map[string]FlowSpec{"00:00:02": flowMap(c.FlowsOn("00:00:02"))})
		}},
		{"flows-unknown-dpid", "GET", PathFlowList + "gh%3Cost/json", "", 200, jsonType, func() []byte {
			return encodeJSON(t, map[string]map[string]FlowSpec{"gh<ost": {}})
		}},
		{"flows-empty", "GET", "/none" + PathFlowList + "00:00:01/json", "", 200, jsonType, func() []byte {
			return encodeJSON(t, map[string]map[string]FlowSpec{"00:00:01": {}})
		}},
		{"push", "POST", PathStaticFlow, `{"name":"new","switch":"00:00:02","actions":"drop"}`, 200, jsonType, func() []byte {
			return encodeJSON(t, map[string]string{"status": "Entry pushed"})
		}},
		{"delete", "DELETE", PathStaticFlow, `{"name":"fw<&>"}`, 200, jsonType, func() []byte {
			return encodeJSON(t, map[string]string{"status": "Entry fw<&> deleted"})
		}},
		{"push-malformed", "POST", PathStaticFlow, `{"name":`, 400, textType, func() []byte { return []byte("malformed flow entry\n") }},
		{"push-invalid", "POST", PathStaticFlow, `{"name":"x","switch":"00:00:01","actions":"fly"}`, 400, textType, func() []byte {
			return []byte("controller: action \"fly\" unsupported\n")
		}},
		{"push-unknown-switch", "POST", PathStaticFlow, `{"name":"x","switch":"ghost","actions":"drop"}`, 400, textType, func() []byte {
			return []byte("netsim: unknown switch: \"ghost\"\n")
		}},
		{"delete-malformed", "DELETE", PathStaticFlow, `{}`, 400, textType, func() []byte { return []byte("malformed delete request\n") }},
		{"delete-unknown", "DELETE", PathStaticFlow, `{"name":"ghost"}`, 404, textType, func() []byte {
			return []byte("controller: no static flow \"ghost\"\n")
		}},
	}
	empty := httptest.NewServer(New("empty", netsim.NewNetwork()).Handler())
	defer empty.Close()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, path := srv.URL, tc.path
			if p, ok := strings.CutPrefix(path, "/none"); ok {
				base, path = empty.URL, p
			}
			want := tc.want() // before the request: push and delete change state
			req, err := http.NewRequest(tc.method, base+path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status || resp.Header.Get("Content-Type") != tc.ctype {
				t.Fatalf("status %d %q, want %d %q: %s", resp.StatusCode, resp.Header.Get("Content-Type"), tc.status, tc.ctype, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("reply differs from encoding/json's\n got %q\nwant %q", got, want)
			}
		})
	}
}

// devices is the device reply's value, as the handler built it before the
// codec.
func devices(hosts []string) any {
	type device struct {
		Host string `json:"host"`
	}
	out := make([]device, len(hosts))
	for i, h := range hosts {
		out[i] = device{Host: h}
	}
	return out
}

func byNameCmp(a, b FlowSpec) int { return strings.Compare(a.Name, b.Name) }

// TestRequestBodiesByteIdentical pins the client's request bodies to
// json.Marshal's, which is what the client sent before the codec.
func TestRequestBodiesByteIdentical(t *testing.T) {
	for _, f := range goldenFlows() {
		want, _ := json.Marshal(f)
		if got := appendFlowSpec(nil, &f); !bytes.Equal(got, want) {
			t.Fatalf("push body\n got %s\nwant %s", got, want)
		}
		want, _ = json.Marshal(map[string]string{"name": f.Name})
		if got := appendNamed(nil, "name", f.Name); !bytes.Equal(got, want) {
			t.Fatalf("delete body\n got %s\nwant %s", got, want)
		}
	}
}

// TestClientDecodesCanonicalAndFallback reads the same flows from a
// canonical reply (the strict path) and from that document re-indented,
// as another Floodlight might send it (the encoding/json fallback).
func TestClientDecodesCanonicalAndFallback(t *testing.T) {
	flows := goldenFlows()[8:] // the plain ones, in name order
	doc := append(appendFlowList(nil, "00:00:01", flows), '\n')
	r := reader{s: string(doc)}
	if _, ok := readFlowList(&r); !ok || !r.end() {
		t.Fatal("strict decoder declined a canonical reply")
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, doc, "", "  "); err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]FlowSpec
	if err := json.Unmarshal(doc, &want); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"canonical": doc, "indented": indented.Bytes()} {
		got, err := decode(data, readFlowList)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %v, %v", name, got, err)
		}
	}
}

// checkStrict is the differential decode invariant: strict either
// declines, or returns exactly what json.Unmarshal returns.
func checkStrict[T any](t *testing.T, data []byte, strict func(*reader) (T, bool)) (T, bool) {
	t.Helper()
	var want T
	wantErr := json.Unmarshal(data, &want)
	r := reader{s: string(data)}
	got, ok := strict(&r)
	if ok && r.end() {
		if wantErr != nil {
			t.Fatalf("strict decoder accepted %q, which encoding/json refuses: %v", data, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("strict decoder read %q as %#v, encoding/json as %#v", data, got, want)
		}
	}
	return want, wantErr == nil
}

// checkEncoded is the encode invariant: the codec's bytes equal
// encoding/json's, and when every string is plain the strict decoder
// reads them back.
func checkEncoded[T any](t *testing.T, got, want []byte, strs []string, strict func(*reader) (T, bool)) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("codec wrote\n%q\nencoding/json wrote\n%q", got, want)
	}
	if !slices.ContainsFunc(strs, func(s string) bool { return !plain(s) }) {
		r := reader{s: string(got)}
		if _, ok := strict(&r); !ok || !r.end() {
			t.Fatalf("strict decoder declined canonical %q", got)
		}
	}
}

func FuzzFlowListCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, ok := checkStrict(t, data, readFlowList)
		if !ok || len(doc) != 1 {
			return // the controller replies with one switch
		}
		for dpid, m := range doc {
			// The controller keys every entry by its name.
			flows := make([]FlowSpec, 0, len(m))
			strs := []string{dpid}
			for name, s := range m {
				s.Name = name
				flows = append(flows, s)
				for _, p := range s.fields() {
					strs = append(strs, *p)
				}
			}
			slices.SortFunc(flows, byNameCmp)
			want := encodeJSON(t, map[string]map[string]FlowSpec{dpid: flowMap(flows)})
			checkEncoded(t, append(appendFlowList(nil, dpid, flows), '\n'), want, strs, readFlowList)
		}
	})
}

func FuzzFlowSpecCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ok := checkStrict(t, data, readFlowSpec)
		if !ok {
			return
		}
		var strs []string
		for _, p := range s.fields() {
			strs = append(strs, *p)
		}
		want, _ := json.Marshal(s)
		checkEncoded(t, appendFlowSpec(nil, &s), want, strs, readFlowSpec)
	})
}

// FuzzSummaryLinksCodec runs the same invariants over the summary, links
// and delete-request documents.
func FuzzSummaryLinksCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, ok := checkStrict(t, data, readSummary); ok {
			checkEncoded(t, append(appendSummary(nil, s), '\n'), encodeJSON(t, s), nil, readSummary)
		}
		if links, ok := checkStrict(t, data, readLinks); ok {
			var strs []string
			for _, l := range links {
				strs = append(strs, l.SrcDPID, l.DstDPID)
			}
			checkEncoded(t, append(appendLinks(nil, links), '\n'), encodeJSON(t, links), strs, readLinks)
		}
		if d, ok := checkStrict(t, data, readDeleteRequest); ok {
			want, _ := json.Marshal(map[string]string{"name": d.Name})
			checkEncoded(t, appendNamed(nil, "name", d.Name), want, []string{d.Name}, readDeleteRequest)
		}
	})
}

// benchReply is a 21-flow flow-list reply like the northbound workload's.
func benchReply() (string, []FlowSpec, []byte) {
	var flows []FlowSpec
	for i := 0; i < 21; i++ {
		flows = append(flows, FlowSpec{
			Name: fmt.Sprintf("nb-%d-fw-allow-%d", i%8, i), Switch: "00:00:00:00:00:00:00:01", Priority: "100",
			InPort: "1", IPv4Dst: "10.0.0.2", IPProto: "tcp", TCPDst: fmt.Sprint(8000 + i), Actions: "output=2",
			PushedBy: fmt.Sprintf("nb-%d", i%8),
		})
	}
	slices.SortFunc(flows, byNameCmp)
	dpid := flows[0].Switch
	return dpid, flows, append(appendFlowList(nil, dpid, flows), '\n')
}

// BenchmarkFlowList compares the codec with encoding/json on both ends of
// a flow-list read.
func BenchmarkFlowList(b *testing.B) {
	dpid, flows, doc := benchReply()
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			appendFlowList(make([]byte, 0, 64+256*len(flows)), dpid, flows)
		}
	})
	b.Run("encode/json", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			json.NewEncoder(io.Discard).Encode(map[string]map[string]FlowSpec{dpid: flowMap(flows)})
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := decode(doc, readFlowList); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/json", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var out map[string]map[string]FlowSpec
			if err := json.Unmarshal(doc, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
