package ima

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"vnfguard/internal/simtime"
)

func TestParsePolicy(t *testing.T) {
	p, err := ParsePolicy(`
# comment
dont_measure fsmagic=0x9fa0
measure func=BPRM_CHECK mask=MAY_EXEC
measure func=FILE_CHECK mask=MAY_READ uid=0 path=/etc
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 3 {
		t.Fatalf("got %d rules", len(p.Rules))
	}
	if p.Rules[0].Measure || !p.Rules[0].FSMagicSet || p.Rules[0].FSMagic != 0x9fa0 {
		t.Fatalf("rule 0 = %+v", p.Rules[0])
	}
	if !p.Rules[2].UIDSet || p.Rules[2].UID != 0 || p.Rules[2].PathPrefix != "/etc" {
		t.Fatalf("rule 2 = %+v", p.Rules[2])
	}
}

func TestParsePolicyErrors(t *testing.T) {
	cases := []string{
		"frobnicate func=BPRM_CHECK",
		"measure func=NO_SUCH_HOOK",
		"measure mask=MAY_FLY",
		"measure uid=root",
		"measure fsmagic=zz",
		"measure oddterm",
		"measure color=red",
	}
	for _, c := range cases {
		if _, err := ParsePolicy(c); err == nil {
			t.Errorf("policy %q accepted", c)
		}
	}
}

func TestPolicyFirstMatchWins(t *testing.T) {
	p, err := ParsePolicy(`
dont_measure path=/proc
measure func=FILE_CHECK mask=MAY_READ
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.ShouldMeasure(Event{Path: "/proc/self/status", Hook: HookFileCheck, Mask: MayRead}) {
		t.Fatal("dont_measure rule not honored")
	}
	if !p.ShouldMeasure(Event{Path: "/usr/bin/vnf", Hook: HookFileCheck, Mask: MayRead}) {
		t.Fatal("measure rule not honored")
	}
}

func TestPolicyDefaultDeny(t *testing.T) {
	p := &Policy{}
	if p.ShouldMeasure(Event{Path: "/x", Hook: HookBprmCheck, Mask: MayExec}) {
		t.Fatal("empty policy measured")
	}
}

func TestDefaultPolicyMeasuresRootExec(t *testing.T) {
	p := DefaultPolicy()
	if !p.ShouldMeasure(Event{Path: "/usr/bin/vnf", Hook: HookBprmCheck, Mask: MayExec, UID: 0}) {
		t.Fatal("exec not measured")
	}
	if p.ShouldMeasure(Event{Path: "/proc/cpuinfo", Hook: HookFileCheck, Mask: MayRead, UID: 0, FSMagic: 0x9fa0}) {
		t.Fatal("procfs measured")
	}
	if !p.ShouldMeasure(Event{Path: "/etc/vnf.conf", Hook: HookFileCheck, Mask: MayRead, UID: 0}) {
		t.Fatal("/etc config read by root not measured")
	}
	if p.ShouldMeasure(Event{Path: "/home/u/notes.txt", Hook: HookFileCheck, Mask: MayRead, UID: 1000}) {
		t.Fatal("non-root read measured")
	}
}

func TestMaskRoundTrip(t *testing.T) {
	for _, s := range []string{"MAY_EXEC", "MAY_READ|MAY_WRITE", "MAY_EXEC|MAY_READ|MAY_WRITE"} {
		m, err := ParseMask(s)
		if err != nil {
			t.Fatal(err)
		}
		if m.String() != s {
			t.Errorf("round trip %q -> %q", s, m.String())
		}
	}
	if Mask(0).String() != "0" {
		t.Error("zero mask string")
	}
}

func TestListAppendAndAggregate(t *testing.T) {
	l := NewList([]byte("boot"))
	if l.Len() != 1 {
		t.Fatalf("new list has %d entries, want boot_aggregate only", l.Len())
	}
	agg0 := l.Aggregate()
	l.Append(sha256.Sum256([]byte("binary")), "/usr/bin/vnf")
	if l.Aggregate() == agg0 {
		t.Fatal("aggregate did not change on append")
	}
}

func TestListSerializeParseRoundTrip(t *testing.T) {
	l := NewList([]byte("boot-state"))
	for i := 0; i < 10; i++ {
		l.Append(sha256.Sum256([]byte{byte(i)}), fmt.Sprintf("/bin/tool%d", i))
	}
	parsed, err := ParseList(l.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Aggregate() != l.Aggregate() {
		t.Fatal("aggregate mismatch after round trip")
	}
	if parsed.Len() != l.Len() {
		t.Fatal("length mismatch after round trip")
	}
}

func TestParseListRejectsTamper(t *testing.T) {
	l := NewList([]byte("b"))
	l.Append(sha256.Sum256([]byte("x")), "/bin/x")
	text := l.Serialize()
	// Change the path without fixing the template hash.
	tampered := strings.Replace(text, "/bin/x", "/bin/y", 1)
	if _, err := ParseList(tampered); err == nil {
		t.Fatal("path tamper accepted")
	}
	// Malformed lines.
	for _, bad := range []string{
		"10 zz ima-ng sha256:aa /x",
		"11 " + strings.Repeat("a", 64) + " ima-ng sha256:" + strings.Repeat("b", 64) + " /x",
		"10 " + strings.Repeat("a", 64) + " ima-sig sha256:" + strings.Repeat("b", 64) + " /x",
		"10 " + strings.Repeat("a", 64) + " ima-ng md5:" + strings.Repeat("b", 64) + " /x",
		"10 short",
	} {
		if _, err := ParseList(bad); err == nil {
			t.Errorf("malformed line accepted: %q", bad)
		}
	}
}

// TestParseListLineCap pins ParseList's line limit while the scanner
// buffer grows on demand: a 100 KiB line parses, so does the longest line
// that fits the 1 MiB cap with its newline, and one byte more is refused
// as too long — a malformed list, like every other parse refusal.
func TestParseListLineCap(t *testing.T) {
	short := NewList(nil).Append(sha256.Sum256(nil), "/").String()
	// list holds one measurement whose serialized line is n bytes long.
	list := func(n int) (string, string) {
		path := "/" + strings.Repeat("p", n-len(short))
		l := NewList([]byte("b"))
		l.Append(sha256.Sum256(nil), path)
		return l.Serialize(), path
	}
	for _, n := range []int{100 << 10, 1<<20 - 1} {
		text, path := list(n)
		parsed, err := ParseList(text)
		if err != nil {
			t.Fatalf("%d-byte line: %v", n, err)
		}
		if got := parsed.entries[parsed.Len()-1].Path; got != path {
			t.Fatalf("%d-byte line: path of %d bytes, want %d", n, len(got), len(path))
		}
	}
	text, _ := list(1 << 20)
	for _, over := range []string{text, strings.Repeat("a", 2<<20)} {
		_, err := ParseList(over)
		if !errors.Is(err, ErrMalformedList) || !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("over-cap line: got %v, want ErrMalformedList wrapping the scanner's too-long error", err)
		}
	}
}

// TestParseListAllocatesForItsLines: a short list no longer costs a
// buffer the size of the line cap.
func TestParseListAllocatesForItsLines(t *testing.T) {
	l := NewList([]byte("b"))
	for i := 0; i < 10; i++ {
		l.Append(sha256.Sum256([]byte{byte(i)}), fmt.Sprintf("/bin/tool%d", i))
	}
	text := l.Serialize()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		if _, err := ParseList(text); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 10; per > 256<<10 {
		t.Fatalf("parsing a 10-line list allocated %d bytes", per)
	}
}

// parseListReference is ParseList as it was written over strings, kept as
// the oracle FuzzParseList checks the byte-slice parser against.
func parseListReference(text string) (*List, error) {
	l := &List{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, " ", 5)
		if len(fields) != 5 {
			return nil, fmt.Errorf("%w: line %d: %d fields", ErrMalformedList, lineNo, len(fields))
		}
		if fields[0] != "10" {
			return nil, fmt.Errorf("%w: line %d: pcr %q", ErrMalformedList, lineNo, fields[0])
		}
		if fields[2] != "ima-ng" {
			return nil, fmt.Errorf("%w: line %d: template %q", ErrMalformedList, lineNo, fields[2])
		}
		th, err := hex.DecodeString(fields[1])
		if err != nil || len(th) != 32 {
			return nil, fmt.Errorf("%w: line %d: template hash", ErrMalformedList, lineNo)
		}
		fhText, ok := strings.CutPrefix(fields[3], "sha256:")
		if !ok {
			return nil, fmt.Errorf("%w: line %d: file hash algorithm", ErrMalformedList, lineNo)
		}
		fh, err := hex.DecodeString(fhText)
		if err != nil || len(fh) != 32 {
			return nil, fmt.Errorf("%w: line %d: file hash", ErrMalformedList, lineNo)
		}
		var fileHash [32]byte
		copy(fileHash[:], fh)
		e := l.Append(fileHash, fields[4])
		if hex.EncodeToString(e.TemplateHash[:]) != fields[1] {
			return nil, fmt.Errorf("%w: line %d: template hash mismatch (list tampered)", ErrMalformedList, lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: reading list: %w", ErrMalformedList, err)
	}
	return l, nil
}

// FuzzParseList checks ParseList against parseListReference: the same
// entries and aggregate, or the same error text. pad extends the text's
// last line by pad×32 bytes, so a seed reaches the 1 MiB line cap
// without a megabyte of corpus.
func FuzzParseList(f *testing.F) {
	l := NewList([]byte("boot"))
	l.Append(sha256.Sum256([]byte("a")), "/usr/bin/a")
	l.Append(sha256.Sum256([]byte("b")), "/opt/with space/b c")
	f.Add(l.Serialize(), uint16(0))
	f.Fuzz(func(t *testing.T, text string, pad uint16) {
		text += strings.Repeat("p", int(pad)*32)
		got, gotErr := ParseList(text)
		want, wantErr := parseListReference(text)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("error %v, reference error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error %q, reference error %q", gotErr, wantErr)
			}
			return
		}
		if !slices.Equal(got.entries, want.entries) || got.aggregate != want.aggregate {
			t.Fatalf("parsed %d entries, reference %d; aggregates equal: %v",
				len(got.entries), len(want.entries), got.aggregate == want.aggregate)
		}
	})
}

// listOf builds a list of n measurements with paths of typical length.
func listOf(n int) *List {
	l := NewList([]byte("boot"))
	for i := 1; i < n; i++ {
		l.Append(sha256.Sum256([]byte{byte(i), byte(i >> 8)}), fmt.Sprintf("/usr/lib/vnf/module-%06d.so", i))
	}
	return l
}

// TestSerializeAllocatesOnce pins Serialize to one presized buffer: its
// allocation count does not grow with the list.
func TestSerializeAllocatesOnce(t *testing.T) {
	short, long := listOf(10), listOf(2000)
	if got := long.Serialize(); got != referenceSerialize(long) {
		t.Fatal("Serialize differs from the per-entry String rendering")
	}
	a := testing.AllocsPerRun(20, func() { short.Serialize() })
	b := testing.AllocsPerRun(20, func() { long.Serialize() })
	if a != b || b > 1 {
		t.Fatalf("Serialize allocates %v times for 10 entries, %v for 2000; want one allocation for both", a, b)
	}
}

// referenceSerialize renders a list with fmt, line by line, as Serialize
// did before it wrote into one buffer.
func referenceSerialize(l *List) string {
	var b strings.Builder
	for _, e := range l.Entries() {
		fmt.Fprintf(&b, "%d %x %s sha256:%x %s\n", e.PCR, e.TemplateHash, e.Template, e.FileHash, e.Path)
	}
	return b.String()
}

// TestParseListAllocsPerLine pins ParseList to at most two allocations
// per line, amortised: the entry slice's growth and the path string.
func TestParseListAllocsPerLine(t *testing.T) {
	const n = 2000
	text := listOf(n).Serialize()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ParseList(text); err != nil {
			t.Fatal(err)
		}
	})
	if perLine := allocs / n; perLine > 2 {
		t.Fatalf("ParseList allocates %.2f times per line, want at most 2", perLine)
	}
}

func TestAggregateOrderSensitive(t *testing.T) {
	// Property: permuting the measurement order changes the aggregate
	// (PCR-extend is order-sensitive), while identical order reproduces it.
	f := func(a, b []byte) bool {
		h1, h2 := sha256.Sum256(a), sha256.Sum256(b)
		if h1 == h2 {
			return true
		}
		l1 := NewList(nil)
		l1.Append(h1, "/a")
		l1.Append(h2, "/b")
		l2 := NewList(nil)
		l2.Append(h2, "/b")
		l2.Append(h1, "/a")
		l3 := NewList(nil)
		l3.Append(h1, "/a")
		l3.Append(h2, "/b")
		return l1.Aggregate() != l2.Aggregate() && l1.Aggregate() == l3.Aggregate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSystemMeasuresOncePerContent(t *testing.T) {
	model := simtime.ZeroCosts()
	s := NewSystem(nil, model, []byte("boot"))
	ev := Event{Path: "/usr/bin/vnf", Hook: HookBprmCheck, Mask: MayExec, UID: 0}
	if !s.HandleEvent(ev, []byte("v1")) {
		t.Fatal("first exec not measured")
	}
	if s.HandleEvent(ev, []byte("v1")) {
		t.Fatal("unchanged content re-measured")
	}
	if !s.HandleEvent(ev, []byte("v2")) {
		t.Fatal("changed content not re-measured")
	}
	if got := model.Count(simtime.OpIMAMeasure); got != 2 {
		t.Fatalf("measure ops = %d, want 2", got)
	}
	if s.Len() != 3 { // boot_aggregate + v1 + v2
		t.Fatalf("list len = %d, want 3", s.Len())
	}
}

func TestSystemPCRSink(t *testing.T) {
	s := NewSystem(nil, nil, []byte("boot"))
	var extended [][32]byte
	s.SetPCRSink(func(th [32]byte) { extended = append(extended, th) })
	s.HandleEvent(Event{Path: "/usr/bin/a", Hook: HookBprmCheck, Mask: MayExec}, []byte("a"))
	s.HandleEvent(Event{Path: "/usr/bin/b", Hook: HookBprmCheck, Mask: MayExec}, []byte("b"))
	if len(extended) != 2 {
		t.Fatalf("sink received %d extends, want 2", len(extended))
	}
}

func TestSystemSnapshotConsistency(t *testing.T) {
	s := NewSystem(nil, nil, []byte("boot"))
	s.HandleEvent(Event{Path: "/usr/bin/a", Hook: HookBprmCheck, Mask: MayExec}, []byte("a"))
	text, agg := s.Snapshot()
	parsed, err := ParseList(text)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Aggregate() != agg {
		t.Fatal("snapshot aggregate does not match serialized list")
	}
}

func TestGoldenDBAppraisal(t *testing.T) {
	l := NewList([]byte("boot"))
	good := sha256.Sum256([]byte("good binary"))
	l.Append(good, "/usr/bin/vnf")

	db := NewGoldenDB()
	db.Allow("/usr/bin/vnf", good)
	db.Require("/usr/bin/vnf")

	res := db.Appraise(l)
	if !res.Trusted {
		t.Fatalf("good list rejected: %v", res.Findings)
	}
	if res.Appraised != 2 {
		t.Fatalf("appraised %d entries", res.Appraised)
	}
}

func TestGoldenDBDetectsModifiedFile(t *testing.T) {
	db := NewGoldenDB()
	db.Allow("/usr/bin/vnf", sha256.Sum256([]byte("good")))
	l := NewList([]byte("boot"))
	l.Append(sha256.Sum256([]byte("evil")), "/usr/bin/vnf")
	res := db.Appraise(l)
	if res.Trusted {
		t.Fatal("modified file passed appraisal")
	}
	if len(res.Findings) != 1 || !strings.Contains(res.Findings[0].Reason, "hash mismatch") {
		t.Fatalf("findings = %v", res.Findings)
	}
}

func TestGoldenDBUnknownFailClosed(t *testing.T) {
	db := NewGoldenDB()
	l := NewList([]byte("boot"))
	l.Append(sha256.Sum256([]byte("mystery")), "/usr/bin/mystery")
	if res := db.Appraise(l); res.Trusted {
		t.Fatal("unknown path trusted under fail-closed policy")
	}
	db.AllowUnknown = true
	if res := db.Appraise(l); !res.Trusted {
		t.Fatalf("unknown path rejected under AllowUnknown: %v", res.Findings)
	}
}

func TestGoldenDBMissingRequired(t *testing.T) {
	db := NewGoldenDB()
	db.Require("/usr/bin/vnf")
	l := NewList([]byte("boot"))
	res := db.Appraise(l)
	if res.Trusted {
		t.Fatal("missing required measurement trusted")
	}
	if !strings.Contains(res.Findings[0].Reason, "required measurement missing") {
		t.Fatalf("findings = %v", res.Findings)
	}
}

func TestGoldenDBLearnFromList(t *testing.T) {
	l := NewList([]byte("boot"))
	l.Append(sha256.Sum256([]byte("a")), "/a")
	l.Append(sha256.Sum256([]byte("b")), "/b")
	db := NewGoldenDB()
	db.LearnFromList(l)
	if res := db.Appraise(l); !res.Trusted {
		t.Fatalf("learned list rejected: %v", res.Findings)
	}
}

func TestTamperListSwapsEntries(t *testing.T) {
	s := NewSystem(nil, nil, []byte("boot"))
	s.HandleEvent(Event{Path: "/usr/bin/evil", Hook: HookBprmCheck, Mask: MayExec}, []byte("evil"))
	clean := NewList([]byte("boot"))
	clean.Append(sha256.Sum256([]byte("good")), "/usr/bin/good")
	s.TamperList(clean)
	text, _ := s.Snapshot()
	if strings.Contains(text, "evil") {
		t.Fatal("tampered list still shows original entries")
	}
}

func TestEntryStringFormat(t *testing.T) {
	e := NewList(nil).Entries()[0]
	str := e.String()
	if !strings.HasPrefix(str, "10 ") || !strings.Contains(str, " ima-ng sha256:") ||
		!strings.HasSuffix(str, BootAggregatePath) {
		t.Fatalf("entry format %q", str)
	}
}
