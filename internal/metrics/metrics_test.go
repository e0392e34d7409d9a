package metrics

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram("lat")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Summarize()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != time.Millisecond || s.Max != 100*time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.P50 != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", s.P50)
	}
	if s.P95 != 95*time.Millisecond {
		t.Fatalf("p95 = %v, want 95ms", s.P95)
	}
	if s.Mean != 50500*time.Microsecond {
		t.Fatalf("mean = %v, want 50.5ms", s.Mean)
	}
}

func TestEmptyHistogram(t *testing.T) {
	s := NewHistogram("empty").Summarize()
	if s.Count != 0 || s.Mean != 0 || s.P99 != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	if s.Name != "empty" {
		t.Fatalf("name = %q", s.Name)
	}
}

func TestHistogramTime(t *testing.T) {
	h := NewHistogram("t")
	h.Time(func() { time.Sleep(time.Millisecond) })
	if h.Count() != 1 {
		t.Fatal("Time did not record")
	}
	if s := h.Summarize(); s.Min < time.Millisecond {
		t.Fatalf("recorded %v, want ≥ 1ms", s.Min)
	}
}

func TestPercentileProperties(t *testing.T) {
	// Property: for any set of observations, min ≤ p50 ≤ p95 ≤ p99 ≤ max.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram("q")
		for _, v := range raw {
			h.Observe(time.Duration(v) * time.Microsecond)
		}
		s := h.Summarize()
		return s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileSingleSample(t *testing.T) {
	h := NewHistogram("one")
	h.Observe(7 * time.Millisecond)
	s := h.Summarize()
	if s.P50 != 7*time.Millisecond || s.P99 != 7*time.Millisecond {
		t.Fatalf("single-sample percentiles: %+v", s)
	}
}

func TestSummaryString(t *testing.T) {
	h := NewHistogram("x")
	h.Observe(time.Millisecond)
	out := h.Summarize().String()
	if !strings.Contains(out, "x:") || !strings.Contains(out, "n=1") {
		t.Fatalf("summary string %q", out)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("E4", "mode", "p50", "p99")
	tb.AddRow("http", "1ms", "2ms")
	tb.AddRow("trusted-https", "5ms", "9ms")
	out := tb.String()
	if !strings.Contains(out, "== E4 ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
	// Header and data rows must align on the widest cell.
	if !strings.HasPrefix(lines[3], "http         ") {
		t.Fatalf("column not padded: %q", lines[3])
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.AddRow(1, 2)
	md := tb.Markdown()
	for _, want := range []string{"**T**", "| a | b |", "| --- | --- |", "| 1 | 2 |"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestRound(t *testing.T) {
	cases := []struct {
		in, want time.Duration
	}{
		{1500 * time.Millisecond, 1500 * time.Millisecond},
		{1234567 * time.Nanosecond, 1230 * time.Microsecond},
		{1234 * time.Nanosecond, 1230 * time.Nanosecond},
		{999, 999},
	}
	for _, c := range cases {
		if got := round(c.in); got != c.want {
			t.Errorf("round(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSummarySampledTracksTruncation(t *testing.T) {
	h := NewHistogram("long")
	for i := 0; i < MaxSamples+100; i++ {
		h.Observe(time.Duration(i) * time.Nanosecond)
	}
	s := h.Summarize()
	if s.Count != MaxSamples+100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sampled != MaxSamples {
		t.Fatalf("sampled = %d, want %d", s.Sampled, MaxSamples)
	}
	if !s.Truncated() {
		t.Fatal("summary past MaxSamples must report truncation")
	}
	if out := s.String(); !strings.Contains(out, "percentiles from first 65536") {
		t.Fatalf("truncated summary string hides it: %q", out)
	}

	short := NewHistogram("short")
	short.Observe(time.Millisecond)
	if ss := short.Summarize(); ss.Truncated() || ss.Sampled != 1 {
		t.Fatalf("short summary: %+v", ss)
	}
}

func TestTableFootnotes(t *testing.T) {
	tb := NewTable("T", "a")
	tb.AddRow(1)
	tb.AddFootnote("plain note")
	tb.NoteTruncation(
		Summary{Name: "full", Count: 10, Sampled: 10},
		Summary{Name: "cut", Count: 100000, Sampled: 65536},
	)
	out := tb.String()
	if !strings.Contains(out, "* plain note") {
		t.Fatalf("plain footnote missing:\n%s", out)
	}
	if !strings.Contains(out, "cut: percentiles computed from the first 65536 of 100000") {
		t.Fatalf("truncation footnote missing:\n%s", out)
	}
	if strings.Contains(out, "full:") {
		t.Fatalf("untruncated summary got a footnote:\n%s", out)
	}
	if md := tb.Markdown(); !strings.Contains(md, `\* plain note`) {
		t.Fatalf("markdown footnote missing:\n%s", md)
	}
}

func TestWriteBenchJSON(t *testing.T) {
	dir := t.TempDir()
	tb := NewTable("E99", "col")
	tb.AddRow("v")
	h := NewHistogram("lat")
	h.Observe(3 * time.Millisecond)
	td := tb.Data()
	a := BenchArtifact{
		Name: "E99", Description: "demo",
		Summaries: []SummaryData{h.Summarize().Data()},
		Table:     &td,
	}
	if err := WriteBenchJSON(dir, a); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/BENCH_E99.json")
	if err != nil {
		t.Fatal(err)
	}
	var back BenchArtifact
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "E99" || back.Description != "demo" || len(back.Summaries) != 1 || back.Table.Title != "E99" {
		t.Fatalf("artifact round-trip: %+v", back)
	}
	if back.Summaries[0].P50Ns != int64(3*time.Millisecond) {
		t.Fatalf("summary p50 = %d", back.Summaries[0].P50Ns)
	}
	if err := WriteBenchJSON(dir, BenchArtifact{Name: "../evil"}); err == nil {
		t.Fatal("path-escaping artifact name accepted")
	}
}
