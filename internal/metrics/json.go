package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// Machine-readable bench artifacts: BENCH_<name>.json files written
// next to the text tables, so the perf trajectory of the repo can be
// tracked by tooling instead of by eyeballing table diffs.
// cmd/benchreport -json-dir writes one per experiment, and CI uploads
// the files as artifacts.

// BenchArtifact is the serialised result of one experiment or
// benchmark run.
type BenchArtifact struct {
	// Name identifies the experiment (e.g. "E16") or benchmark.
	Name string `json:"name"`
	// Description is the experiment's one-line description.
	Description string `json:"description,omitempty"`
	// Summaries carries the percentile summaries behind the table.
	Summaries []SummaryData `json:"summaries,omitempty"`
	// Table is the rendered result table in structured form.
	Table *TableData `json:"table,omitempty"`
	// UnixTime stamps when the run finished (Unix seconds).
	UnixTime int64 `json:"unix_time,omitempty"`
}

// SummaryData is Summary in JSON form, durations in nanoseconds.
type SummaryData struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	Sampled int64  `json:"sampled"`
	MeanNs  int64  `json:"mean_ns"`
	MinNs   int64  `json:"min_ns"`
	MaxNs   int64  `json:"max_ns"`
	P50Ns   int64  `json:"p50_ns"`
	P95Ns   int64  `json:"p95_ns"`
	P99Ns   int64  `json:"p99_ns"`
}

// Data converts a Summary for serialisation.
func (s Summary) Data() SummaryData {
	return SummaryData{
		Name: s.Name, Count: s.Count, Sampled: s.Sampled,
		MeanNs: int64(s.Mean), MinNs: int64(s.Min), MaxNs: int64(s.Max),
		P50Ns: int64(s.P50), P95Ns: int64(s.P95), P99Ns: int64(s.P99),
	}
}

// TableData is a Table's content in structured form.
type TableData struct {
	Title     string     `json:"title"`
	Headers   []string   `json:"headers"`
	Rows      [][]string `json:"rows"`
	Footnotes []string   `json:"footnotes,omitempty"`
}

// Data exports the table's content.
func (t *Table) Data() TableData {
	return TableData{Title: t.title, Headers: t.headers, Rows: t.rows, Footnotes: t.footnotes}
}

// artifactName restricts artifact file names to safe characters.
var artifactName = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// WriteBenchJSON writes the artifact as dir/BENCH_<name>.json.
func WriteBenchJSON(dir string, a BenchArtifact) error {
	if !artifactName.MatchString(a.Name) {
		return fmt.Errorf("metrics: artifact name %q unusable in a file name", a.Name)
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: encoding bench artifact: %w", err)
	}
	path := filepath.Join(dir, "BENCH_"+a.Name+".json")
	//lint:allow atomicwrite bench artifact consumed by the report tooling in the same run; not durable state
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("metrics: writing bench artifact: %w", err)
	}
	return nil
}
