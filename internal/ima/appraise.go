package ima

import (
	"fmt"
	"sort"
	"sync"
)

// GoldenDB holds the Verification Manager's expected measurement values:
// for each path, the set of acceptable file hashes. It drives appraisal of
// integrity measurement lists obtained through attestation. Its methods
// are safe for concurrent use, so a golden relearn may run beside
// appraisals; set AllowUnknown before the database is shared.
type GoldenDB struct {
	mu      sync.RWMutex
	allowed map[string]map[[32]byte]bool
	require map[string]bool
	// AllowUnknown, when true, tolerates measured paths absent from the
	// database (log-only appraisal). Default false: fail closed.
	AllowUnknown bool
}

// NewGoldenDB returns an empty database (fail-closed).
func NewGoldenDB() *GoldenDB {
	return &GoldenDB{
		allowed: make(map[string]map[[32]byte]bool),
		require: make(map[string]bool),
	}
}

// Allow registers an acceptable hash for a path.
func (db *GoldenDB) Allow(path string, hash [32]byte) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.allow(path, hash)
}

// allow is Allow for callers holding db.mu.
func (db *GoldenDB) allow(path string, hash [32]byte) {
	set, ok := db.allowed[path]
	if !ok {
		set = make(map[[32]byte]bool)
		db.allowed[path] = set
	}
	set[hash] = true
}

// Require marks a path that must appear in every appraised list (e.g. the
// VNF binary itself). Required paths are implicitly allowed with the
// hashes registered via Allow.
func (db *GoldenDB) Require(path string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.require[path] = true
}

// LearnFromList registers every entry of a known-good list as allowed —
// the enrollment-time "golden run" workflow.
func (db *GoldenDB) LearnFromList(l *List) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for i := range l.entries {
		db.allow(l.entries[i].Path, l.entries[i].FileHash)
	}
}

// Finding is one appraisal failure.
type Finding struct {
	Path   string
	Reason string
}

func (f Finding) String() string { return fmt.Sprintf("%s: %s", f.Path, f.Reason) }

// AppraisalResult is the outcome of appraising a measurement list.
type AppraisalResult struct {
	Trusted  bool
	Findings []Finding
	// Appraised counts entries checked.
	Appraised int
}

// Appraise checks every entry of the list against the database and
// verifies that all required paths are present.
func (db *GoldenDB) Appraise(l *List) AppraisalResult {
	db.mu.RLock()
	defer db.mu.RUnlock()
	res := AppraisalResult{Trusted: true}
	seen := make(map[string]bool)
	for i := range l.entries {
		e := &l.entries[i]
		res.Appraised++
		if db.require[e.Path] {
			seen[e.Path] = true
		}
		set, known := db.allowed[e.Path]
		switch {
		case !known && e.Path == BootAggregatePath:
			// Boot aggregate is host-specific; unless pinned explicitly it
			// is accepted (its integrity is covered by E7's TPM mode).
		case !known:
			if !db.AllowUnknown {
				res.Trusted = false
				res.Findings = append(res.Findings, Finding{e.Path, "not in golden database"})
			}
		case !set[e.FileHash]:
			res.Trusted = false
			res.Findings = append(res.Findings, Finding{e.Path, "hash mismatch (file modified)"})
		}
	}
	var missing []string
	for path := range db.require {
		if !seen[path] {
			missing = append(missing, path)
		}
	}
	sort.Strings(missing)
	for _, path := range missing {
		res.Trusted = false
		res.Findings = append(res.Findings, Finding{path, "required measurement missing"})
	}
	return res
}
