package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden tests load the packages under testdata/src (invisible to
// `go list`, so they never leak into the real lint run), run exactly one
// analyzer over them, and compare the post-suppression findings against
// `// want "substring"` annotations on the offending lines. Every
// testdata package carries positive cases, clean cases and a
// //lint:allow-suppressed case, so both halves of the contract — the
// rule fires, the written-justification escape hatch works — stay
// pinned.

var wantRe = regexp.MustCompile(`want "([^"]*)"`)

// loadTestdata loads one testdata package under its real module path,
// so module-local imports (the obs registry, the unusedexport target)
// resolve through the source importer.
func loadTestdata(t *testing.T, ld *Loader, rel string) *Unit {
	t.Helper()
	dir := filepath.Join("testdata", "src", rel)
	u, err := ld.LoadDir(dir, "vnfguard/internal/lint/testdata/src/"+rel)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return u
}

// checkGolden matches findings against the units' want annotations:
// every finding must land on a line with an unclaimed matching want,
// and every want must be claimed.
func checkGolden(t *testing.T, units []*Unit, as []*Analyzer, gs []*GlobalAnalyzer) {
	t.Helper()
	findings := RunAnalyzers(units, as, gs)

	type want struct {
		substr string
		used   bool
	}
	wants := map[string][]*want{}
	for _, u := range units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						pos := u.Fset.Position(c.Pos())
						key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
						wants[key] = append(wants[key], &want{substr: m[1]})
					}
				}
			}
		}
	}

	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.used && strings.Contains(f.Rule+": "+f.Message, w.substr) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s: expected a finding matching %q, got none", key, w.substr)
			}
		}
	}
}

func runGolden(t *testing.T, rel string, a *Analyzer) {
	t.Helper()
	ld := NewLoader()
	u := loadTestdata(t, ld, rel)
	checkGolden(t, []*Unit{u}, []*Analyzer{a}, nil)
}

func TestErrTaxonomyGolden(t *testing.T)   { runGolden(t, "errtaxonomy", ErrTaxonomy) }
func TestLockScopeGolden(t *testing.T)     { runGolden(t, "lockscope", LockScope) }
func TestObsHandleGolden(t *testing.T)     { runGolden(t, "obshandle", ObsHandle) }
func TestGoroutineTestGolden(t *testing.T) { runGolden(t, "goroutinetest", GoroutineTest) }

// TestAtomicWriteGolden approves the testdata package's own
// atomicWriteFile the way the real list approves statedir.ReplaceFile:
// by package path and name.
func TestAtomicWriteGolden(t *testing.T) {
	key := "vnfguard/internal/lint/testdata/src/atomicwrite.atomicWriteFile"
	approvedWriters[key] = true
	defer delete(approvedWriters, key)
	runGolden(t, "atomicwrite", AtomicWrite)
}

func TestUnusedExportGolden(t *testing.T) {
	old := unusedExportTargets
	unusedExportTargets = []string{"testdata/src/unusedexport/target"}
	defer func() { unusedExportTargets = old }()

	ld := NewLoader()
	target := loadTestdata(t, ld, "unusedexport/target")
	user := loadTestdata(t, ld, "unusedexport/user")
	checkGolden(t, []*Unit{target, user}, nil, []*GlobalAnalyzer{UnusedExport})
}

// TestAllowWithoutReason pins the reserved "lint" rule: a bare
// //lint:allow suppresses nothing and is itself reported.
func TestAllowWithoutReason(t *testing.T) {
	dir := t.TempDir()
	src := "package p\n\n//lint:allow atomicwrite\nvar x = 1\n"
	path := filepath.Join(dir, "bad.go")
	if err := os.WriteFile(path, []byte(src), 0o600); err != nil {
		t.Fatal(err)
	}
	u, err := NewLoader().LoadFiles("p", []string{path})
	if err != nil {
		t.Fatal(err)
	}
	findings := RunAnalyzers([]*Unit{u}, nil, nil)
	if len(findings) != 1 || findings[0].Rule != "lint" {
		t.Fatalf("want exactly one finding under rule lint, got %v", findings)
	}
	if findings[0].Pos.Line != 3 {
		t.Fatalf("finding at line %d, want 3", findings[0].Pos.Line)
	}
}

// TestSuppressionCoversSameAndNextLine pins the allow window: the
// directive's own line (trailing comment) and the line below (standalone
// comment), nothing further.
func TestSuppressionCoversSameAndNextLine(t *testing.T) {
	dir := t.TempDir()
	src := `package p

import "os"

func trailing(path string, b []byte) error {
	return os.WriteFile(path, b, 0o600) //lint:allow atomicwrite trailing-comment form
}

func above(path string, b []byte) error {
	//lint:allow atomicwrite standalone-comment form
	return os.WriteFile(path, b, 0o600)
}

func tooFar(path string, b []byte) error {
	//lint:allow atomicwrite two lines up does not reach

	return os.WriteFile(path, b, 0o600)
}
`
	path := filepath.Join(dir, "allow.go")
	if err := os.WriteFile(path, []byte(src), 0o600); err != nil {
		t.Fatal(err)
	}
	u, err := NewLoader().LoadFiles("p", []string{path})
	if err != nil {
		t.Fatal(err)
	}
	findings := RunAnalyzers([]*Unit{u}, []*Analyzer{AtomicWrite}, nil)
	if len(findings) != 1 {
		t.Fatalf("want exactly the out-of-window finding, got %v", findings)
	}
	if findings[0].Rule != "atomicwrite" || findings[0].Pos.Line != 17 {
		t.Fatalf("unexpected finding %v", findings[0])
	}
}
