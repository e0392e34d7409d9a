package experiment

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"vnfguard/internal/metrics"
	"vnfguard/internal/translog"
)

func TestRegistryListsE1ToE20Once(t *testing.T) {
	if len(Registry) != 20 {
		t.Fatalf("registry has %d experiments, want 20", len(Registry))
	}
	for i, e := range Registry {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Errorf("registry[%d] = %s, want %s", i, e.ID, want)
		}
		if strings.TrimSpace(e.Desc) == "" || e.Setup == nil {
			t.Errorf("%s: empty description or no setup", e.ID)
		}
	}
}

func TestSelect(t *testing.T) {
	ids := func(es []Experiment) (out []string) {
		for _, e := range es {
			out = append(out, e.ID)
		}
		return out
	}
	for _, tc := range []struct {
		list string
		want []string // nil: refused
	}{
		{"", ids(Registry)},
		{"E11,E13", []string{"E11", "E13"}},
		{" E13 , E2", []string{"E2", "E13"}},
		{"E99", nil},
		{"e11", nil},
		{"E11,E99", nil},
		{"E11,E11", nil},
		{"E11,", nil},
	} {
		got, err := Select(tc.list)
		if tc.want == nil {
			if err == nil {
				t.Errorf("Select(%q) = %v, want an error", tc.list, ids(got))
			} else if !strings.Contains(err.Error(), "twice") && !strings.Contains(err.Error(), "valid ids: E1,E2,") {
				t.Errorf("Select(%q) error %q lists no valid ids", tc.list, err)
			}
			continue
		}
		if err != nil || !slices.Equal(ids(got), tc.want) {
			t.Errorf("Select(%q) = %v, %v; want %v", tc.list, ids(got), err, tc.want)
		}
	}
}

func TestFailingBodyIsAnError(t *testing.T) {
	boom := errors.New("boom")
	released := false
	e := Experiment{ID: "X", Desc: "failing", Setup: func(env *Env) (*Plan, error) {
		env.cleanup(func() error { released = true; return nil })
		return &Plan{
			Cases: []Case{{Name: "fails", Body: func(int) error { return boom }}},
			Table: func(int, Results) (*metrics.Table, error) { return nil, errors.New("table built after a failure") },
		}, nil
	}}
	if _, _, err := Run(e, 3); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want the body's error", err)
	}
	if !released {
		t.Fatal("fixture not released after the failure")
	}
}

// TestRunLifecycle pins what both harnesses rely on: a case's own fixture
// is released before the next case runs, untimed work is left out of
// the per-operation time, and the shared fixture outlives the table.
func TestRunLifecycle(t *testing.T) {
	var events []string
	log := func(s string) func() error { return func() error { events = append(events, s); return nil } }
	e := Experiment{ID: "X", Desc: "lifecycle", Setup: func(env *Env) (*Plan, error) {
		env.cleanup(log("release shared"))
		return &Plan{
			Cases: []Case{
				{Name: "a", Ops: 2, Open: func(env *Env) (Body, error) {
					env.cleanup(log("release a"))
					return func(n int) error {
						events = append(events, fmt.Sprintf("a(%d)", n))
						return env.untimed(func() error { time.Sleep(30 * time.Millisecond); return nil })
					}, nil
				}},
				{Name: "b", Body: func(n int) error { return log(fmt.Sprintf("b(%d)", n))() }},
			},
			Table: func(runs int, r Results) (*metrics.Table, error) {
				events = append(events, fmt.Sprintf("table(%d)", runs))
				if a := r.Of("a"); a.Count != 2 || a.Mean > 10*time.Millisecond {
					return nil, fmt.Errorf("case a: %d calls, %v per op (untimed sleep counted?)", a.Count, a.Mean)
				}
				return metrics.NewTable("X", "col"), nil
			},
		}, nil
	}}
	if _, _, err := Run(e, 2); err != nil {
		t.Fatal(err)
	}
	want := []string{"a(2)", "a(2)", "release a", "b(1)", "b(1)", "table(2)", "release shared"}
	if !slices.Equal(events, want) {
		t.Fatalf("events %v, want %v", events, want)
	}
}

// TestEveryExperimentRunsOnce runs every case body once with one
// operation and builds every table, negative outcome rows included.
func TestEveryExperimentRunsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("assembles every experiment's fixture")
	}
	for _, e := range Registry {
		t.Run(e.ID, func(t *testing.T) {
			table, res, err := run(e, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, s := range res {
				if seen[s.Name] || s.Count != 1 {
					t.Errorf("case %s: duplicate name or %d calls", s.Name, s.Count)
				}
				seen[s.Name] = true
			}
			if data := table.Data(); len(data.Rows) == 0 || !strings.HasPrefix(data.Title, e.ID+" ") {
				t.Errorf("table %q has %d rows", data.Title, len(data.Rows))
			}
		})
	}
}

// TestAppendAndRecoveryCountEntries pins the counts the log cases check:
// an append body fails unless every entry was committed, and a recovery
// body unless it reopens exactly the population it wrote.
func TestAppendAndRecoveryCountEntries(t *testing.T) {
	ca, _, err := newCA()
	if err != nil {
		t.Fatal(err)
	}
	l, err := translog.NewLog(ca.Signer())
	if err != nil {
		t.Fatal(err)
	}
	if err := appendOneShard(l, 5); err != nil {
		t.Fatal(err)
	}
	if err := committed(l, 0, 6); err == nil || !strings.Contains(err.Error(), "committed 5 of 6 entries") {
		t.Fatalf("committed(5 of 6) = %v", err)
	}

	env := &Env{}
	defer env.Close()
	var dir string
	st := func(d string) (translog.StoreConfig, error) { dir = d; return translog.StoreConfig{}, nil }
	body, done, err := env.Open(Case{Name: "recovery", Open: recovery(ca, st, 100, 90)}, &stopwatch{})
	if err != nil {
		t.Fatal(err)
	}
	defer done()
	if err := body(2); err != nil {
		t.Fatal(err)
	}
	// A log that no longer holds the population the case wrote.
	grown, err := translog.OpenDurableLog(ca.Signer(), dir, translog.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(fill(grown, 100, 101, entry), grown.Close()); err != nil {
		t.Fatal(err)
	}
	if err := body(1); err == nil || !strings.Contains(err.Error(), "recovered 101 of 100 entries") {
		t.Fatalf("recovery of a grown log = %v", err)
	}
}
