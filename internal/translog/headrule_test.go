package translog

import (
	"errors"
	"testing"
)

// proverFunc adapts a proof function to ConsistencyProver.
type proverFunc func(first, second uint64) ([]Hash, error)

func (f proverFunc) ConsistencyProof(first, second uint64) ([]Hash, error) { return f(first, second) }

// verdictClass names what a site made of a pair of heads.
func verdictClass(err error) string {
	var ce *ConflictError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &ce) && errors.Is(err, ErrRollback):
		return "rollback"
	case errors.As(err, &ce) && errors.Is(err, ErrSplitView):
		return "split-view"
	case errors.Is(err, ErrQuorumNotReached):
		return "quorum"
	default:
		return "degraded"
	}
}

// TestHeadRuleConformance feeds the same (have, got) pairs of log-signed
// heads through every site that judges two heads, and through the rule
// itself. Every site agrees with the rule except for its documented
// policy, applied before the rule:
//
//   - served advance: a served head smaller than the held one is a
//     rollback, convicted without a proof;
//   - peer merge: none — a lagging peer head passes once proven a prefix;
//   - quorum credential checker (have = the co-signed head its pin
//     advances to, got = the credential's proof head): a head beyond the
//     co-signed one is ErrQuorumNotReached; the pin itself advances as a
//     served advance does;
//   - cosign collector: no prover, so only equal sizes are judged.
//
// A proof fetch that fails degrades the site; it never convicts.
func TestHeadRuleConformance(t *testing.T) {
	key := testSigner(t)
	pub := &key.PublicKey
	cred := Entry{Type: EntryEnroll, Timestamp: 1, Actor: "fw-0", Serial: "77"}
	honest := []Entry{cred}
	forked := []Entry{cred, testEntry(1)}
	for i := 1; i < 8; i++ {
		honest = append(honest, testEntry(i))
		if i >= 2 {
			forked = append(forked, testEntry(100+i))
		}
	}
	logOf := func(entries []Entry) *Log {
		t.Helper()
		l, err := NewLog(key)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendBatch(entries); err != nil {
			t.Fatal(err)
		}
		return l
	}
	l4, l6, l8 := logOf(honest[:4]), logOf(honest[:6]), logOf(honest)
	f4, f6, f8 := logOf(forked[:4]), logOf(forked[:6]), logOf(forked)
	have := l6.STH()
	keys, roster := testWitnessKeys(t, 2, 2)
	cosigned := func(sth SignedTreeHead) *CosignedHead {
		return &CosignedHead{STH: sth, Signatures: cosignAll(t, keys, []string{"w0", "w1"}, sth)}
	}
	failing := func(uint64, uint64) ([]Hash, error) { return nil, errors.New("tile fetch failed") }

	rows := []struct {
		name      string
		got       *Log
		failFetch bool
		// The rule's verdict, then each site's: served advance, peer
		// merge, credential checker, cosign collector.
		rule, advance, merge, checker, collector string
	}{
		{"same head", l6, false, "ok", "ok", "ok", "ok", "ok"},
		{"forked root at the same size", f6, false, "split-view", "split-view", "split-view", "split-view", "split-view"},
		{"proven extension", l8, false, "ok", "ok", "ok", "quorum", "ok"},
		{"forked extension", f8, false, "split-view", "split-view", "split-view", "quorum", "ok"},
		{"proven prefix", l4, false, "ok", "rollback", "ok", "ok", "ok"},
		{"forked prefix", f4, false, "split-view", "rollback", "split-view", "split-view", "ok"},
		{"failed fetch for an extension", l8, true, "degraded", "degraded", "degraded", "quorum", "ok"},
		{"failed fetch for a prefix", l4, true, "degraded", "rollback", "degraded", "degraded", "ok"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			got := row.got.STH()
			prove := logProofs(l8).ConsistencyProof
			if row.failFetch {
				prove = failing
			}
			held := func() *Witness {
				w := NewWitness(pub)
				if err := w.Advance(have, nil); err != nil {
					t.Fatal(err)
				}
				return w
			}
			col := NewCosignCollector(pub, roster)
			ws, err := keys["w0"].Cosign(have)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := col.Submit(have, ws); err != nil {
				t.Fatal(err)
			}

			sites := []struct {
				name string
				want string
				err  error
			}{
				{"rule", row.rule, checkPrefix(have, got, prove)},
				{"served advance", row.advance, held().Advance(got, prove)},
				{"peer merge", row.merge, held().accept(got, prove, false)},
				{"quorum credential checker", row.checker, NewQuorumCredentialChecker(NewWitness(pub), roster, logProofs(row.got), proverFunc(prove),
					func() (*CosignedHead, error) { return cosigned(have), nil })(certWithSerial(77))},
				{"cosign collector", row.collector, func() error {
					ws, err := keys["w1"].Cosign(got)
					if err != nil {
						t.Fatal(err)
					}
					_, err = col.Submit(got, ws)
					return err
				}()},
			}
			for _, s := range sites {
				if c := verdictClass(s.err); c != s.want {
					t.Errorf("%s: %s (%v), want %s", s.name, c, s.err, s.want)
				}
				// Evidence always pairs the head held with the head observed.
				var ce *ConflictError
				if errors.As(s.err, &ce) && (ce.Have.Size != have.Size || ce.Got.Size != got.Size || ce.Got.RootHash != got.RootHash) {
					t.Errorf("%s: evidence %d/%d, want have %d, got %d", s.name, ce.Have.Size, ce.Got.Size, have.Size, got.Size)
				}
			}
		})
	}

	// A witness given no prover judges a larger head degraded; it never
	// adopts a head it did not prove.
	w := NewWitness(pub)
	if err := w.Advance(have, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Advance(l8.STH(), nil); verdictClass(err) != "degraded" {
		t.Fatalf("extension without a prover: %v", err)
	}
	if last, _ := w.Last(); last.Size != have.Size {
		t.Fatalf("witness adopted an unproven head of size %d", last.Size)
	}
}
