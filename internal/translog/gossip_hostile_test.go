package translog

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// swapHandler serves whichever handler was set last, so one log URL can
// turn hostile between two gossip exchanges.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load().(*http.Handler)).ServeHTTP(w, r)
}

// badTiles serves l, except that every tile request is answered by tile.
func badTiles(l *Log, tile http.HandlerFunc) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", Handler(l))
	mux.HandleFunc(pathTile, tile)
	return mux
}

// TestGossipHostileLogServers: a pool whose proofs come only from tiles,
// watching a server that turns hostile after the pool adopted its head.
// A forked or rolled-back server is convicted, and the conviction stays
// latched; a server that cannot serve its tiles leaves the witness
// degraded — the exchange fails, nothing is convicted, and the witness
// advances once the tiles come back.
func TestGossipHostileLogServers(t *testing.T) {
	key := testSigner(t)
	entries := mixedEntries(700)
	logOf := func(es []Entry) *Log {
		t.Helper()
		l, err := NewLog(key)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendBatch(es); err != nil {
			t.Fatal(err)
		}
		return l
	}
	forkOf := func(n int) *Log {
		es := append([]Entry(nil), entries[:n]...)
		es[300].Detail = "forked"
		return logOf(es)
	}
	honest, grown := logOf(entries[:600]), logOf(entries)
	corrupt := func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		Handler(grown).ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if len(body) > 0 {
			body[len(body)/2] ^= 0x01
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}
	for _, tc := range []struct {
		name    string
		hostile http.Handler
		convict error // nil: degraded, not convicted
	}{
		{"fork at the same size", Handler(forkOf(600)), ErrSplitView},
		{"larger fork", Handler(forkOf(700)), ErrSplitView},
		{"rolled back", Handler(logOf(entries[:500])), ErrRollback},
		{"tiles 404", badTiles(grown, http.NotFound), nil},
		{"corrupt tile framing", badTiles(grown, corrupt), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var srv swapHandler
			srv.set(Handler(honest))
			ts := httptest.NewServer(&srv)
			defer ts.Close()
			pool := NewGossipPool("w0", NewWitness(&key.PublicKey), NewClient(ts.URL, &key.PublicKey))
			if err := pool.Exchange(); err != nil {
				t.Fatal(err)
			}
			srv.set(tc.hostile)
			err := pool.Exchange()
			if tc.convict == nil {
				if err == nil {
					t.Fatal("exchange succeeded without the tiles its proof needs")
				}
				if c := pool.Conflict(); c != nil {
					t.Fatalf("unservable tiles convicted the log: %v", c)
				}
				if last, _ := pool.Witness().Last(); last.Size != 600 {
					t.Fatalf("witness moved to size %d without a proof", last.Size)
				}
				srv.set(Handler(grown))
				if err := pool.Exchange(); err != nil {
					t.Fatalf("healed tiles: %v", err)
				}
				if last, _ := pool.Witness().Last(); last.Size != 700 {
					t.Fatalf("witness at size %d after the tiles healed, want 700", last.Size)
				}
				return
			}
			if !errors.Is(err, tc.convict) {
				t.Fatalf("exchange: got %v, want %v", err, tc.convict)
			}
			c := pool.Conflict()
			if c == nil || !errors.Is(c, tc.convict) {
				t.Fatalf("latched conviction %v, want %v", c, tc.convict)
			}
			if err := c.Verify(&key.PublicKey); err != nil {
				t.Fatalf("evidence does not self-certify: %v", err)
			}
			srv.set(Handler(honest))
			pool.Exchange()
			if pool.Conflict() != c {
				t.Fatal("conviction not latched across a later honest exchange")
			}
		})
	}
}

// TestGossipPartitionedAuditFromTiles: a partitioned witness audits its
// shard streams with inclusion proofs folded from the log's tiles — the
// server computes no proof — and audits every stream entry under the
// head in one exchange.
func TestGossipPartitionedAuditFromTiles(t *testing.T) {
	l, key := shardedTestLog(t, 4, 8, 40)
	srv := httptest.NewServer(Handler(l))
	defer srv.Close()
	part, err := NewWitnessPartition(4, []string{"wa"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewGossipPool("wa", NewWitness(&key.PublicKey), NewClient(srv.URL, &key.PublicKey))
	if err := pool.EnablePartition(part, nil); err != nil {
		t.Fatal(err)
	}
	if err := pool.Exchange(); err != nil {
		t.Fatal(err)
	}
	for _, s := range part.AssignedShards("wa") {
		total, _, err := l.ShardStream(s, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cur := pool.Witness().cursors[s]; cur == nil || cur.Count != total {
			t.Fatalf("shard %d stream of %d entries not fully audited after one exchange: cursor %+v", s, total, cur)
		}
	}
	if _, misses := pool.proofs.Stats(); misses == 0 {
		t.Fatal("shard audit never fetched a tile")
	}
	if pool.Conflict() != nil {
		t.Fatalf("honest log convicted: %v", pool.Conflict())
	}
}
