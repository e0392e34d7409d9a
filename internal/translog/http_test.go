package translog

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// findingEntry is testEntry carrying an appraisal finding of realistic
// length, so ranges of a few ten thousand entries outgrow the caps.
func findingEntry(i int) Entry {
	e := testEntry(i)
	e.Detail = fmt.Sprintf("PCR10 mismatch: /usr/lib/vnf/%d.so measured %064x", i, i)
	return e
}

// TestClientResponseTooLarge: every Client method refuses a reply over
// its cap whole with ErrResponseTooLarge instead of decoding the
// truncated prefix, and a reply of exactly the cap still reads. A real
// 30,000-entry log's full entry range is such a reply.
func TestClientResponseTooLarge(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Entry, 30000)
	for i := range batch {
		batch[i] = findingEntry(i)
	}
	if _, err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(l))
	defer srv.Close()
	c := NewClient(srv.URL, &key.PublicKey)
	if got, err := c.Entries(0, 1000); err != nil || len(got) != 1000 {
		t.Fatalf("Entries(0, 1000): %d entries, %v", len(got), err)
	}
	if _, err := c.Entries(0, 30000); !errors.Is(err, ErrResponseTooLarge) {
		t.Fatalf("Entries(0, 30000): got %v, want ErrResponseTooLarge", err)
	}

	// A server answering every request with size bytes: a JSON object
	// padded with spaces, so a reply within the cap decodes.
	var size int
	pad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{" + strings.Repeat(" ", size-2) + "}"))
	}))
	defer pad.Close()
	pc := NewClient(pad.URL, nil)
	for _, tc := range []struct {
		name  string
		limit int
		call  func() error
	}{
		{"STH", maxReplyBytes, func() error { _, err := pc.STH(); return err }},
		{"Entries", maxReplyBytes, func() error { _, err := pc.Entries(0, 1); return err }},
		{"ShardStream", maxReplyBytes, func() error { _, _, err := pc.ShardStream(0, 0, 1); return err }},
		{"gossip GET", maxReplyBytes, func() error { return pc.get(pathGossip, new(wireGossip)) }},
		{"lookup", maxReplyBytes, func() error { _, err := pc.lookupBundle("1"); return err }},
		{"Tile", maxTileReplyBytes, func() error { _, err := pc.Tile(0, 0, TileWidth); return err }},
		{"AppendSTH", maxPostReplyBytes, func() error { _, err := pc.AppendSTH([]Entry{testEntry(0)}); return err }},
		{"ExchangeGossip", maxPostReplyBytes, func() error { _, _, err := pc.ExchangeGossip("w", SignedTreeHead{}, false); return err }},
		{"co-signed view", maxPostReplyBytes, func() error {
			_, err := pc.exchangeView(wireGossip{Seen: true, Cosig: &WitnessSignature{}})
			return err
		}},
		{"Cosigned", maxPostReplyBytes, func() error { _, err := pc.Cosigned(); return err }},
	} {
		size = tc.limit + 1
		if err := tc.call(); !errors.Is(err, ErrResponseTooLarge) {
			t.Errorf("%s with a %d-byte reply: got %v, want ErrResponseTooLarge", tc.name, size, err)
		}
	}
	size = maxReplyBytes
	if _, err := pc.STH(); err != nil {
		t.Fatalf("STH with a reply of exactly the cap: %v", err)
	}
}

// TestRequestBodyTooLarge: a well-formed request body over a handler's
// cap is refused whole with 413, never decoded truncated and called
// malformed. The producer still drops an over-size append batch: the
// client maps 413 to ErrAppendRejected.
func TestRequestBodyTooLarge(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	_, roster := testWitnessKeys(t, 3, 2)
	mux := http.NewServeMux()
	mux.Handle("/translog/v1/", Handler(l))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	mux.Handle(pathGossip, GossipHandler(NewGossipPool("w0", NewWitness(&key.PublicKey), NewClient(srv.URL, &key.PublicKey))))
	collector := httptest.NewServer(CosignHandler(NewCosignCollector(&key.PublicKey, roster)))
	defer collector.Close()

	batch := make([]Entry, 20000)
	for i := range batch {
		batch[i] = findingEntry(i)
	}
	wire := make([]wireEntry, len(batch))
	for i, e := range batch {
		wire[i] = wireEntry{Canonical: e.Marshal()}
	}
	appendBody, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(appendBody) <= 4<<20 {
		t.Fatalf("append body is %d bytes, want over the 4 MiB cap", len(appendBody))
	}
	gossipBody, err := json.Marshal(wireGossip{Name: strings.Repeat("w", 1<<20)})
	if err != nil {
		t.Fatal(err)
	}
	cosignBody, err := json.Marshal(wireGossip{Seen: true, Cosig: &WitnessSignature{Witness: strings.Repeat("w", 1<<20)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		url  string
		body []byte
	}{
		{srv.URL + pathAppend, appendBody},
		{srv.URL + pathGossip, gossipBody},
		{collector.URL + pathGossip, cosignBody},
	} {
		resp, err := http.Post(tc.url, "application/json", strings.NewReader(string(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", tc.url, len(tc.body), resp.StatusCode)
		}
	}
	if n := l.Size(); n != 0 {
		t.Fatalf("refused batches committed %d entries", n)
	}
}

// TestAppendSTHChunksOverCapBatch: the 20,000-entry batch whose single
// body the append handler refuses 413 mirrors fully through AppendSTH,
// which sends it as consecutive requests under the cap and returns the
// last head. A producer mirroring a long unmirrored suffix used to be
// refused with the not-retryable ErrAppendRejected on every run.
func TestAppendSTHChunksOverCapBatch(t *testing.T) {
	key := testSigner(t)
	l, err := NewLog(key)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var requests, largest int
	h := Handler(l)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == pathAppend {
			mu.Lock()
			requests++
			largest = max(largest, int(r.ContentLength))
			mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	batch := make([]Entry, 20000)
	for i := range batch {
		batch[i] = findingEntry(i)
	}
	sth, err := NewClient(srv.URL, &key.PublicKey).AppendSTH(batch)
	if err != nil {
		t.Fatal(err)
	}
	if n := l.Size(); n != uint64(len(batch)) || sth.Size != n {
		t.Fatalf("server holds %d entries, returned head %d, want %d", n, sth.Size, len(batch))
	}
	mu.Lock()
	defer mu.Unlock()
	if requests < 2 || largest > maxAppendBody {
		t.Fatalf("%d append requests, largest %d bytes: want several, each at most %d", requests, largest, maxAppendBody)
	}
	for i, want := range batch {
		if got := mustEntries(t, l, uint64(i), 1)[0]; got.Detail != want.Detail {
			t.Fatalf("entry %d: got %q, want %q", i, got.Detail, want.Detail)
		}
	}
}
