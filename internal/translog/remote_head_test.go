package translog

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/x509"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

// Hostile servers for the heads a Client carries but does not verify: a
// lookup's proof bundle, the co-signed head and a peer's gossip view.
// Each such head is checked once, by its relying party, and these tests
// pin that every relying party still refuses a head the log never
// signed.

// forgedHeads serves h, except that in every 200 reply to path the head
// under the JSON field has one bit of its signature flipped: a server
// handing out a head its log never signed. A reply it cannot decode goes
// out unchanged, and the test then fails on the missing refusal.
func forgedHeads(h http.Handler, path, field string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.URL.Path == path && rec.Code == http.StatusOK {
			body = flipHeadSignature(body, field)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// flipHeadSignature flips the last signature bit of the head under field
// in a JSON reply, keeping every other field as served.
func flipHeadSignature(body []byte, field string) []byte {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		return body
	}
	var head SignedTreeHead
	if err := json.Unmarshal(doc[field], &head); err != nil || len(head.Signature) == 0 {
		return body
	}
	head.Signature[len(head.Signature)-1] ^= 0x01
	raw, err := json.Marshal(head)
	if err != nil {
		return body
	}
	doc[field] = raw
	out, err := json.Marshal(doc)
	if err != nil {
		return body
	}
	return out
}

// remoteQuorumLog is a log server with a quorum co-signature collector
// beside it, whose head at size 7 (serial "77" at index 6) is co-signed
// by w0 and w1 of a 2-of-3 roster.
type remoteQuorumLog struct {
	key    *ecdsa.PrivateKey
	log    *Log
	col    *CosignCollector
	roster *WitnessRoster
	keys   map[string]*WitnessKey
	mux    http.Handler
}

func newRemoteQuorumLog(t *testing.T) *remoteQuorumLog {
	t.Helper()
	rq := &remoteQuorumLog{key: testSigner(t)}
	rq.log = mustLog(t, rq.key, append(mixedEntries(6), Entry{Type: EntryEnroll, Timestamp: 1, Actor: "fw-0", Serial: "77"}))
	rq.keys, rq.roster = testWitnessKeys(t, 3, 2)
	rq.col = NewCosignCollector(&rq.key.PublicKey, rq.roster)
	rq.cosign(t)
	mux := http.NewServeMux()
	cosignH := CosignHandler(rq.col)
	mux.Handle(pathGossip, cosignH)
	mux.Handle(pathCosigned, cosignH)
	mux.Handle("/", Handler(rq.log))
	rq.mux = mux
	return rq
}

// cosign has w0 and w1 co-sign the log's current head.
func (rq *remoteQuorumLog) cosign(t *testing.T) {
	t.Helper()
	head := rq.log.STH()
	for _, ws := range cosignAll(t, rq.keys, []string{"w0", "w1"}, head) {
		if _, err := rq.col.Submit(head, ws); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRemoteCheckersRefuseForgedLookupHead: a log server whose lookup
// reply carries a head with one flipped signature bit is refused with
// ErrBadSTH by both credential checkers over a remote tile proof source,
// with the checker's head memo cold and with it warm from an honest
// check of the same head.
func TestRemoteCheckersRefuseForgedLookupHead(t *testing.T) {
	rq := newRemoteQuorumLog(t)
	pub := &rq.key.PublicKey
	var srv swapHandler
	srv.set(rq.mux)
	ts := httptest.NewServer(&srv)
	defer ts.Close()
	client := NewClient(ts.URL, pub)
	source := NewTileProofSource(client, 0)
	checkers := map[string]func() func(cert *x509.Certificate) error{
		"log-gated": func() func(*x509.Certificate) error { return NewCredentialChecker(pub, source) },
		"quorum": func() func(*x509.Certificate) error {
			return NewQuorumCredentialChecker(NewWitness(pub), rq.roster, source, source, client.Cosigned)
		},
	}
	hostile := forgedHeads(rq.mux, pathLookup, "sth")
	for name, build := range checkers {
		t.Run(name+"/cold memo", func(t *testing.T) {
			srv.set(hostile)
			if err := build()(certWithSerial(77)); !errors.Is(err, ErrBadSTH) {
				t.Fatalf("forged lookup head: got %v, want ErrBadSTH", err)
			}
		})
		t.Run(name+"/warm memo", func(t *testing.T) {
			check := build()
			srv.set(rq.mux)
			if err := check(certWithSerial(77)); err != nil {
				t.Fatalf("honest remote proof refused: %v", err)
			}
			srv.set(hostile)
			if err := check(certWithSerial(77)); !errors.Is(err, ErrBadSTH) {
				t.Fatalf("forged lookup head after an honest check: got %v, want ErrBadSTH", err)
			}
			srv.set(rq.mux)
			if err := check(certWithSerial(77)); err != nil {
				t.Fatalf("honest remote proof refused after a forged one: %v", err)
			}
		})
	}
}

// TestQuorumCheckerRefusesForgedCosignedHead: a log server whose
// co-signed head carries a flipped signature bit — the witness
// signatures still verify, they cover only size and root — is refused
// with ErrBadSTH by the quorum checker, and the checker's pin does not
// advance: not from empty, and not past a pinned head once the log grew.
func TestQuorumCheckerRefusesForgedCosignedHead(t *testing.T) {
	rq := newRemoteQuorumLog(t)
	pub := &rq.key.PublicKey
	var srv swapHandler
	hostile := forgedHeads(rq.mux, pathCosigned, "sth")
	srv.set(hostile)
	ts := httptest.NewServer(&srv)
	defer ts.Close()
	client := NewClient(ts.URL, pub)
	source := NewTileProofSource(client, 0)
	pin := NewWitness(pub)
	check := NewQuorumCredentialChecker(pin, rq.roster, source, source, client.Cosigned)

	if err := check(certWithSerial(77)); !errors.Is(err, ErrBadSTH) {
		t.Fatalf("forged co-signed head: got %v, want ErrBadSTH", err)
	}
	if last, ok := pin.Last(); ok {
		t.Fatalf("pin advanced to size %d on a forged co-signed head", last.Size)
	}
	srv.set(rq.mux)
	if err := check(certWithSerial(77)); err != nil {
		t.Fatalf("honest co-signed head refused: %v", err)
	}
	pinned, _ := pin.Last()

	if _, err := rq.log.Append(Entry{Type: EntryEnroll, Timestamp: 2, Actor: "fw-1", Serial: "78"}); err != nil {
		t.Fatal(err)
	}
	rq.cosign(t)
	srv.set(hostile)
	if err := check(certWithSerial(78)); !errors.Is(err, ErrBadSTH) {
		t.Fatalf("forged co-signed head past the pin: got %v, want ErrBadSTH", err)
	}
	if last, _ := pin.Last(); !last.equal(pinned) {
		t.Fatalf("pin moved from size %d to %d on a forged co-signed head", pinned.Size, last.Size)
	}
}

// TestGossipPoolRefusesForgedPeerHead: a peer whose gossip view carries
// a head with a flipped signature bit makes the exchange fail with
// ErrBadSTH; the pool adopts nothing from it and convicts nothing — not
// even when the forged head is newer than what its own log serves,
// which an authentic head would make a rollback.
func TestGossipPoolRefusesForgedPeerHead(t *testing.T) {
	key := testSigner(t)
	pub := &key.PublicKey
	entries := mixedEntries(40)
	small, grown := mustLog(t, key, entries[:30]), mustLog(t, key, entries)
	smallSrv := httptest.NewServer(Handler(small))
	defer smallSrv.Close()
	grownSrv := httptest.NewServer(Handler(grown))
	defer grownSrv.Close()

	peer := NewGossipPool("peer", NewWitness(pub), NewClient(grownSrv.URL, pub))
	if err := peer.Exchange(); err != nil {
		t.Fatal(err)
	}
	var srv swapHandler
	peerSrv := httptest.NewServer(&srv)
	defer peerSrv.Close()

	t.Run("watching a smaller log", func(t *testing.T) {
		srv.set(forgedHeads(GossipHandler(peer), pathGossip, "head"))
		pool := NewGossipPool("watcher", NewWitness(pub), NewClient(smallSrv.URL, pub))
		pool.AddPeer(NewClient(peerSrv.URL, pub))
		if err := pool.Exchange(); !errors.Is(err, ErrBadSTH) {
			t.Fatalf("forged peer head: got %v, want ErrBadSTH", err)
		}
		if last, _ := pool.Witness().Last(); !last.equal(small.STH()) {
			t.Fatalf("watcher at size %d, want the served head at %d", last.Size, small.Size())
		}
		if c := pool.Conflict(); c != nil {
			t.Fatalf("forged peer head convicted the log: %v", c)
		}
	})
}

// TestExchangeGossipRefusesForgedHead: ExchangeGossip hands its caller
// the peer's head as verified, so a forged one is refused there with
// ErrBadSTH.
func TestExchangeGossipRefusesForgedHead(t *testing.T) {
	key := testSigner(t)
	pub := &key.PublicKey
	l := mustLog(t, key, mixedEntries(10))
	logSrv := httptest.NewServer(Handler(l))
	defer logSrv.Close()
	peer := NewGossipPool("peer", NewWitness(pub), NewClient(logSrv.URL, pub))
	head := l.STH()
	var srv swapHandler
	srv.set(forgedHeads(GossipHandler(peer), pathGossip, "head"))
	ts := httptest.NewServer(&srv)
	defer ts.Close()
	client := NewClient(ts.URL, pub)

	if _, _, err := client.ExchangeGossip("vm", head, true); !errors.Is(err, ErrBadSTH) {
		t.Fatalf("forged peer head: got %v, want ErrBadSTH", err)
	}
	srv.set(GossipHandler(peer))
	got, seen, err := client.ExchangeGossip("vm", head, true)
	if err != nil || !seen || !got.equal(head) {
		t.Fatalf("honest exchange: head at size %d, seen %v, err %v; want the posted head", got.Size, seen, err)
	}
}

// TestRemoteProveSerialPassesBundleThrough pins the transport contract:
// a remote ProveSerial, like the in-process one, hands back the bundle as
// the server sent it, head signature unchecked, and only the relying
// party's verification refuses it.
func TestRemoteProveSerialPassesBundleThrough(t *testing.T) {
	key := testSigner(t)
	l := mustLog(t, key, append(mixedEntries(6), Entry{Type: EntryEnroll, Timestamp: 1, Actor: "fw-0", Serial: "77"}))
	ts := httptest.NewServer(forgedHeads(Handler(l), pathLookup, "sth"))
	defer ts.Close()

	pb, err := NewTileProofSource(NewClient(ts.URL, &key.PublicKey), 0).ProveSerial("77")
	if err != nil {
		t.Fatalf("remote source refused a bundle it only carries: %v", err)
	}
	want := l.STH()
	if pb.STH.Size != want.Size || pb.STH.RootHash != want.RootHash || bytes.Equal(pb.STH.Signature, want.Signature) {
		t.Fatal("bundle head is not the served, forged head")
	}
	if err := pb.Verify(&key.PublicKey); !errors.Is(err, ErrBadSTH) {
		t.Fatalf("forged bundle: got %v, want ErrBadSTH", err)
	}
	pb.STH.Signature = want.Signature
	if err := pb.Verify(&key.PublicKey); err != nil {
		t.Fatalf("bundle with the log's own signature: %v", err)
	}
}

// mustLog returns an in-memory log holding entries.
func mustLog(t *testing.T, key *ecdsa.PrivateKey, entries []Entry) *Log {
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
