package translog

import (
	"bytes"
	"crypto/ecdsa"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"vnfguard/internal/httpbody"
)

// Log-server REST paths (CT-inspired, JSON bodies).
const (
	pathSTH     = "/translog/v1/sth"
	pathEntries = "/translog/v1/entries"
	pathLookup  = "/translog/v1/lookup"
	pathAppend  = "/translog/v1/append"
	pathGossip  = "/translog/v1/gossip"
	// pathTile is the tile subtree: GET {level}/{index} for a full tile,
	// GET {level}/{index}.p/{width} for a partial right-edge tile.
	pathTile = "/translog/v1/tile/"
	// pathShard serves per-shard stream slices for the partitioned
	// witness audit; relying parties GET the newest quorum artifact from
	// pathCosigned. Witnesses deliver their co-signatures in their views
	// on pathGossip.
	pathShard    = "/translog/v1/shard"
	pathCosigned = "/translog/v1/cosigned"
)

// Cache-Control values. Everything a tile-based log serves is either
// immutable (named by content: full tiles and entry ranges below a
// signed head never change) or the one moving part (the head itself,
// the right edge), which must revalidate. Getting these right is what
// lets a plain HTTP cache in front of the log absorb the fan-out of
// millions of verifying clients.
const (
	cacheImmutable = "public, max-age=31536000, immutable"
	// cachePartialTile: a partial tile's named prefix never changes, but
	// clients soon want a wider one — short-lived, not revalidate-always.
	cachePartialTile = "public, max-age=60"
	cacheNoCache     = "no-cache"
)

// Client-side protocol errors.
var (
	// ErrAppendRejected reports a batch the server refused as invalid
	// (HTTP 400): resubmitting the same batch cannot succeed, drop it.
	ErrAppendRejected = errors.New("translog: append rejected as invalid")
	// ErrLogUnavailable reports a transient server-side failure (HTTP
	// 503, e.g. a latched durable store): retry later.
	ErrLogUnavailable = errors.New("translog: log server unavailable")
)

// wireEntry is the JSON transport form: the canonical encoding travels
// verbatim so clients re-hash exactly the bytes the log committed.
type wireEntry struct {
	Canonical []byte `json:"canonical"`
}

// wireBundle is the lookup reply: a serial's entry, its index and the
// signed head it is committed under. It carries no audit path — clients
// fold that from tiles — so a client still expecting a server-computed
// path gets none, and its verification fails instead of passing.
type wireBundle struct {
	Index uint64         `json:"index"`
	Entry []byte         `json:"entry"`
	STH   SignedTreeHead `json:"sth"`
}

// MarshalJSON encodes hashes as base64 strings on the wire.
func (h Hash) MarshalJSON() ([]byte, error) {
	return json.Marshal(base64.StdEncoding.EncodeToString(h[:]))
}

// UnmarshalJSON decodes the base64 wire form.
func (h *Hash) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil || len(raw) != len(h) {
		return fmt.Errorf("translog: bad hash encoding")
	}
	copy(h[:], raw)
	return nil
}

// Handler serves the log over HTTP. The append endpoint is meant for the
// Verification Manager only; deployments bind the server to a loopback or
// management network (the proofs, not the transport, carry the trust).
func Handler(l *Log) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+pathSTH, func(w http.ResponseWriter, r *http.Request) {
		// The head is the one response that must always revalidate: a
		// cache serving yesterday's head would hide yesterday's appends.
		w.Header().Set("Cache-Control", cacheNoCache)
		writeJSON(w, l.STH())
	})
	mux.HandleFunc("GET "+pathEntries, func(w http.ResponseWriter, r *http.Request) {
		start, err1 := queryUint(r, "start")
		count, err2 := queryUint(r, "count")
		if err1 != nil || err2 != nil {
			http.Error(w, "bad start/count", http.StatusBadRequest)
			return
		}
		// A range strictly below the signed head can never change — the
		// log is append-only and the head is its commitment — so the
		// response is immutable and any front cache may keep it forever.
		// Ranges touching the head are clamped responses that grow on the
		// next append; those must revalidate. The head is read before the
		// entries, so an immutable range is never a clamped one.
		cache := cacheNoCache
		if count > 0 && start+count >= start && start+count <= l.STH().Size {
			cache = cacheImmutable
		}
		entries, err := l.Entries(start, count)
		if err != nil {
			// A cold range whose segments cannot be read is an outage,
			// not an empty range: no cache may keep this answer.
			w.Header().Set("Cache-Control", cacheNoCache)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Cache-Control", cache)
		out := make([]wireEntry, len(entries))
		for i, e := range entries {
			out[i] = wireEntry{Canonical: e.Marshal()}
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("GET "+pathTile, func(w http.ResponseWriter, r *http.Request) {
		serveTile(l, w, r)
	})
	mux.HandleFunc("GET "+pathShard, func(w http.ResponseWriter, r *http.Request) {
		shard, err0 := queryUint(r, "shard")
		start, err1 := queryUint(r, "start")
		count, err2 := queryUint(r, "count")
		if err0 != nil || err1 != nil || err2 != nil {
			http.Error(w, "bad shard/start/count", http.StatusBadRequest)
			return
		}
		total, entries, err := l.ShardStream(int(shard), start, count)
		if err != nil {
			// A shard the log does not stream is the caller's error; a
			// cold range the store cannot read is an outage, and no cache
			// may keep it.
			status := http.StatusBadRequest
			if errors.Is(err, ErrStateCorrupt) || errors.Is(err, ErrStateTampered) {
				status = http.StatusInternalServerError
				w.Header().Set("Cache-Control", cacheNoCache)
			}
			http.Error(w, err.Error(), status)
			return
		}
		// A fully satisfied slice is named by content — the shard stream
		// is a filtered view of an append-only sequence — and may be
		// cached forever; a clamped slice grows on the next append.
		if count > 0 && uint64(len(entries)) == count {
			w.Header().Set("Cache-Control", cacheImmutable)
		} else {
			w.Header().Set("Cache-Control", cacheNoCache)
		}
		writeJSON(w, wireShardStream{Total: total, Entries: entries})
	})
	mux.HandleFunc("GET "+pathLookup, func(w http.ResponseWriter, r *http.Request) {
		serial := r.URL.Query().Get("serial")
		if serial == "" {
			http.Error(w, "missing serial", http.StatusBadRequest)
			return
		}
		// No audit path: clients fold it locally from cached tiles, so
		// the sequencer's machine does a map read and an entry copy,
		// nothing more.
		pb, err := l.lookupBundle(serial)
		if err != nil {
			// Revoked and never-logged are distinct verdicts for a
			// relying party; encode the difference in the status code so
			// clients never have to parse prose. Anything else (a cold
			// entry whose segments cannot be read) is an outage, not a
			// verdict, and no cache may keep it.
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, ErrNotLogged):
				status = http.StatusNotFound
			case errors.Is(err, ErrLogRevoked):
				status = http.StatusGone
			default:
				w.Header().Set("Cache-Control", cacheNoCache)
			}
			http.Error(w, err.Error(), status)
			return
		}
		writeJSON(w, wireBundle{Index: pb.Index, Entry: pb.Entry.Marshal(), STH: pb.STH})
	})
	mux.HandleFunc("POST "+pathAppend, func(w http.ResponseWriter, r *http.Request) {
		body, ok := httpbody.ReadRequest(w, r, maxAppendBody)
		if !ok {
			return
		}
		var in []wireEntry
		if err := json.Unmarshal(body, &in); err != nil {
			http.Error(w, "malformed batch", http.StatusBadRequest)
			return
		}
		batch := make([]Entry, len(in))
		for i, we := range in {
			e, err := unmarshalEntry(we.Canonical)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			batch[i] = e
		}
		indices, err := l.AppendBatch(batch)
		if err != nil {
			// The status code is the producer's retry policy: 400 means
			// the batch itself is unacceptable (drop it), 503 means the
			// store is latched failed or closed (retry against a healed
			// server), 500 is everything else.
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, ErrEntryTooLarge):
				status = http.StatusBadRequest
			case errors.Is(err, ErrStoreFailed):
				status = http.StatusServiceUnavailable
			}
			http.Error(w, err.Error(), status)
			return
		}
		writeJSON(w, map[string]any{"indices": indices, "sth": l.STH()})
	})
	return mux
}

// serveTile answers GET /translog/v1/tile/{level}/{index} (full tiles)
// and GET /translog/v1/tile/{level}/{index}.p/{width} (partial right-
// edge tiles). The body is the checksummed tile framing of the tree's
// nodes at those coordinates. Full tiles are immutable forever; partial
// tiles are short-lived. Requests past the committed head 404 so caches
// never memorise a right edge that does not exist yet; a tile the store
// cannot read is a 500 marked no-cache. ({index}.p is
// not a valid ServeMux wildcard segment, so the subtree is parsed by
// hand.)
func serveTile(l *Log, w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, pathTile)
	parts := strings.Split(rest, "/")
	width := TileWidth
	var levelStr, indexStr string
	switch len(parts) {
	case 2:
		levelStr, indexStr = parts[0], parts[1]
	case 3:
		levelStr = parts[0]
		var ok bool
		indexStr, ok = strings.CutSuffix(parts[1], ".p")
		if !ok {
			http.Error(w, "bad tile path", http.StatusNotFound)
			return
		}
		pw, err := strconv.Atoi(parts[2])
		if err != nil || pw <= 0 || pw >= TileWidth {
			http.Error(w, "bad tile width", http.StatusNotFound)
			return
		}
		width = pw
	default:
		http.Error(w, "bad tile path", http.StatusNotFound)
		return
	}
	level, err1 := strconv.ParseUint(levelStr, 10, 64)
	index, err2 := strconv.ParseUint(indexStr, 10, 64)
	if err1 != nil || err2 != nil {
		http.Error(w, "bad tile coordinates", http.StatusNotFound)
		return
	}
	t, err := l.Tile(level, index, width)
	if err != nil {
		// Only a tile past the committed head is "no such tile"; a tile
		// the store cannot read is an outage no cache may keep.
		status := http.StatusNotFound
		if !errors.Is(err, ErrTileRange) {
			status = http.StatusInternalServerError
			w.Header().Set("Cache-Control", cacheNoCache)
		}
		http.Error(w, err.Error(), status)
		return
	}
	mTileHTTP.Inc()
	if width == TileWidth {
		w.Header().Set("Cache-Control", cacheImmutable)
	} else {
		w.Header().Set("Cache-Control", cachePartialTile)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(encodeTile(t))
}

// wireGossip carries one witness's view on the gossip wire: its name (for
// evidence attribution in logs), last-accepted head, in partitioned mode
// the audit marks over its assigned shard streams, and — once it holds a
// co-signing key and has audited its slice up to the head — its
// co-signature over that head. A witness carrying no mark for a shard is
// making no claim about it; absence is ignorance, never testimony (see
// Witness.mergeShardMarks).
type wireGossip struct {
	Name  string            `json:"name,omitempty"`
	Seen  bool              `json:"seen"`
	Head  SignedTreeHead    `json:"head"`
	Marks []wireShardMark   `json:"marks,omitempty"`
	Cosig *WitnessSignature `json:"cosig,omitempty"`
}

// wireShardMark is one audited shard cursor on the gossip wire.
type wireShardMark struct {
	Shard int    `json:"shard"`
	Count uint64 `json:"count"`
	Mark  Hash   `json:"mark"`
}

// wireShardStream is the shard endpoint's response: the stream's total
// length plus the requested slice.
type wireShardStream struct {
	Total   uint64         `json:"total"`
	Entries []IndexedEntry `json:"entries"`
}

// wireRefusal is the 400 body of a view receiver. Code names the
// sentinel behind the refusal, so the sender's errors.Is sees the
// receiver's verdict instead of a flattened status string.
type wireRefusal struct {
	Code  string `json:"code,omitempty"`
	Error string `json:"error"`
}

// refusals maps each refusal code to its sentinel; an error wraps at
// most one of them.
var refusals = map[string]error{"bad-sth": ErrBadSTH, "unknown-witness": ErrUnknownWitness,
	"duplicate-witness": ErrDuplicateWitness, "cosign-invalid": ErrCosignInvalid}

func (rej wireRefusal) toError() error {
	if sentinel, ok := refusals[rej.Code]; ok {
		return fmt.Errorf("%w: %s", sentinel, rej.Error)
	}
	return fmt.Errorf("translog client: gossip refused: %s", rej.Error)
}

// GossipHandler serves a witness's side of head gossip. GET returns the
// witness's view; POST receives a peer's view, merges it, and answers
// with our own (see serveView).
func GossipHandler(p *GossipPool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+pathGossip, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, p.localView())
	})
	mux.HandleFunc("POST "+pathGossip, func(w http.ResponseWriter, r *http.Request) {
		serveView(w, r, p.receiveView)
	})
	return mux
}

// CosignHandler serves the log server's side of the quorum protocol.
// POST /translog/v1/gossip receives a witness's view carrying its
// co-signature (see serveView) and answers with a view that holds no
// head. GET /translog/v1/cosigned serves the newest quorum co-signed
// head, or 404 while quorum is outstanding.
func CosignHandler(col *CosignCollector) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+pathGossip, func(w http.ResponseWriter, r *http.Request) {
		serveView(w, r, col.receiveView)
	})
	mux.HandleFunc("GET "+pathCosigned, func(w http.ResponseWriter, r *http.Request) {
		ch, err := col.Cosigned()
		switch {
		case err == nil:
			w.Header().Set("Cache-Control", cacheNoCache)
			writeJSON(w, ch)
		case errors.Is(err, ErrQuorumNotReached):
			http.Error(w, err.Error(), http.StatusNotFound)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

// serveView answers one POSTed view for its receiver: a witness's pool
// or the log server's collector. A body over 1 MiB is 413. Otherwise
// the receiver's verdict picks the reply: its own view (200), the
// self-verifying evidence of a conviction (409), or a refusal naming the
// sentinel behind it (400) — junk, a badly signed head or a bad
// co-signature never touches receiver state. Anything else is 500.
func serveView(w http.ResponseWriter, r *http.Request, receive func(wireGossip) (wireGossip, error)) {
	body, ok := httpbody.ReadRequest(w, r, 1<<20)
	if !ok {
		return
	}
	reply := func(status int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(v)
	}
	var in wireGossip
	if err := json.Unmarshal(body, &in); err != nil {
		reply(http.StatusBadRequest, wireRefusal{Error: "malformed view"})
		return
	}
	out, err := receive(in)
	code := ""
	for c, sentinel := range refusals {
		if errors.Is(err, sentinel) {
			code = c
		}
	}
	var ce *ConflictError
	switch {
	case err == nil:
		reply(http.StatusOK, out)
	case errors.As(err, &ce):
		reply(http.StatusConflict, ce)
	case code != "":
		reply(http.StatusBadRequest, wireRefusal{Code: code, Error: err.Error()})
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func queryUint(r *http.Request, key string) (uint64, error) {
	return strconv.ParseUint(r.URL.Query().Get(key), 10, 64)
}

// Client reads and writes a remote log server. With a public key it
// checks the heads it hands out as the log's word (STH, AppendSTH,
// ExchangeGossip). The heads it only carries to a party that verifies
// them — a lookup's proof bundle, the co-signed head, a GossipPool's
// views — it leaves to that party, so each is checked once.
type Client struct {
	base string
	pub  *ecdsa.PublicKey
	http *http.Client
}

// defaultClientTimeout bounds every log-server and gossip HTTP call. A
// witness or monitor must never hang forever on a stalled server — a log
// that stops answering is a finding, not a reason to stop auditing.
const defaultClientTimeout = 10 * time.Second

// clientConfig tunes the log client.
type clientConfig struct {
	// Timeout bounds each HTTP request end to end (default
	// defaultClientTimeout; negative disables the bound entirely).
	Timeout time.Duration
	// Transport overrides the HTTP transport (nil: net/http default).
	Transport http.RoundTripper
}

// NewClient builds a log client with the default request timeout; pub may
// be nil to skip the client's own head checks (trusted-channel setups).
func NewClient(baseURL string, pub *ecdsa.PublicKey) *Client {
	return newClientWithConfig(baseURL, pub, clientConfig{})
}

// sharedTransport is the pooled HTTP transport every log client in the
// process shares by default. Monitors, witnesses and tile assemblers
// construct clients freely (one per peer, per pool, per checker); with
// per-client transports each would keep its own idle-connection pool
// and tile fan-out would pay a TCP (and TLS) handshake per cold
// request. One shared pool means the second client to talk to a server
// reuses the first one's connection — pinned by
// TestClientsShareTransportConnections.
var sharedTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 16
	return t
}()

// newClientWithConfig builds a log client with explicit tuning.
func newClientWithConfig(baseURL string, pub *ecdsa.PublicKey, cfg clientConfig) *Client {
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = defaultClientTimeout
	}
	if timeout < 0 {
		timeout = 0
	}
	transport := cfg.Transport
	if transport == nil {
		transport = sharedTransport
	}
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		pub:  pub,
		http: &http.Client{Timeout: timeout, Transport: transport},
	}
}

// Reply caps: the most bytes a Client reads of one reply body. A reply
// past its cap is refused whole with ErrResponseTooLarge; the client
// refuses it rather than pages it.
const (
	maxReplyBytes     = 4 << 20  // head, entries, shard slices, lookup
	maxTileReplyBytes = 64 << 10 // one framed tile
	maxPostReplyBytes = 1 << 20  // append and gossip replies, cosigned head
)

// ErrResponseTooLarge reports a log-server or witness reply body over
// the cap of the Client method that read it; the client refuses it whole
// rather than decode a truncated document.
var ErrResponseTooLarge = httpbody.ErrResponseTooLarge

// do sends one request — a GET when body is nil, else a JSON POST — and
// returns the reply's status and body, read through httpbody.ReadReply. what
// names the call in errors.
func (c *Client) do(what, path string, body []byte, limit int64) (int, []byte, error) {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = c.http.Get(c.base + path)
	} else {
		resp, err = c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		return 0, nil, fmt.Errorf("translog client: %s: %w", what, err)
	}
	defer resp.Body.Close()
	data, err := httpbody.ReadReply(resp, limit)
	if err != nil {
		// A peer that dies mid-body must surface as the transport error
		// it is, not as a truncated (or empty) server message.
		return 0, nil, fmt.Errorf("translog client: %s: reading response (status %d): %w", what, resp.StatusCode, err)
	}
	return resp.StatusCode, data, nil
}

// get fetches path and decodes its 200 reply into out.
func (c *Client) get(path string, out any) error {
	status, data, err := c.do("GET "+path, path, nil, maxReplyBytes)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("translog client: GET %s: status %d: %s", path, status, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

// STH fetches and (when a key is held) verifies the latest tree head.
func (c *Client) STH() (SignedTreeHead, error) {
	var sth SignedTreeHead
	if err := c.get(pathSTH, &sth); err != nil {
		return sth, err
	}
	if c.pub != nil {
		if err := sth.Verify(c.pub); err != nil {
			return sth, err
		}
	}
	return sth, nil
}

// Entries fetches committed entries in [start, start+count).
func (c *Client) Entries(start, count uint64) ([]Entry, error) {
	var wire []wireEntry
	if err := c.get(fmt.Sprintf("%s?start=%d&count=%d", pathEntries, start, count), &wire); err != nil {
		return nil, err
	}
	out := make([]Entry, len(wire))
	for i, we := range wire {
		e, err := unmarshalEntry(we.Canonical)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// Tile fetches the tile at (level, index) with the given width
// (TileWidth for a full tile). Tiles carry no signatures — they are
// only believed through the proofs they assemble into — so no key check
// happens here; the framing checksum and coordinate echo catch
// transport damage.
func (c *Client) Tile(level, index uint64, width int) (*Tile, error) {
	path := fmt.Sprintf("%s%d/%d", pathTile, level, index)
	if width != TileWidth {
		path = fmt.Sprintf("%s.p/%d", path, width)
	}
	status, data, err := c.do("GET "+path, path, nil, maxTileReplyBytes)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("translog client: GET %s: status %d: %s", path, status, strings.TrimSpace(string(data)))
	}
	t, terr := decodeTile(data)
	if terr != nil {
		return nil, fmt.Errorf("translog client: GET %s: %w", path, terr)
	}
	if t.Level != level || t.Index != index || t.Width() != width {
		return nil, fmt.Errorf("translog client: GET %s: server returned tile (%d, %d) width %d", path, t.Level, t.Index, t.Width())
	}
	return t, nil
}

// lookupBundle resolves a serial to its proof bundle minus the audit
// path: the tile assembler folds the path locally. Like Log.lookupBundle
// it checks nothing: the relying party verifies head and path together,
// the head through its memo. 404 and 410 are the log's verdicts
// (ErrNotLogged, ErrLogRevoked); any other status, a 5xx outage
// included, is a plain error and never a verdict.
func (c *Client) lookupBundle(serial string) (*ProofBundle, error) {
	status, data, err := c.do("lookup", pathLookup+"?serial="+url.QueryEscape(serial), nil, maxReplyBytes)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusOK:
	case http.StatusGone:
		return nil, ErrLogRevoked
	case http.StatusNotFound:
		return nil, fmt.Errorf("%w: serial %s", ErrNotLogged, serial)
	default:
		return nil, fmt.Errorf("translog client: lookup: status %d: %s", status, strings.TrimSpace(string(data)))
	}
	var wire wireBundle
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, err
	}
	entry, err := unmarshalEntry(wire.Entry)
	if err != nil {
		return nil, err
	}
	return &ProofBundle{Index: wire.Index, Entry: entry, STH: wire.STH}, nil
}

// Append submits a batch to the remote log (Verification Manager use).
func (c *Client) Append(batch []Entry) error {
	_, err := c.AppendSTH(batch)
	return err
}

// maxAppendBody caps one append request's body. The handler answers a
// longer one 413; AppendSTH splits a batch into requests under it.
const maxAppendBody = 4 << 20

// AppendSTH submits a batch and returns the server's fresh signed tree
// head covering it — the head a producer publishes to witnesses, so the
// witness set anchors on what the *server* signed, not on a head from a
// different log under the same key. A batch whose JSON passes
// maxAppendBody goes as consecutive requests, each under the cap, and
// the head is the last one's. A failed request returns its error after
// the requests before it have landed: the server's size says where a
// retry resumes.
func (c *Client) AppendSTH(batch []Entry) (SignedTreeHead, error) {
	body := []byte{'['}
	for _, e := range batch {
		elem, err := json.Marshal(wireEntry{Canonical: e.Marshal()})
		if err != nil {
			return SignedTreeHead{}, err
		}
		// Flush before this entry, its comma and the closing bracket
		// would pass the cap.
		if len(body) > 1 && len(body)+len(elem)+2 > maxAppendBody {
			if _, err := c.appendBody(append(body, ']')); err != nil {
				return SignedTreeHead{}, err
			}
			body = []byte{'['}
		}
		if len(body) > 1 {
			body = append(body, ',')
		}
		body = append(body, elem...)
	}
	return c.appendBody(append(body, ']'))
}

// appendBody posts one append request: a JSON array of wire entries.
func (c *Client) appendBody(body []byte) (SignedTreeHead, error) {
	status, data, err := c.do("append", pathAppend, body, maxPostReplyBytes)
	if err != nil {
		return SignedTreeHead{}, err
	}
	switch status {
	case http.StatusOK:
		var out struct {
			STH SignedTreeHead `json:"sth"`
		}
		if err := json.Unmarshal(data, &out); err != nil {
			return SignedTreeHead{}, fmt.Errorf("translog client: append response: %w", err)
		}
		if c.pub != nil {
			if err := out.STH.Verify(c.pub); err != nil {
				return SignedTreeHead{}, err
			}
		}
		return out.STH, nil
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		// The server classified the batch itself as unacceptable — bad
		// entries, or a body over its cap: the producer must drop it, not
		// retry it into the same wall.
		return SignedTreeHead{}, fmt.Errorf("%w: %s", ErrAppendRejected, strings.TrimSpace(string(data)))
	case http.StatusServiceUnavailable:
		return SignedTreeHead{}, fmt.Errorf("%w: %s", ErrLogUnavailable, strings.TrimSpace(string(data)))
	default:
		return SignedTreeHead{}, fmt.Errorf("translog client: append: status %d: %s", status, strings.TrimSpace(string(data)))
	}
}

// ExchangeGossip posts our last-accepted head (seen=false when we hold
// none) to a peer witness's gossip endpoint and returns the peer's view.
// The peer's head is signature-checked when a key is held: the caller
// takes it at face value, unlike a GossipPool, which merges views through
// its own check. A 409 response is the peer convicting the log on our
// evidence (or its own): it comes back as the *ConflictError it is, both
// signed heads attached and not yet verified — the reporting peer is not
// trusted, so the caller checks it with ConflictError.Verify.
func (c *Client) ExchangeGossip(name string, head SignedTreeHead, seen bool) (SignedTreeHead, bool, error) {
	out, err := c.exchangeView(wireGossip{Name: name, Seen: seen, Head: head})
	if err != nil {
		return SignedTreeHead{}, false, err
	}
	if out.Seen && c.pub != nil {
		if err := out.Head.Verify(c.pub); err != nil {
			return SignedTreeHead{}, false, err
		}
	}
	return out.Head, out.Seen, nil
}

// exchangeView is the one view exchange: with a peer witness (head and,
// between partitioned witnesses, shard audit marks) and with the log
// server's collector (head and co-signature). ExchangeGossip is the
// head-only wrapper the Verification Manager pushes its mirrored heads
// through (publishHeadToWitnesses). The reply's head is
// not checked here: GossipPool.mergeHead verifies every peer head once.
// A 409 is returned as the unverified *ConflictError it carries; a 400
// as the sentinel its refusal code names.
func (c *Client) exchangeView(v wireGossip) (wireGossip, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return wireGossip{}, err
	}
	status, data, err := c.do("gossip", pathGossip, body, maxPostReplyBytes)
	if err != nil {
		return wireGossip{}, err
	}
	switch status {
	case http.StatusOK:
		var out wireGossip
		if err := json.Unmarshal(data, &out); err != nil {
			return wireGossip{}, fmt.Errorf("translog client: gossip: %w", err)
		}
		return out, nil
	case http.StatusConflict:
		ce := new(ConflictError)
		if err := json.Unmarshal(data, ce); err != nil {
			return wireGossip{}, fmt.Errorf("translog client: gossip conflict undecodable: %w", err)
		}
		return wireGossip{}, ce
	case http.StatusBadRequest:
		var rej wireRefusal
		if err := json.Unmarshal(data, &rej); err != nil {
			rej = wireRefusal{Error: strings.TrimSpace(string(data))}
		}
		return wireGossip{}, rej.toError()
	default:
		return wireGossip{}, fmt.Errorf("translog client: gossip: status %d: %s",
			status, strings.TrimSpace(string(data)))
	}
}

// ShardStream fetches shard s's stream slice [start, start+count) and
// the stream's total length — the stream half of the witness's
// ShardAuditSource. The elements carry no signatures; each is believed
// only through the inclusion proof the auditing witness folds it into.
func (c *Client) ShardStream(shard int, start, count uint64) (uint64, []IndexedEntry, error) {
	var out wireShardStream
	if err := c.get(fmt.Sprintf("%s?shard=%d&start=%d&count=%d", pathShard, shard, start, count), &out); err != nil {
		return 0, nil, err
	}
	return out.Total, out.Entries, nil
}

// Cosigned fetches the newest quorum co-signed head (a CosignSource). A
// collector that has not yet reached quorum answers 404, surfaced as the
// ErrQuorumNotReached it is. Nothing is checked here: the caller
// verifies the artifact, log signature and witness set, with
// CosignedHead.Verify against its pinned roster — the server is exactly
// the party a quorum artifact must not be taken on faith from.
func (c *Client) Cosigned() (*CosignedHead, error) {
	status, data, err := c.do("cosigned", pathCosigned, nil, maxPostReplyBytes)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusOK:
		var ch CosignedHead
		if err := json.Unmarshal(data, &ch); err != nil {
			return nil, fmt.Errorf("translog client: cosigned: %w", err)
		}
		return &ch, nil
	case http.StatusNotFound:
		return nil, fmt.Errorf("%w: %s", ErrQuorumNotReached, strings.TrimSpace(string(data)))
	default:
		return nil, fmt.Errorf("translog client: cosigned: status %d: %s", status, strings.TrimSpace(string(data)))
	}
}
