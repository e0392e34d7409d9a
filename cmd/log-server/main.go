// Command log-server runs the attestation transparency log as a
// standalone service, and doubles as the auditor that watches one.
//
// Serve mode hosts the Merkle log over HTTP. Tree heads are signed with
// the deployment CA key published by `verification-manager -init`, so
// every signed head chains to the same trust anchor the controller
// already holds:
//
//	log-server -state-dir ./state -addr 127.0.0.1:8879
//
// The Verification Manager (or any producer) appends entries via
// POST /translog/v1/append; controllers and VNFs fetch tree heads,
// entries, inclusion proofs and consistency proofs from the read
// endpoints. The server publishes its URL into the state directory.
//
// Monitor mode is the other side of the audit: a gossiping witness. It
// polls the log's signed tree heads, verifies that every new head is a
// consistency-proven extension of the last one, persists its
// last-accepted head in the state directory (a witness restart is not
// amnesia), and exchanges heads with peer witnesses over the gossip
// endpoints — so a local rollback of the log's statedir (WAL segments
// and persisted head rewound together, which the log's own recovery
// cannot see) is convicted by whoever remembers the newer head:
//
//	log-server -monitor -state-dir ./state -name w0 -interval 2s
//	log-server -monitor -state-dir ./state -name w1 -peers http://127.0.0.1:9001
//
// Without -peers, witnesses discover each other through the gossip URLs
// they publish into the shared state directory.
package main

import (
	"crypto/ecdsa"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vnfguard/internal/obs"
	"vnfguard/internal/pki"
	"vnfguard/internal/statedir"
	"vnfguard/internal/translog"
)

func main() {
	stateDir := flag.String("state-dir", "./state", "shared state directory")
	addr := flag.String("addr", "127.0.0.1:0", "listen address (serve mode)")
	monitor := flag.Bool("monitor", false, "audit a running log server instead of serving")
	logURL := flag.String("url", "", "log server URL (monitor mode; default: read from state dir)")
	interval := flag.Duration("interval", 2*time.Second, "poll/gossip exchange interval, jittered ±20% (monitor mode)")
	name := flag.String("name", "witness", "witness name (monitor mode): keys the persisted head and published gossip URL")
	gossipAddr := flag.String("gossip-addr", "127.0.0.1:0", "gossip listen address (monitor mode)")
	peers := flag.String("peers", "", "comma-separated peer witness gossip URLs (monitor mode; default: discover via state dir)")
	seal := flag.Bool("seal", false, "anchor the served log's tree head in an enclave-sealed monotonic counter (serve mode)")
	shards := flag.Int("shards", 0, "per-host WAL shard count for the served log (serve mode; >1 splits the WAL into per-host segment streams; 0 or 1 keeps one stream; fixed at store creation)")
	checkpointEvery := flag.Uint64("checkpoint-every", 0, "write an anchor-verified recovery checkpoint every N committed entries, so a restart replays only the WAL past it (serve mode; 0 disables)")
	quorum := flag.Int("quorum", 0, "per-shard witness quorum Q (serve mode; >0 partitions the witness audit plane and serves quorum co-signed heads; requires -witnesses)")
	witnessShards := flag.Int("witness-shards", 0, "audit-plane shard stream count (serve mode; 0 takes the store shard count, 1 for a one-stream store; must match the store shard count when the store has more than one stream)")
	witnessNames := flag.String("witnesses", "", "comma-separated witness names forming the co-signing roster (serve mode with -quorum; startup waits for each to publish its key)")
	nvFile := flag.String("sgx-nv", "sgx-nv-log-server.json", "platform NV file for -seal (models fuses+flash; keep it OUTSIDE the state dir)")
	wait := flag.Duration("wait", 30*time.Second, "how long to wait for shared material")
	metricsAddr := flag.String("metrics-addr", "127.0.0.1:0", "telemetry listen address (/metrics, /debug/vars, /debug/pprof); empty disables. The endpoint is unauthenticated — keep it loopback-bound.")
	flag.Parse()

	if _, err := obs.Start(*metricsAddr, log.Printf); err != nil {
		log.Fatal(err)
	}
	dir, err := statedir.Open(*stateDir)
	if err != nil {
		log.Fatal(err)
	}
	if *monitor {
		runMonitor(dir, *logURL, *name, *gossipAddr, *peers, *interval, *wait)
		return
	}
	runServe(dir, *addr, *seal, *nvFile, *shards, *checkpointEvery, *quorum, *witnessShards, *witnessNames, *wait)
}

// caPublicKey loads the deployment's log verification key from the
// published CA certificate.
func caPublicKey(dir *statedir.Dir, wait time.Duration) *ecdsa.PublicKey {
	caCertPEM, err := dir.WaitFor(statedir.FileCACert, wait)
	if err != nil {
		log.Fatalf("run `verification-manager -init` first: %v", err)
	}
	cert, err := pki.ParseCertPEM(caCertPEM)
	if err != nil {
		log.Fatal(err)
	}
	pub, ok := cert.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		log.Fatalf("CA key type %T unsupported", cert.PublicKey)
	}
	return pub
}

func runServe(dir *statedir.Dir, addr string, seal bool, nvFile string, shards int, checkpointEvery uint64, quorum, witnessShards int, witnessNames string, wait time.Duration) {
	caCertPEM, err := dir.WaitFor(statedir.FileCACert, wait)
	if err != nil {
		log.Fatalf("run `verification-manager -init` first: %v", err)
	}
	caKeyPEM, err := dir.WaitFor(statedir.FileCAKey, wait)
	if err != nil {
		log.Fatal(err)
	}
	ca, err := pki.LoadCA(caCertPEM, caKeyPEM)
	if err != nil {
		log.Fatal(err)
	}
	// The served log is durable: entries and signed tree heads live in a
	// WAL under the state directory, so a server restart resumes exactly
	// where it stopped instead of presenting auditors with an empty tree
	// (which a witness would — correctly — flag as a rollback). If the
	// on-disk state was rolled back or tampered with, this open refuses
	// to start; do not delete the store to "fix" it, that is the signal.
	// With -seal the refusal extends to a *consistent* rewind: the
	// newest head is pinned by an enclave-sealed monotonic counter in
	// the platform NV file (which models hardware — keep it outside the
	// state directory an attacker could rewind). No Close on shutdown:
	// the process only exits via log.Fatal, and every committed batch is
	// already fsynced — recovery picks up from the durable state exactly
	// as a crash would.
	// With -shards the WAL splits into per-host segment streams (each
	// record is stamped with its global index), letting a fleet
	// of producers land in parallel streams while every cycle still
	// commits one signed tree head. The layout is fixed when the store is
	// first created; reopening an existing store keeps its layout.
	cfg := translog.StoreConfig{Shards: shards, CheckpointEvery: checkpointEvery}
	if seal {
		caKey, err := statedir.ParseKeyPEM(caKeyPEM)
		if err != nil {
			log.Fatal(err)
		}
		p, err := translog.OpenSealedPlatform(dir, "log-server", nvFile, nil)
		if err != nil {
			log.Fatal(err)
		}
		anchor, err := translog.NewSealedHeadAnchor(p, caKey,
			filepath.Join(dir.Path(statedir.DirServerLog), translog.SealedHeadFileName),
			&caKey.PublicKey)
		if err != nil {
			log.Fatalf("launching sealed-head anchor: %v", err)
		}
		cfg.Anchors = append(cfg.Anchors, anchor)
		log.Printf("sealed-head anchor active: tree head pinned by enclave-sealed monotonic counter (NV: %s)", nvFile)
	}
	l, err := translog.OpenDurableLog(ca.Signer(), dir.Path(statedir.DirServerLog), cfg)
	if err != nil {
		log.Fatal(err)
	}
	// With -quorum the audit plane is partitioned: shard streams are
	// served so each witness reads only its assigned slice, the partition
	// shape is pinned into the state directory (every witness derives the
	// identical deterministic assignment from it), and a co-signature
	// collector turns ≥Q witness signatures over a head into the quorum
	// artifact relying parties fetch from /translog/v1/cosigned. The
	// collector runs beside the log, never under its commit lock.
	var cosigns *translog.CosignCollector
	if quorum > 0 {
		roster := strings.Split(witnessNames, ",")
		for i := range roster {
			roster[i] = strings.TrimSpace(roster[i])
		}
		roster = slicesNonEmpty(roster)
		if len(roster) == 0 {
			log.Fatal("-quorum requires -witnesses naming the co-signing roster")
		}
		streamShards := witnessShards
		if streamShards == 0 {
			streamShards = l.StoreShards()
		}
		if err := l.EnableShardStreams(streamShards); err != nil {
			log.Fatal(err)
		}
		pcfg := translog.PartitionConfig{Shards: streamShards, Quorum: quorum, Witnesses: roster}
		if err := translog.SavePartitionConfig(dir, pcfg); err != nil {
			log.Fatal(err)
		}
		keys, err := translog.WaitForWitnessRoster(dir, quorum, roster, wait)
		if err != nil {
			log.Fatalf("start the partitioned witnesses (log-server -monitor) first: %v", err)
		}
		pub, ok := ca.Signer().Public().(*ecdsa.PublicKey)
		if !ok {
			log.Fatalf("CA key type %T unsupported for co-signing", ca.Signer().Public())
		}
		cosigns = translog.NewCosignCollector(pub, keys)
		log.Printf("partitioned audit plane active: %d shard streams, quorum %d of %d witnesses", streamShards, quorum, len(roster))
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	if err := dir.Write(statedir.FileLogURL, []byte(url)); err != nil {
		log.Fatal(err)
	}
	sth := l.STH()
	if shards > 1 {
		log.Printf("per-host sharded WAL active: %d segment streams under one Merkle tree", shards)
	}
	log.Printf("transparency log serving at %s (tree size %d, recovered from %s)",
		url, sth.Size, dir.Path(statedir.DirServerLog))
	handler := http.Handler(translog.Handler(l))
	if cosigns != nil {
		mux := http.NewServeMux()
		ch := translog.CosignHandler(cosigns)
		mux.Handle("/translog/v1/gossip", ch)
		mux.Handle("/translog/v1/cosigned", ch)
		mux.Handle("/", handler)
		handler = mux
	}
	log.Fatal((&http.Server{Handler: handler}).Serve(ln))
}

// slicesNonEmpty drops empty strings from a slice in place.
func slicesNonEmpty(in []string) []string {
	out := in[:0]
	for _, s := range in {
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}

func runMonitor(dir *statedir.Dir, url, name, gossipAddr, peersFlag string, interval, wait time.Duration) {
	// Publish this witness's co-signing identity before anything blocks:
	// a quorum-mode log server waits for the whole roster's public keys
	// before it publishes its URL, and we wait for that URL below — so
	// announcing the key first is what lets the two startup orders
	// (witnesses-then-server, server-then-witnesses) both converge.
	cosignKey, err := translog.OpenWitnessKey(dir, name)
	if err != nil {
		log.Fatalf("opening co-signing key: %v", err)
	}
	if url == "" {
		raw, err := dir.WaitFor(statedir.FileLogURL, wait)
		if err != nil {
			log.Fatalf("no -url and no published log URL (start log-server): %v", err)
		}
		url = string(raw)
	}
	pub := caPublicKey(dir, wait)
	client := translog.NewClient(url, pub)
	// The witness's last-accepted head and shard-audit cursors live in
	// the state directory: a restart resumes from remembered history
	// instead of re-anchoring at whatever the log serves next — the
	// amnesia a rollback attack needs.
	witness, err := translog.OpenWitnessState(dir, name, pub)
	if err != nil {
		log.Fatalf("restoring witness state: %v", err)
	}
	if last, seen := witness.Last(); seen {
		log.Printf("witness %q restored persisted head: size=%d root=%x…", name, last.Size, last.RootHash[:8])
	}
	pool := translog.NewGossipPool(name, witness, client)

	// A deployment with a pinned witness partition runs this witness in
	// partitioned mode: audit only the assigned shard streams, gossip the
	// audit marks, and co-sign heads whose assigned slice checked out. The
	// log server writes the partition file before publishing its URL, so
	// having the URL means the pin (when there is one) is readable.
	if pcfg, err := translog.LoadPartitionConfig(dir); err == nil {
		part, perr := pcfg.Partition()
		if perr != nil {
			log.Fatal(perr)
		}
		if len(part.AssignedShards(name)) > 0 {
			if perr := pool.EnablePartition(part, cosignKey); perr != nil {
				log.Fatal(perr)
			}
			log.Printf("partitioned witness %q: auditing shards %v of %d (quorum %d of %d)",
				name, part.AssignedShards(name), part.Shards(), part.Quorum(), len(part.Names()))
		} else {
			log.Printf("witness %q is outside the pinned partition roster %v; running unpartitioned", name, part.Names())
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		log.Fatal(err)
	}

	// Serve our side of the gossip protocol and publish where to find it.
	ln, err := net.Listen("tcp", gossipAddr)
	if err != nil {
		log.Fatal(err)
	}
	gossipURL := "http://" + ln.Addr().String()
	if err := dir.Write(statedir.WitnessURLFile(name), []byte(gossipURL)); err != nil {
		log.Fatal(err)
	}
	go func() {
		log.Fatal((&http.Server{Handler: translog.GossipHandler(pool)}).Serve(ln))
	}()

	// Peer set: explicit -peers, or the gossip URLs other witnesses have
	// published into the state directory. Discovery re-runs every round
	// and rebuilds the set wholesale, so a peer that restarted onto a new
	// port replaces its dead URL instead of haunting every exchange.
	current := map[string]bool{}
	refreshPeers := func() int {
		var urls []string
		if peersFlag != "" {
			urls = strings.Split(peersFlag, ",")
		} else {
			names, err := dir.Match(statedir.WitnessURLPattern)
			if err != nil {
				log.Printf("discovering peers: %v", err)
				return len(current)
			}
			for _, entry := range names {
				if u, err := dir.ReadString(entry); err == nil {
					urls = append(urls, u)
				}
			}
		}
		next := map[string]bool{}
		clients := make([]*translog.Client, 0, len(urls))
		for _, u := range urls {
			u = strings.TrimSpace(u)
			if u == "" || u == gossipURL || next[u] { // never gossip with ourselves
				continue
			}
			next[u] = true
			clients = append(clients, translog.NewClient(u, pub))
			if !current[u] {
				log.Printf("gossiping with peer witness at %s", u)
			}
		}
		for u := range current {
			if !next[u] {
				log.Printf("dropping departed peer witness at %s", u)
			}
		}
		current = next
		pool.SetPeers(clients)
		return len(clients)
	}
	peerCount := refreshPeers()

	log.Printf("witness %q monitoring %s (gossip at %s, %d peer(s), exchange every %s jittered)",
		name, url, gossipURL, peerCount, interval)
	stop := make(chan struct{}) // the process only exits via log.Fatal
	pool.Loop(interval, stop, func(err error) {
		// A conviction — from our own poll, a corroborated peer claim, or
		// a head a peer pushed at our endpoint — is the witness's reason
		// to exist: report loudly with the evidence and exit non-zero so
		// operators page on it.
		if ce := pool.Conflict(); ce != nil {
			fatalConflict(name, ce)
		}
		var ce *translog.ConflictError
		if errors.As(err, &ce) {
			fatalConflict(name, ce)
		}
		// The heartbeat always prints the held head, so a flaky peer
		// cannot silence the liveness signal operators watch for.
		last, seen := witness.Last()
		switch {
		case err != nil && seen:
			log.Printf("tree head held: size=%d root=%x… peers=%d (exchange degraded: %v)",
				last.Size, last.RootHash[:8], peerCount, err)
		case err != nil:
			log.Printf("exchange degraded (no head anchored yet): %v", err)
		default:
			log.Printf("tree head ok: size=%d root=%x… peers=%d", last.Size, last.RootHash[:8], peerCount)
		}
		peerCount = refreshPeers()
	})
}

// fatalConflict reports a conviction with its self-certifying evidence:
// the two log-signed heads no append-only history can contain.
func fatalConflict(name string, ce *translog.ConflictError) {
	evidence, err := json.MarshalIndent(ce, "", "  ")
	if err != nil {
		evidence = []byte(ce.Error())
	}
	log.Printf("evidence (two irreconcilable signed heads):\n%s", evidence)
	log.Fatalf("AUDIT FAILURE (witness %q): %v", name, ce)
}
