// Transparency audit: the Verification Manager is the deployment's trust
// oracle — this walkthrough shows how the attestation transparency log
// removes the need to take its word. It enrolls VNFs, then audits every
// decision from the outside: signed tree heads, inclusion proofs for
// credentials, consistency proofs across log growth, rejection of a
// CA-signed-but-unlogged certificate, mid-session revocation, a witness
// catching a split-view (forked-history) log, a VM kill-and-restart: the
// log is durable, so proofs issued before the restart still verify
// against post-restart tree heads — while a rolled-back statedir refuses
// to open at all. Then the attack local durability cannot see: a
// *consistent* rollback (WAL segments and persisted signed head
// rewound together) that reopens cleanly, goes unnoticed by a lone
// amnesiac witness, and is convicted by a gossiping witness set holding
// the two irreconcilable signed heads as evidence. The finale upgrades
// the attacker once more — rewinding the witness state too, total
// amnesia — and the enclave-sealed monotonic tree head still convicts,
// because its counter lives in platform hardware, not on any disk. The
// closing acts flip the dependency around: an auditor caches the log's
// content-addressed Merkle tiles while the server is up, the server is
// stopped outright, and fresh inclusion proofs still assemble and
// verify offline from the cache alone — and a fleet-scale audit plane
// partitions eight witnesses over eight shard streams so each verifies
// only its slice, quorum co-signs the head, and still convicts a
// single-shard rewind from a shard cursor alone.
//
//	go run ./examples/transparency-audit
package main

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vnfguard/internal/controller"
	"vnfguard/internal/core"
	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/epid"
	"vnfguard/internal/obs"
	"vnfguard/internal/pki"
	"vnfguard/internal/sgx"
	"vnfguard/internal/statedir"
	"vnfguard/internal/translog"
	"vnfguard/internal/vnf"
)

func main() {
	fmt.Println("vnfguard transparency audit — verifiable evidence for every trust decision")
	fmt.Println()

	// The telemetry endpoint every binary in the repo exposes via
	// -metrics-addr: the walkthrough scrapes it mid-act like an operator's
	// Prometheus would, and asserts the series the acts should move.
	metricsLn, err := obs.Default().Serve("127.0.0.1:0")
	check(err)
	defer metricsLn.Close()
	metricsURL := "http://" + metricsLn.Addr().String() + "/metrics"

	// The VM's log is durable: WAL segments plus a persisted signed tree
	// head under this directory, which act 5 reopens after a "crash".
	logDir, err := os.MkdirTemp("", "vnfguard-translog-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(logDir)

	d, err := core.NewDeployment(core.Options{
		Mode:    controller.ModeTrustedHTTPS,
		Trust:   controller.TrustCA,
		TLSMode: enclaveapp.TLSKeyInEnclave,
		LogDir:  logDir,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	tlog := d.VM.TransparencyLog()
	logKey := d.VM.CA().Certificate().PublicKey.(*ecdsa.PublicKey)

	// An auditor starts witnessing before anything happens: the genesis
	// tree head commits to the empty log.
	witness := translog.NewWitness(logKey)
	fetch := translog.NewLogTileProofSource(tlog, 0).ConsistencyProof
	genesis := tlog.STH()
	check(witness.Advance(genesis, fetch))
	fmt.Printf("witness anchored at genesis head (size %d)\n", genesis.Size)

	// Run the paper's workflow for two firewalls. Every attestation
	// verdict, enrollment and provisioning is committed to the log.
	for _, name := range []string{"fw-1", "fw-2"} {
		if err := d.DeployVNF(0, name, "firewall"); err != nil {
			log.Fatal(err)
		}
	}
	check(d.LearnGolden())
	if _, err := d.RunWorkflow(0, []vnf.VNF{core.StandardFirewall("fw-1"), core.StandardFirewall("fw-2")}); err != nil {
		log.Fatal(err)
	}
	check(d.VM.FlushLog())
	sth := tlog.STH()
	check(witness.Advance(sth, fetch))
	fmt.Printf("workflow logged: tree grew %d → %d entries, consistency proven\n", genesis.Size, sth.Size)
	logged, err := tlog.Entries(0, tlog.Size())
	check(err)
	for i, e := range logged {
		fmt.Printf("  [%d] %-12s actor=%-8s serial=%-4s %s\n", i, e.Type, e.Actor, e.Serial, e.Detail)
	}

	// Mid-act scrape: the workflow's verdicts are committed, so the
	// append and anchor series must already be moving.
	appendedMid := scrapeValue(metricsURL, "translog_appended_entries_total")
	anchorsMid := scrapeValue(metricsURL, `translog_anchor_commit_seconds_count{anchor="statedir-sth"}`)
	if appendedMid <= 0 || anchorsMid <= 0 {
		log.Fatalf("mid-act /metrics scrape: appended=%v anchor commits=%v, want both > 0", appendedMid, anchorsMid)
	}
	fmt.Printf("mid-act /metrics scrape: %.0f entries appended, %.0f statedir-sth anchor commits observed ✓\n\n", appendedMid, anchorsMid)

	// 1. Inclusion proof: anyone holding the CA certificate can verify a
	//    credential was issued by the logged workflow.
	enr, err := d.VM.Enrollment("fw-1")
	check(err)
	pb, err := d.VM.CredentialProof(enr.Serial)
	check(err)
	check(pb.Verify(logKey))
	fmt.Printf("credential %s: inclusion proven at index %d under signed head (size %d, %d-hash path)\n",
		enr.Serial, pb.Index, pb.STH.Size, len(pb.Proof))

	// 2. The controller demands that proof: a certificate minted straight
	//    from the CA key — bypassing attestation, and so the log — is
	//    rejected in trusted mode.
	rogueKey, err := pki.GenerateKey()
	check(err)
	csr, err := pki.CreateCSR("fw-rogue", rogueKey)
	check(err)
	rogueCert, err := d.VM.CA().SignClientCSR(csr, time.Hour)
	check(err)
	rogueCfg := &tls.Config{
		MinVersion: tls.VersionTLS12, RootCAs: d.VM.CA().Pool(), ServerName: core.ServerName,
		Certificates: []tls.Certificate{{Certificate: [][]byte{rogueCert.Raw}, PrivateKey: rogueKey}},
	}
	if _, err := controller.NewClient(d.ControllerURL(), rogueCfg).Summary(); err != nil {
		fmt.Println("rogue CA-signed certificate (never logged): controller rejected it ✓")
	} else {
		log.Fatal("rogue certificate accepted — transparency gate failed")
	}

	// 3. Mid-session revocation: an enrolled VNF with a live keep-alive
	//    session loses access the moment the VM revokes it.
	ce, err := d.Hosts[0].CredentialEnclave("fw-2")
	check(err)
	cfg, err := ce.ClientTLSConfig(core.ServerName)
	check(err)
	client := controller.NewClient(d.ControllerURL(), cfg)
	defer client.CloseIdle()
	if _, err := client.Summary(); err != nil {
		log.Fatal(err)
	}
	check(d.VM.RevokeVNF("fw-2"))
	if _, err := client.Summary(); err != nil {
		fmt.Println("fw-2 revoked: live session cut off on the next request ✓")
	} else {
		log.Fatal("revoked VNF kept its session")
	}
	check(witness.Advance(tlog.STH(), fetch))
	fmt.Printf("revocation logged and head advanced consistently (size %d)\n\n", tlog.STH().Size)

	// 4. Split view: a forked log signed by the same (stolen) CA key
	//    cannot fool a witness that has seen the honest history.
	forked, err := translog.NewLog(d.VM.CA().Signer())
	check(err)
	for i := 0; i < int(tlog.Size())+3; i++ {
		if _, err := forked.Append(translog.Entry{
			Type: translog.EntryEnroll, Timestamp: int64(i), Actor: "ghost", Serial: fmt.Sprint(9000 + i),
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := witness.Advance(forked.STH(), translog.NewLogTileProofSource(forked, 0).ConsistencyProof); err != nil {
		fmt.Printf("forked log presented: witness rejected it ✓ (%v)\n", err)
	} else {
		log.Fatal("witness accepted a forked history")
	}
	fmt.Println()

	// 5. Kill and restart: the VM dies, then its durable log is reopened
	//    from the same statedir. Recovery replays the WAL, rebuilds the
	//    tree, and verifies the recomputed root against the persisted
	//    signed head — so a restart is provably a continuation, not the
	//    silent history wipe an in-memory log would suffer (which a
	//    witness could not tell apart from a rollback attack). A
	//    checkpoint taken before the kill leaves the history on disk: the
	//    restart replays none of it, and a read of it fetches one tile.
	preSTH := tlog.STH()
	check(tlog.Checkpoint())
	check(d.VM.Close()) // the "kill": appender flushed, WAL tail fsynced
	reopened, err := translog.OpenDurableLog(d.VM.CA().Signer(), logDir, translog.StoreConfig{})
	check(err)
	defer reopened.Close()
	fmt.Printf("VM restarted from its checkpoint: %d entries recovered, root verified against persisted signed head\n", reopened.Size())

	// The proof issued before the restart verifies untouched, and the
	// recovered log re-proves the same credential at the same index.
	check(pb.Verify(logKey))
	reopenedProofs := translog.NewLogTileProofSource(reopened, 0)
	coldReads := scrapeValue(metricsURL, "translog_cold_tile_reads_total")
	pb2, err := reopenedProofs.ProveSerial(enr.Serial)
	check(err)
	check(pb2.Verify(logKey))
	if coldReads = scrapeValue(metricsURL, "translog_cold_tile_reads_total") - coldReads; coldReads < 1 {
		log.Fatalf("re-proving a checkpointed entry read %v cold tiles from the WAL segments, want ≥ 1", coldReads)
	}
	fmt.Printf("credential %s: pre-restart proof still verifies; re-proven at index %d post-restart from %.0f cold tile read(s), each checked against the tree ✓\n",
		enr.Serial, pb2.Index, coldReads)

	// The witness that watched the pre-crash log accepts the recovered
	// head and every head after it: the restart is consistency-proven.
	reopenedFetch := reopenedProofs.ConsistencyProof
	check(witness.Advance(reopened.STH(), reopenedFetch))
	if _, err := reopened.Append(translog.Entry{
		Type: translog.EntryAttestOK, Timestamp: time.Now().UnixMilli(), Actor: "host-0", Detail: "post-restart appraisal",
	}); err != nil {
		log.Fatal(err)
	}
	check(witness.Advance(reopened.STH(), reopenedFetch))
	fmt.Printf("witness followed the restart: head %d → %d consistency-proven across the crash ✓\n",
		preSTH.Size, reopened.STH().Size)

	// 6. Rollback refusal: restore an "older snapshot" by deleting the
	//    newest WAL segment. The open recomputes the root, sees fewer
	//    entries than the persisted signed head covers, and refuses —
	//    the witness's rollback detection, enforced locally at startup.
	check(reopened.Close())
	segs, err := filepath.Glob(filepath.Join(logDir, "seg-*.wal"))
	check(err)
	sort.Strings(segs)
	check(os.Remove(segs[len(segs)-1]))
	if _, err := translog.OpenDurableLog(d.VM.CA().Signer(), logDir, translog.StoreConfig{}); err != nil {
		fmt.Printf("rolled-back statedir: open refused ✓ (%v)\n", err)
	} else {
		log.Fatal("rolled-back statedir opened cleanly")
	}

	// 7. The attack act 6 cannot catch: rewind segments *and* the signed
	//    head together to an earlier committed state. The statedir is
	//    self-consistent, so the open succeeds — locally nothing is
	//    wrong. Only witnesses that remember (or gossip) the newer
	//    signed head can convict, which is why they persist their heads
	//    and form a gossip network.
	fmt.Println()
	fmt.Println("--- multi-witness gossip: catching a consistent local rollback ---")
	runGossipAct(d.VM.CA().Signer(), logKey)

	// 8. Total amnesia: the attack act 7 cannot catch. Rewind the log's
	//    statedir AND every witness's persisted state together — every
	//    byte of filesystem memory agrees with the rewritten history.
	//    Only a memory off the filesystem survives: the enclave-sealed
	//    monotonic counter in platform NV convicts at open.
	fmt.Println()
	fmt.Println("--- sealed monotonic head: catching a TOTAL-amnesia rollback ---")
	runSealedAct(d.VM.CA().Signer(), logKey)

	// 9. Multi-VM scale: a fleet of hosts appends through the per-host
	//    sharded appender — each host its own buffer and WAL stream, the
	//    merging sequencer committing one tree head per cycle — and
	//    recovery interleaves the streams back into the exact global
	//    history an in-memory log would hold.
	fmt.Println()
	fmt.Println("--- per-host shards: one merged tree head for a fleet of hosts ---")
	runShardedAct(d.VM.CA().Signer(), logKey)

	// 10. Tile-based proof serving: an auditor caches the log's
	//     content-addressed Merkle tiles while the server is up, then the
	//     server goes away entirely — and fresh inclusion proofs still
	//     assemble and verify offline, from the cache alone. Tiles carry
	//     no authority: the proofs they fold into are checked against the
	//     signed head, so caching them costs no trust.
	fmt.Println()
	fmt.Println("--- tile-based proofs: auditing from cache after the server is gone ---")
	runTileAct(d.VM.CA().Signer(), logKey)

	// 11. The audit plane at fleet scale: every act so far had each
	//     witness verify the whole log. Here the witness set is
	//     partitioned — 8 witnesses, 8 shard streams, each witness
	//     auditing 3 — heads only count once a quorum of witnesses
	//     co-signs them, and a rewind of a single host's shard stream is
	//     convicted by an assigned witness's audit cursor alone, while a
	//     witness NOT assigned that shard stays clean (ignorance is not
	//     evidence).
	fmt.Println()
	fmt.Println("--- partitioned witnesses: 8 auditors, 3 shards each, quorum co-signed heads ---")
	runPartitionAct(d.VM.CA().Signer(), logKey)

	// Final scrape: the acts between the scrapes appended more entries,
	// committed more anchors and ran gossip rounds — the series must have
	// increased, exactly what an operator's alerting would watch.
	body := scrape(metricsURL)
	appendedEnd := seriesValue(body, "translog_appended_entries_total")
	anchorsEnd := seriesValue(body, `translog_anchor_commit_seconds_count{anchor="statedir-sth"}`)
	gossipEnd := seriesValue(body, "translog_gossip_exchanges_total")
	cosignEnd := seriesValue(body, "translog_cosign_signatures_total")
	if appendedEnd <= appendedMid || anchorsEnd <= anchorsMid || gossipEnd <= 0 || cosignEnd <= 0 {
		log.Fatalf("final /metrics scrape did not advance: appended %v→%v anchors %v→%v gossip=%v cosign=%v",
			appendedMid, appendedEnd, anchorsMid, anchorsEnd, gossipEnd, cosignEnd)
	}
	fmt.Println()
	fmt.Printf("final /metrics scrape: appended %.0f→%.0f, anchor commits %.0f→%.0f, %.0f gossip exchanges, %.0f co-signatures — all increasing ✓\n",
		appendedMid, appendedEnd, anchorsMid, anchorsEnd, gossipEnd, cosignEnd)
	if path := os.Getenv("METRICS_SNAPSHOT"); path != "" {
		//lint:allow atomicwrite diagnostic snapshot for the operator, regenerated every run; losing it in a crash costs nothing
		check(os.WriteFile(path, []byte(body), 0o644))
		fmt.Printf("metrics snapshot written to %s\n", path)
	}

	fmt.Println()
	fmt.Println("audit complete: every verdict provable, nothing taken on faith — not even across restarts")
}

// scrape fetches the full Prometheus exposition.
func scrape(url string) string {
	resp, err := http.Get(url)
	check(err)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	check(err)
	return string(body)
}

// seriesValue extracts one series' current value from an exposition.
func seriesValue(body, series string) float64 {
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, series)
		if !ok || !strings.HasPrefix(rest, " ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		check(err)
		return v
	}
	return -1
}

// scrapeValue is scrape + seriesValue in one request.
func scrapeValue(url, series string) float64 {
	return seriesValue(scrape(url), series)
}

// servedLog lets the "restarted" (rolled-back) log come back at the same
// address, exactly as a rebooted log server would.
type servedLog struct {
	mu  sync.Mutex
	log *translog.Log
}

func (s *servedLog) swap(l *translog.Log) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = l
}

func (s *servedLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	l := s.log
	s.mu.Unlock()
	translog.Handler(l).ServeHTTP(w, r)
}

func runGossipAct(signer crypto.Signer, logKey *ecdsa.PublicKey) {
	// The VM's durable log, in its own statedir.
	vmDir, err := os.MkdirTemp("", "vnfguard-gossip-log-")
	check(err)
	defer os.RemoveAll(vmDir)
	vmLog, err := translog.OpenDurableLog(signer, vmDir, translog.StoreConfig{})
	check(err)
	appendAudit := func(l *translog.Log, from, to int) {
		var batch []translog.Entry
		for i := from; i < to; i++ {
			batch = append(batch, translog.Entry{
				Type: translog.EntryAttestOK, Timestamp: time.Now().UnixMilli(),
				Actor: fmt.Sprintf("host-%d", i), Detail: "appraisal OK",
			})
		}
		_, err := l.AppendBatch(batch)
		check(err)
	}
	appendAudit(vmLog, 0, 5)
	// The attacker's snapshot: a consistent committed state at size 5.
	snap, err := snapshotFiles(vmDir)
	check(err)

	served := &servedLog{log: vmLog}
	logLn, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	defer logLn.Close()
	go http.Serve(logLn, served)
	logURL := "http://" + logLn.Addr().String()

	// Three witnesses: persisted heads (their own statedirs), gossip
	// endpoints, full-mesh peers — what `log-server -monitor -name wN`
	// runs in production.
	names := []string{"w0", "w1", "w2"}
	pools := make([]*translog.GossipPool, len(names))
	dirs := make([]*statedir.Dir, len(names))
	urls := make([]string, len(names))
	for i, name := range names {
		wd, err := os.MkdirTemp("", "vnfguard-witness-")
		check(err)
		defer os.RemoveAll(wd)
		dirs[i], err = statedir.Open(wd)
		check(err)
		w, err := translog.OpenWitnessState(dirs[i], name, logKey)
		check(err)
		pools[i] = translog.NewGossipPool(name, w, translog.NewClient(logURL, logKey))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		check(err)
		defer ln.Close()
		go http.Serve(ln, translog.GossipHandler(pools[i]))
		urls[i] = "http://" + ln.Addr().String()
	}
	for i := range pools {
		for j := range pools {
			if i != j {
				pools[i].AddPeer(translog.NewClient(urls[j], logKey))
			}
		}
	}
	for _, p := range pools {
		check(p.Exchange())
	}
	// The log keeps growing; the witness set follows to size 8.
	appendAudit(vmLog, 5, 8)
	grown := vmLog.STH()
	for _, p := range pools {
		check(p.Exchange())
	}
	fmt.Printf("3 witnesses gossiping, all anchored at size %d (heads persisted per witness)\n", grown.Size)

	// The rewind: restore the old snapshot — segments AND signed head
	// together — and "restart" the log server from it.
	check(vmLog.Close())
	check(restoreFiles(vmDir, snap))
	rolled, err := translog.OpenDurableLog(signer, vmDir, translog.StoreConfig{})
	if err != nil {
		log.Fatalf("consistent rollback was refused locally — act 7 exists because it cannot be: %v", err)
	}
	defer rolled.Close()
	served.swap(rolled)
	fmt.Printf("statedir rewound to size %d and restarted: recovery verified it cleanly — locally undetectable\n", rolled.Size())

	// Control: a lone witness with no memory and no peers anchors on the
	// rewritten history without a murmur. This is the gap peers close.
	lone := translog.NewGossipPool("lone", translog.NewWitness(logKey), translog.NewClient(logURL, logKey))
	check(lone.Exchange())
	if lone.Conflict() == nil {
		fmt.Println("zero-peer amnesiac witness: rollback UNDETECTED (as the attacker intended)")
	}

	// A witness restarted from its persisted statedir remembers size 8
	// and convicts the log the moment it polls.
	rw, err := translog.OpenWitnessState(dirs[0], names[0], logKey)
	check(err)
	restarted := translog.NewGossipPool(names[0], rw, translog.NewClient(logURL, logKey))
	err = restarted.Exchange()
	var ce *translog.ConflictError
	if !errors.As(err, &ce) || !errors.Is(err, translog.ErrRollback) {
		log.Fatalf("restarted witness failed to convict the rollback: %v", err)
	}
	fmt.Printf("restarted witness %s (persisted head): ROLLBACK convicted ✓\n", names[0])
	fmt.Printf("  evidence: remembered signed head size=%d root=%x… vs served signed head size=%d root=%x…\n",
		ce.Have.Size, ce.Have.RootHash[:6], ce.Got.Size, ce.Got.RootHash[:6])
	check(ce.Verify(logKey))
	fmt.Println("  both heads verify under the CA key: the conviction is portable, no trust in the witness needed ✓")

	// And gossip covers even a witness that lost its state: the amnesiac
	// re-anchored at size 5, but the moment a remembering peer pushes its
	// size-8 head over gossip, the amnesiac convicts the log it watches
	// — and the HTTP 409 carries the evidence back to the pushing peer.
	amnesiacW := translog.NewWitness(logKey)
	amnesiac := translog.NewGossipPool("amnesiac", amnesiacW, translog.NewClient(logURL, logKey))
	amnLn, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	defer amnLn.Close()
	go http.Serve(amnLn, translog.GossipHandler(amnesiac))
	check(amnesiac.Exchange()) // re-anchors at the rewritten size 5

	w1, err := translog.OpenWitnessState(dirs[1], names[1], logKey) // remembers size 8
	check(err)
	pusher := translog.NewGossipPool(names[1], w1, translog.NewClient(logURL, logKey))
	pusher.AddPeer(translog.NewClient("http://"+amnLn.Addr().String(), logKey))
	pushErr := pusher.Exchange()
	if !errors.Is(pushErr, translog.ErrRollback) {
		log.Fatalf("gossiped head failed to convict: %v", pushErr)
	}
	// The amnesiac convicted first-hand the moment the peer's size-8
	// head arrived (the log it watches serves less than a head the log
	// itself signed); the pusher convicted on its own poll. Neither took
	// the other's word: peer claims are corroborated, never adopted.
	if amnesiac.Conflict() == nil || pusher.Conflict() == nil {
		log.Fatal("conviction not latched on both sides of the gossip exchange")
	}
	fmt.Printf("amnesiac witness + gossiped peer head (size %d): ROLLBACK convicted on both ends ✓ (%d peers make one witness's amnesia irrelevant)\n",
		grown.Size, len(names)-1)
}

// runSealedAct demonstrates the last trust-anchor layer. The attacker
// of act 7 upgrades: this time the snapshot-restore covers the log's
// statedir AND the witness's persisted head, so no surviving file
// remembers the newer history — gossip has nothing to gossip. The
// sealed anchor still convicts, because each committed head was sealed
// by an enclave into a blob stamped with a monotonic counter that lives
// in platform NV (hardware), and the restored blob's stamp is behind
// the counter.
func runSealedAct(signer crypto.Signer, logKey *ecdsa.PublicKey) {
	vendor, err := pki.GenerateKey()
	check(err)
	issuer, err := epid.NewIssuer(0x5EA1)
	check(err)
	platform, err := sgx.NewPlatform("vm-machine", issuer, nil)
	check(err)

	logDir, err := os.MkdirTemp("", "vnfguard-sealed-log-")
	check(err)
	defer os.RemoveAll(logDir)
	witnessRoot, err := os.MkdirTemp("", "vnfguard-sealed-witness-")
	check(err)
	defer os.RemoveAll(witnessRoot)
	witnessDir, err := statedir.Open(witnessRoot)
	check(err)

	// The anchor chain under the VM's log: a co-located witness head
	// (act 7's defence) plus the sealed monotonic counter.
	anchors := func() []translog.TrustAnchor {
		sealed, err := translog.NewSealedHeadAnchor(platform, vendor,
			filepath.Join(logDir, translog.SealedHeadFileName), logKey)
		check(err)
		return []translog.TrustAnchor{
			translog.NewWitnessAnchor(witnessDir, "w0", logKey),
			sealed,
		}
	}
	vmLog, err := translog.OpenDurableLog(signer, logDir, translog.StoreConfig{Anchors: anchors()})
	check(err)
	appendEntries := func(l *translog.Log, from, to int) {
		var batch []translog.Entry
		for i := from; i < to; i++ {
			batch = append(batch, translog.Entry{
				Type: translog.EntryAttestOK, Timestamp: time.Now().UnixMilli(),
				Actor: fmt.Sprintf("host-%d", i), Detail: "appraisal OK",
			})
		}
		_, err := l.AppendBatch(batch)
		check(err)
	}
	appendEntries(vmLog, 0, 5)
	// The attacker's snapshot: log statedir AND witness statedir, all
	// self-consistent at size 5 (sealed blob included).
	snapLog, err := snapshotFiles(logDir)
	check(err)
	snapWitness, err := snapshotFiles(witnessRoot)
	check(err)
	appendEntries(vmLog, 5, 8)
	fmt.Printf("log grown to %d entries; every commit sealed under the monotonic counter\n", vmLog.Size())
	check(vmLog.Close())

	// Total amnesia: every file that remembered size 8 is rewound.
	check(restoreFiles(logDir, snapLog))
	check(restoreFiles(witnessRoot, snapWitness))

	// Control: without the sealed anchor the rewind is invisible — the
	// plain head check passes and the rewound witness agrees with the
	// rewritten history.
	blind, err := translog.OpenDurableLog(signer, logDir, translog.StoreConfig{
		Anchors: []translog.TrustAnchor{translog.NewWitnessAnchor(witnessDir, "w0", logKey)},
	})
	if err != nil {
		log.Fatalf("total-amnesia rewind should fool every filesystem memory: %v", err)
	}
	fmt.Printf("statedir + witness state rewound to size %d: disk-rooted anchors see nothing wrong\n", blind.Size())
	check(blind.Close())

	// With the sealed anchor, the open is refused: the counter in
	// platform NV outlived the rewind.
	_, err = translog.OpenDurableLog(signer, logDir, translog.StoreConfig{Anchors: anchors()})
	if !errors.Is(err, translog.ErrSealedRollback) {
		log.Fatalf("sealed anchor failed to convict the total-amnesia rewind: %v", err)
	}
	fmt.Printf("sealed-counter anchor: TOTAL-AMNESIA ROLLBACK refused at open ✓\n  %v\n", err)
	fmt.Println("  no witness, no surviving file needed: the monotonic counter is the memory the attacker cannot rewind ✓")
}

// runShardedAct is the multi-VM scaling act. Eight hosts' agents append
// attestation verdicts concurrently through the ShardedAppender: each
// host's entries buffer behind that host's own lock and land in that
// host's own WAL segment stream (seg-h<shard>-*.wal, records stamped
// with their global index), while the merging sequencer commits every
// cycle as ONE Merkle batch — one tree-head signature and one anchor
// bump no matter how many hosts were ready. A restart then interleaves
// the streams back into the global order, reproducing the exact root an
// in-memory log over the same entries computes; deleting one host's
// newest stream segment is still refused as a rollback of the whole log.
func runShardedAct(signer crypto.Signer, logKey *ecdsa.PublicKey) {
	dir, err := os.MkdirTemp("", "vnfguard-sharded-log-")
	check(err)
	defer os.RemoveAll(dir)
	cfg := translog.StoreConfig{Shards: 8, SegmentMaxBytes: 4096}
	l, err := translog.OpenDurableLog(signer, dir, cfg)
	check(err)

	sa := translog.NewShardedAppender(l, translog.ShardedAppenderConfig{MaxBatch: 128})
	const hosts, perHost = 8, 200
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			host := fmt.Sprintf("host-%d", h)
			for i := 0; i < perHost; i++ {
				check(sa.Append(translog.Entry{
					Type: translog.EntryAttestOK, Timestamp: time.Now().UnixMilli(),
					Actor: fmt.Sprintf("fw-%d-%d", h, i), Host: host, Detail: "appraisal OK",
				}))
			}
		}(h)
	}
	wg.Wait()
	check(sa.Close())
	grown := l.STH()
	entries, err := l.Entries(0, l.Size())
	check(err)
	check(l.Close())
	streams, err := filepath.Glob(filepath.Join(dir, "seg-h*.wal"))
	check(err)
	fmt.Printf("%d hosts × %d verdicts appended concurrently: %d entries across %d per-host stream files, one signed head (size %d)\n",
		hosts, perHost, len(entries), len(streams), grown.Size)

	// Restart: the interleaved replay reproduces the exact global
	// history — the signed root equals the one a plain log commits over
	// the same sequence.
	re, err := translog.OpenDurableLog(signer, dir, cfg)
	check(err)
	ref, err := translog.NewLog(signer)
	check(err)
	_, err = ref.AppendBatch(entries)
	check(err)
	if reRoot := re.STH().RootHash; reRoot != grown.RootHash || reRoot != ref.STH().RootHash {
		log.Fatal("interleaved recovery diverged from the in-memory history")
	}
	check(re.Close())
	fmt.Printf("restart interleaved %d streams back into the global order: root identical to an in-memory log ✓\n", len(streams))

	// Per-host history is still globally protected: rewinding ONE host's
	// stream refuses the whole log at open.
	sort.Strings(streams)
	check(os.Remove(streams[len(streams)-1]))
	if _, err := translog.OpenDurableLog(signer, dir, cfg); errors.Is(err, translog.ErrStateRollback) {
		fmt.Printf("one host's stream rewound: open refused ✓ (%v)\n", err)
	} else {
		log.Fatalf("one-stream rewind not convicted: %v", err)
	}
}

func snapshotFiles(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	snap := make(map[string][]byte)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		snap[e.Name()] = data
	}
	return snap, nil
}

func restoreFiles(dir string, snap map[string][]byte) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	for name, data := range snap {
		//lint:allow atomicwrite crash-simulation harness deliberately restoring raw bytes; durability is the scenario under test, not a property of the harness
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			return err
		}
	}
	return nil
}

// runTileAct is the offline-auditor act. While the log server is up, an
// auditor pulls the tree's content-addressed tiles through the tile
// endpoint (each response immutable and cacheable forever) and checks
// the signed head's root against them. Then the server is stopped — not
// paused, the listener is closed — and the auditor keeps producing
// fresh inclusion proofs for entries it never asked the server about,
// assembling them from the cached tiles alone and verifying each
// against the signed head it captured while online.
func runTileAct(signer crypto.Signer, logKey *ecdsa.PublicKey) {
	l, err := translog.NewLog(signer)
	check(err)
	const population = 600
	batch := make([]translog.Entry, population)
	for i := range batch {
		batch[i] = translog.Entry{
			Type: translog.EntryEnroll, Timestamp: time.Now().UnixMilli(),
			Actor: fmt.Sprintf("fw-%d", i), Host: "host-0",
			Serial: strconv.Itoa(500000 + i), Detail: "OK",
		}
	}
	_, err = l.AppendBatch(batch)
	check(err)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	srv := &http.Server{Handler: translog.Handler(l)}
	go srv.Serve(ln)
	client := translog.NewClient("http://"+ln.Addr().String(), logKey)

	// Online: capture the signed head and pull the tiles it commits to.
	// RootAt walks every tile the tree has, so this is the auditor's
	// cache warm-up and its strongest check in one: the recomputed root
	// must equal what the log signed.
	asm := translog.NewTileAssembler(client, 0)
	sth, err := client.STH()
	check(err)
	root, err := asm.RootAt(sth.Size)
	check(err)
	if root != sth.RootHash {
		log.Fatal("tile-recomputed root disagrees with the signed head")
	}
	entries, err := client.Entries(0, sth.Size)
	check(err)
	// One proof per level-0 tile pulls in every tile the head's proofs
	// can touch — the root walk above only needed the upper levels.
	for _, index := range []uint64{0, 300, 595} {
		_, err := asm.InclusionProof(index, sth.Size)
		check(err)
	}
	fmt.Printf("online: %d entries, signed head (size %d) recomputed from tiles, tile set cached ✓\n", len(entries), sth.Size)

	// The server goes away for good: listener closed AND every live
	// connection torn down, so not even a pooled keep-alive survives.
	check(srv.Close())
	if _, err := client.STH(); err == nil {
		log.Fatal("server still answering after Close — the offline claim would be vacuous")
	}
	fmt.Println("log server STOPPED (listener and connections closed, head endpoint unreachable)")

	// Offline: fresh proofs for entries across the whole tree, assembled
	// from the cache, verified against the captured head.
	for _, index := range []uint64{0, 255, 256, population/2 + 1, population - 1} {
		proof, err := asm.InclusionProof(index, sth.Size)
		check(err)
		leaf := translog.LeafHash(entries[index].Marshal())
		check(translog.VerifyInclusion(leaf, index, sth.Size, proof, sth.RootHash))
	}
	hits, misses := asm.Stats()
	fmt.Printf("offline: 5 fresh inclusion proofs assembled from cached tiles and verified (%d tile hits, %d fetches, all while online) ✓\n", hits, misses)
	fmt.Println("  the cache carries no trust: a wrong tile can only fail verification, never forge a proof ✓")
}

// runPartitionAct scales the audit plane to the fleet. The write plane
// already shards (act 9); here the witness set shards to match: a
// pinned partition assigns each of 8 witnesses 3 of the 8 host shard
// streams (every shard covered by a quorum of 3), each witness audits
// only its slice entry-by-entry against the served head, and heads only
// become trustworthy once ≥3 roster witnesses co-sign them. The attack
// act: a rewind that erases one host's recent entries — and the
// conviction comes from a witness whose ONLY surviving memory is its
// shard audit cursor, while a witness not assigned that shard exchanges
// cleanly, because ignorance of a shard is not evidence.
func runPartitionAct(signer crypto.Signer, logKey *ecdsa.PublicKey) {
	logDir, err := os.MkdirTemp("", "vnfguard-partition-log-")
	check(err)
	defer os.RemoveAll(logDir)
	sharedDir, err := os.MkdirTemp("", "vnfguard-partition-state-")
	check(err)
	defer os.RemoveAll(sharedDir)
	shared, err := statedir.Open(sharedDir)
	check(err)

	// The sharded durable store from act 9, now with per-shard stream
	// reads enabled so witnesses can audit one shard without paying for
	// the rest.
	const shards = 8
	cfg := translog.StoreConfig{Shards: shards, SegmentMaxBytes: 4096}
	l, err := translog.OpenDurableLog(signer, logDir, cfg)
	check(err)
	check(l.EnableShardStreams(shards))
	appendFleet := func(l *translog.Log, host string, from, to int) {
		var batch []translog.Entry
		for i := from; i < to; i++ {
			batch = append(batch, translog.Entry{
				Type: translog.EntryAttestOK, Timestamp: time.Now().UnixMilli(),
				Actor: fmt.Sprintf("fw-%s-%d", host, i), Host: host, Detail: "appraisal OK",
			})
		}
		_, err := l.AppendBatch(batch)
		check(err)
	}
	const hosts, perHost = 8, 40
	for h := 0; h < hosts; h++ {
		appendFleet(l, fmt.Sprintf("host-%d", h), 0, perHost)
	}

	// Every witness publishes its co-signing key into the shared
	// statedir; the roster (Q=3 of 8) and the cosign collector are what
	// the log server runs with -quorum 3.
	names := []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"}
	keys := make(map[string]*translog.WitnessKey, len(names))
	for _, name := range names {
		keys[name], err = translog.OpenWitnessKey(shared, name)
		check(err)
	}
	roster, err := translog.LoadWitnessRoster(shared, 3)
	check(err)
	col := translog.NewCosignCollector(logKey, roster)

	// The deployment pins ONE partition shape; every witness (and every
	// witness restart) derives the same assignment from it.
	check(translog.SavePartitionConfig(shared, translog.PartitionConfig{Shards: shards, Quorum: 3, Witnesses: names}))
	pcfg, err := translog.LoadPartitionConfig(shared)
	check(err)
	part, err := pcfg.Partition()
	check(err)

	// Serve the log with the collector mounted, exactly as cmd/log-server
	// composes it: witnesses post their views, co-signatures included,
	// to the log's gossip endpoint.
	served := &servedLog{log: l}
	mux := http.NewServeMux()
	cosignH := translog.CosignHandler(col)
	mux.Handle("/translog/v1/gossip", cosignH)
	mux.Handle("/translog/v1/cosigned", cosignH)
	mux.Handle("/", served)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	defer ln.Close()
	go http.Serve(ln, mux)
	logURL := "http://" + ln.Addr().String()
	client := translog.NewClient(logURL, logKey)

	newPool := func(name string) *translog.GossipPool {
		w, err := translog.OpenWitnessState(shared, name, logKey)
		check(err)
		p := translog.NewGossipPool(name, w, translog.NewClient(logURL, logKey))
		check(p.EnablePartition(part, keys[name]))
		return p
	}
	pools := make([]*translog.GossipPool, len(names))
	for i, name := range names {
		pools[i] = newPool(name)
	}
	fmt.Printf("%d witnesses over %d shard streams, each auditing %d (e.g. %s → shards %v)\n",
		len(names), shards, len(part.AssignedShards(names[0])), names[0], part.AssignedShards(names[0]))

	// Two witnesses finishing their slices is not a quorum: relying
	// parties asking for the co-signed head are refused with a sentinel.
	check(pools[0].Exchange())
	check(pools[1].Exchange())
	if _, err := client.Cosigned(); !errors.Is(err, translog.ErrQuorumNotReached) {
		log.Fatalf("2 of 3 required co-signatures should not make a quorum: %v", err)
	}
	fmt.Println("2 witnesses co-signed: below quorum, co-signed head REFUSED ✓ (no single witness is a trust bottleneck — and no pair either)")

	for _, p := range pools[2:] {
		check(p.Exchange())
	}
	cosigned, err := client.Cosigned()
	check(err)
	check(cosigned.Verify(logKey, roster))
	total := l.Size()
	audited := uint64(0)
	for _, s := range part.AssignedShards(names[0]) {
		n, _, err := client.ShardStream(s, 0, 1)
		check(err)
		audited += n
	}
	fmt.Printf("quorum reached: head at size %d carries %d co-signatures (Q=%d), artifact verifies against the roster ✓\n",
		cosigned.STH.Size, len(cosigned.Signatures), roster.Quorum())
	fmt.Printf("  per-witness economy: %s vouched for the full head after verifying %d of %d entries — its slice, not the fleet ✓\n",
		names[0], audited, total)

	// A relying party pins the verified artifact's head on a witness of
	// its own, persisted in its statedir — the pin a quorum controller
	// keeps: accepted heads only move forward, an older co-signed head
	// served later is a rollback, and an equal-size different root is
	// split-view evidence.
	relying, err := translog.OpenWitnessState(shared, "relying-party", logKey)
	check(err)
	tiles := translog.NewTileAssembler(client, 0)
	check(relying.Advance(cosigned.STH, tiles.ConsistencyProof))

	// The attacker's snapshot, then one host keeps working: 10 more
	// verdicts for host-3 land in exactly one shard stream.
	snap, err := snapshotFiles(logDir)
	check(err)
	victim := "host-3"
	victimShard := translog.ShardOf(victim, shards)
	appendFleet(l, victim, perHost, perHost+10)
	for _, p := range pools {
		check(p.Exchange())
	}
	grown, err := client.Cosigned()
	check(err)
	check(grown.Verify(logKey, roster))
	check(relying.Advance(grown.STH, tiles.ConsistencyProof))
	fmt.Printf("%s appended 10 more verdicts (shard %d): quorum co-signed head advanced to size %d, relying party's pin moved forward ✓\n",
		victim, victimShard, grown.STH.Size)
	if err := relying.Advance(cosigned.STH, tiles.ConsistencyProof); !errors.Is(err, translog.ErrRollback) {
		log.Fatalf("older co-signed head served after the pinned one: got %v, want ErrRollback", err)
	}
	fmt.Printf("older co-signed head (size %d) served after it: ROLLBACK convicted by the pin ✓\n", cosigned.STH.Size)

	// The rewind: restore the snapshot — WAL streams and signed head
	// together, a consistent state that reopens cleanly — erasing only
	// host-3's recent entries.
	check(l.Close())
	check(restoreFiles(logDir, snap))
	rolled, err := translog.OpenDurableLog(signer, logDir, cfg)
	check(err)
	defer rolled.Close()
	check(rolled.EnableShardStreams(shards))
	served.swap(rolled)
	fmt.Printf("statedir rewound to size %d and restarted: locally clean, %s's last 10 verdicts erased\n", rolled.Size(), victim)

	// Amnesiac conviction, shard edition: erase the head memory of a
	// witness assigned the victim shard, keeping ONLY its audit cursors.
	// It re-anchors on the rewritten head without complaint — and then
	// its own cursor convicts: the shard stream it audited to 50 entries
	// now serves 40.
	amnName := part.WitnessesFor(victimShard)[0]
	check(os.Remove(filepath.Join(sharedDir, fmt.Sprintf("witness-%s-head.json", amnName))))
	amnesiac := newPool(amnName)
	err = amnesiac.Exchange()
	var ce *translog.ConflictError
	if !errors.As(err, &ce) || !errors.Is(err, translog.ErrRollback) || amnesiac.Conflict() == nil {
		log.Fatalf("assigned witness failed to convict the shard rewind: %v", err)
	}
	check(ce.Verify(logKey))
	fmt.Printf("amnesiac witness %s (assigned shard %d, only its audit cursor survived): ROLLBACK convicted ✓\n", amnName, victimShard)
	fmt.Printf("  evidence: %s — signed heads verify under the CA key, the conviction is portable ✓\n", ce.Detail)

	// The false-conviction control: a witness NOT assigned the victim
	// shard, amnesia'd the same way, exchanges cleanly. Its slice is
	// intact, and under partitioning a witness ignorant of a shard is
	// never treated as evidence about it.
	cleanName := ""
	for _, name := range names {
		if !part.Covers(name, victimShard) {
			cleanName = name
			break
		}
	}
	check(os.Remove(filepath.Join(sharedDir, fmt.Sprintf("witness-%s-head.json", cleanName))))
	clean := newPool(cleanName)
	check(clean.Exchange())
	if clean.Conflict() != nil {
		log.Fatalf("witness %s is not assigned shard %d but convicted anyway: %v", cleanName, victimShard, clean.Conflict())
	}
	fmt.Printf("witness %s (NOT assigned shard %d): clean exchange, no false conviction ✓ — each witness testifies only about its slice\n",
		cleanName, victimShard)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
