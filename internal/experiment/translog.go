package experiment

import (
	"crypto/ecdsa"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"vnfguard/internal/epid"
	"vnfguard/internal/metrics"
	"vnfguard/internal/obs"
	"vnfguard/internal/pki"
	"vnfguard/internal/sgx"
	"vnfguard/internal/simtime"
	"vnfguard/internal/translog"
)

const (
	// appendRun is the entries per benchreport call of the one-shard
	// append cases (E11, E13, E15).
	appendRun = 2048
	// shardedRun is the entries per call of the multi-host cases (E16,
	// E17).
	shardedRun = 1 << 16
	// recoveryRun is the population the recovery cases (E13, E15)
	// reopen.
	recoveryRun = 1 << 14
	// fillBatch bounds the AppendBatch size used to populate logs.
	fillBatch = 8192
)

// Interned label tables: the multi-host cases measure the log, not the
// per-entry fmt.Sprintf a naive harness would pay.
var actorLabels, hostLabels = labels("fw-%d"), labels("host-%d")

func labels(format string) (out [64]string) {
	for i := range out {
		out[i] = fmt.Sprintf(format, i)
	}
	return out
}

// entry is the representative hot-path audit entry: an attestation
// verdict, which carries no credential serial.
func entry(i int) translog.Entry {
	return translog.Entry{
		Type: translog.EntryAttestOK, Timestamp: int64(i),
		Actor: fmt.Sprintf("fw-%d", i), Host: "host-0", Detail: "OK",
	}
}

// newCA returns a fresh CA, the log signer, and its public key.
func newCA() (*pki.CA, *ecdsa.PublicKey, error) {
	ca, err := pki.NewCA("bench CA", time.Hour)
	if err != nil {
		return nil, nil, err
	}
	return ca, ca.Certificate().PublicKey.(*ecdsa.PublicKey), nil
}

// fill appends entries mk(from) … mk(to-1) to l in bounded batches.
func fill(l *translog.Log, from, to int, mk func(int) translog.Entry) error {
	for at := from; at < to; at += fillBatch {
		batch := make([]translog.Entry, min(fillBatch, to-at))
		for i := range batch {
			batch[i] = mk(at + i)
		}
		if _, err := l.AppendBatch(batch); err != nil {
			return err
		}
	}
	return nil
}

// serve runs h on a loopback listener until the fixture is released
// and returns its base URL.
func serve(env *Env, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	env.cleanup(ln.Close)
	go http.Serve(ln, h)
	return "http://" + ln.Addr().String(), nil
}

// committed checks that l grew by exactly n entries from before.
func committed(l *translog.Log, before uint64, n int) error {
	if got := l.Size() - before; got != uint64(n) {
		return fmt.Errorf("committed %d of %d entries", got, n)
	}
	return nil
}

// appendOneShard commits n entries through a fresh one-shard appender
// and checks every one was committed.
func appendOneShard(l *translog.Log, n int) error {
	before := l.Size()
	app := translog.NewShardedAppender(l, translog.ShardedAppenderConfig{Shards: 1})
	for i := 0; i < n; i++ {
		if err := app.Append(entry(i)); err != nil {
			return errors.Join(err, app.Close())
		}
	}
	if err := app.Close(); err != nil {
		return err
	}
	return committed(l, before, n)
}

// A store gives the store configuration of the durable log in dir.
type store func(dir string) (translog.StoreConfig, error)

func plainStore(string) (translog.StoreConfig, error) { return translog.StoreConfig{}, nil }

// durableAppends returns a case Open that opens a durable log in a
// fresh directory and appends through fresh one-shard appenders.
func durableAppends(ca *pki.CA, st store) func(*Env) (Body, error) {
	return func(env *Env) (Body, error) {
		dir, err := env.tempDir()
		if err != nil {
			return nil, err
		}
		cfg, err := st(dir)
		if err != nil {
			return nil, err
		}
		l, err := translog.OpenDurableLog(ca.Signer(), dir, cfg)
		if err != nil {
			return nil, err
		}
		env.cleanup(l.Close)
		return func(n int) error { return appendOneShard(l, n) }, nil
	}
}

// recovery returns a case Open that writes population entries to a
// durable log in a fresh directory — checkpointed after the first
// checkpointAt of them, when that is not 0 — and closes it; its body
// reopens the log once per operation and refuses any other size.
func recovery(ca *pki.CA, st store, population, checkpointAt int) func(*Env) (Body, error) {
	return func(env *Env) (Body, error) {
		dir, err := env.tempDir()
		if err != nil {
			return nil, err
		}
		if err := writeStore(ca, st, dir, population, checkpointAt, entry); err != nil {
			return nil, err
		}
		return reopens(ca, st, dir, population), nil
	}
}

// writeStore writes population entries made by mk to a durable log in
// dir — checkpointed after the first checkpointAt of them, when that is
// not 0 — and closes it.
func writeStore(ca *pki.CA, st store, dir string, population, checkpointAt int, mk func(int) translog.Entry) error {
	cfg, err := st(dir)
	if err != nil {
		return err
	}
	l, err := translog.OpenDurableLog(ca.Signer(), dir, cfg)
	if err != nil {
		return err
	}
	err = fill(l, 0, checkpointAt, mk)
	if err == nil && checkpointAt > 0 {
		err = l.Checkpoint()
	}
	if err == nil {
		err = fill(l, checkpointAt, population, mk)
	}
	return errors.Join(err, l.Close())
}

// reopens returns a body that reopens the durable log in dir once per
// operation and refuses any size but population.
func reopens(ca *pki.CA, st store, dir string, population int) Body {
	return each(func(int) error {
		re, err := openStore(ca, st, dir)
		if err != nil {
			return err
		}
		got := re.Size()
		if err := re.Close(); err != nil {
			return err
		}
		if got != uint64(population) {
			return fmt.Errorf("recovered %d of %d entries", got, population)
		}
		return nil
	})
}

// openStore opens the durable log in dir.
func openStore(ca *pki.CA, st store, dir string) (*translog.Log, error) {
	cfg, err := st(dir)
	if err != nil {
		return nil, err
	}
	return translog.OpenDurableLog(ca.Signer(), dir, cfg)
}

// produce has hosts concurrent producers append n entries between them,
// one host label each, and flushes.
func produce(ap *translog.ShardedAppender, hosts, n int) error {
	var wg sync.WaitGroup
	errs := make([]error, hosts)
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := h; i < n; i += hosts {
				e := translog.Entry{
					Type: translog.EntryAttestOK, Timestamp: int64(1700000000000 + i),
					Actor: actorLabels[i%64], Host: hostLabels[h], Detail: "OK",
				}
				if err := ap.Append(e); err != nil {
					errs[h] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return ap.Flush()
}

// shardedAppends returns a case Open that gives a fresh durable store of
// the given shard count an appender with as many shards and one untimed
// warm-up run (the first pass grows buffers, arenas and tree levels that
// steady state recycles); its body has hosts producers append n entries
// and checks every one was committed.
func shardedAppends(ca *pki.CA, hosts, shards int) func(*Env) (Body, error) {
	return func(env *Env) (Body, error) {
		dir, err := env.tempDir()
		if err != nil {
			return nil, err
		}
		l, err := translog.OpenDurableLog(ca.Signer(), dir, translog.StoreConfig{Shards: shards})
		if err != nil {
			return nil, err
		}
		env.cleanup(l.Close)
		ap := translog.NewShardedAppender(l, translog.ShardedAppenderConfig{Shards: shards})
		env.cleanup(ap.Close)
		if err := produce(ap, hosts, shardedRun); err != nil {
			return nil, err
		}
		return func(n int) error {
			before := l.Size()
			if err := produce(ap, hosts, n); err != nil {
				return err
			}
			if got := l.Size() - before; got != uint64(n) {
				return fmt.Errorf("committed %d of %d entries", got, n)
			}
			return nil
		}, nil
	}
}

// e11 times the log's write path per entry: unbatched (one Merkle root
// and one head signature per entry) against the one-shard appender,
// which amortises both over each sequencer cycle.
func e11(env *Env) (*Plan, error) {
	ca, _, err := newCA()
	if err != nil {
		return nil, err
	}
	unbatched, err := translog.NewLog(ca.Signer())
	if err != nil {
		return nil, err
	}
	batched, err := translog.NewLog(ca.Signer())
	if err != nil {
		return nil, err
	}
	app := translog.NewShardedAppender(batched, translog.ShardedAppenderConfig{Shards: 1})
	env.cleanup(app.Close)
	return &Plan{
		Cases: []Case{
			{Name: "unbatched", Ops: appendRun, Body: func(n int) error {
				for i := 0; i < n; i++ {
					if _, err := unbatched.Append(entry(i)); err != nil {
						return err
					}
				}
				return nil
			}},
			{Name: "batched", Ops: appendRun, Body: func(n int) error {
				for i := 0; i < n; i++ {
					if err := app.Append(entry(i)); err != nil {
						return err
					}
				}
				return app.Flush()
			}},
		},
		Table: func(runs int, r Results) (*metrics.Table, error) {
			u, b := r.Mean("unbatched"), r.Mean("batched")
			t := metrics.NewTable(fmt.Sprintf("E11 — transparency log appends (n=%d, %d entries/run)", runs, appendRun),
				"variant", "per-entry latency", "speedup")
			t.AddRow("unbatched (sign per entry)", us(u, 2), "1.0×")
			t.AddRow("batched appender (1 shard)", us(b, 2), fmt.Sprintf("%.1f×", ratio(u, b)))
			return t, nil
		},
	}, nil
}

// e12 times the relying party's read path: serial lookup, inclusion
// proof and full verification (head signature and audit path) per
// credential check — the controller's per-handshake cost in log-gated
// trusted mode — as the log grows. The remote case is a -log-url
// controller's check: the credential checker over a log server on
// loopback, lookup and tiles over HTTP, the head verified through the
// checker's memo against a log that does not move.
func e12(env *Env) (*Plan, error) {
	ca, pub, err := newCA()
	if err != nil {
		return nil, err
	}
	populations := []int{256, 4096, 65536}
	const remotePopulation = 4096
	proofLen := map[int]int{}
	var cases []Case
	var remote Case
	for _, population := range populations {
		l, err := translog.NewLog(ca.Signer())
		if err != nil {
			return nil, err
		}
		err = fill(l, 0, population, func(i int) translog.Entry {
			return translog.Entry{
				Type: translog.EntryEnroll, Timestamp: int64(i),
				Actor: fmt.Sprintf("fw-%d", i), Serial: fmt.Sprint(i),
			}
		})
		if err != nil {
			return nil, err
		}
		src := translog.NewLogTileProofSource(l, 0)
		cases = append(cases, Case{Name: fmt.Sprintf("log-%d", population), Reps: 64, Body: each(func(i int) error {
			pb, err := src.ProveSerial(fmt.Sprint(i % population))
			if err != nil {
				return err
			}
			proofLen[population] = len(pb.Proof)
			return pb.Verify(pub)
		})})
		if population == remotePopulation {
			url, err := serve(env, translog.Handler(l))
			if err != nil {
				return nil, err
			}
			check := translog.NewCredentialChecker(pub, translog.NewTileProofSource(translog.NewClient(url, pub), 0))
			remote = Case{Name: fmt.Sprintf("remote-%d", population), Reps: 64, Body: each(func(i int) error {
				return check(&x509.Certificate{SerialNumber: big.NewInt(int64(i % population))})
			})}
		}
	}
	cases = append(cases, remote)
	return &Plan{Cases: cases, Table: func(runs int, r Results) (*metrics.Table, error) {
		t := metrics.NewTable("E12 — inclusion proof verify (n="+fmt.Sprint(runs)+")",
			"log size", "lookup+prove+verify", "proof length")
		for i, population := range populations {
			t.AddRow(fmt.Sprint(population), us(r.Mean(cases[i].Name), 1), fmt.Sprintf("%d hashes", proofLen[population]))
		}
		t.AddRow(fmt.Sprintf("%d, remote (HTTP tiles, head memo)", remotePopulation), us(r.Mean(remote.Name), 1),
			fmt.Sprintf("%d hashes", proofLen[remotePopulation]))
		return t, nil
	}}, nil
}

// e13 times what durability costs the audit write path — one-shard
// appends over the WAL (records, one fsync and one atomic tree-head
// replacement per cycle) against the in-memory log — and crash
// recovery (replay and verification against the persisted signed head)
// of a recoveryRun-entry durable log.
func e13(env *Env) (*Plan, error) {
	ca, _, err := newCA()
	if err != nil {
		return nil, err
	}
	mem, err := translog.NewLog(ca.Signer())
	if err != nil {
		return nil, err
	}
	return &Plan{
		Cases: []Case{
			{Name: "in-memory", Ops: appendRun, Body: func(n int) error { return appendOneShard(mem, n) }},
			{Name: "durable", Ops: appendRun, Open: durableAppends(ca, plainStore)},
			{Name: "recovery", Open: recovery(ca, plainStore, recoveryRun, 0)},
		},
		Table: func(runs int, r Results) (*metrics.Table, error) {
			m, d := r.Mean("in-memory"), r.Mean("durable")
			t := metrics.NewTable(fmt.Sprintf("E13 — durable log appends + recovery (n=%d, %d entries/run)", runs, appendRun),
				"variant", "per-entry latency", "vs in-memory")
			t.AddRow("in-memory appender (1 shard)", us(m, 2), "1.0×")
			t.AddRow("durable WAL appender (1 shard)", us(d, 2), fmt.Sprintf("%.1f×", ratio(d, m)))
			t.AddRow(fmt.Sprintf("crash recovery (%d entries)", recoveryRun),
				fmt.Sprintf("%.1f ms total", float64(r.Mean("recovery"))/float64(time.Millisecond)), "-")
			return t, nil
		},
	}, nil
}

// e14 times the witness gossip protocol: the signature verification
// every received head costs, and a full exchange round — served-head
// poll plus an HTTP head swap with each peer — at growing peer counts.
// The per-peer column is the marginal cost of widening the witness set.
func e14(env *Env) (*Plan, error) {
	ca, pub, err := newCA()
	if err != nil {
		return nil, err
	}
	l, err := translog.NewLog(ca.Signer())
	if err != nil {
		return nil, err
	}
	if err := fill(l, 0, 1024, entry); err != nil {
		return nil, err
	}
	logURL, err := serve(env, translog.Handler(l))
	if err != nil {
		return nil, err
	}
	sth := l.STH()
	cases := []Case{{Name: "head-verify", Reps: 64, Body: each(func(int) error { return sth.Verify(pub) })}}
	peerCounts := []int{1, 4, 8}
	for _, peers := range peerCounts {
		cases = append(cases, Case{Name: fmt.Sprintf("exchange-%dpeers", peers), Reps: 8, Open: func(env *Env) (Body, error) {
			pool := translog.NewGossipPool("bench", translog.NewWitness(pub), translog.NewClient(logURL, pub))
			for i := 0; i < peers; i++ {
				peer := translog.NewGossipPool(fmt.Sprintf("peer-%d", i),
					translog.NewWitness(pub), translog.NewClient(logURL, pub))
				if err := peer.Exchange(); err != nil {
					return nil, err
				}
				url, err := serve(env, translog.GossipHandler(peer))
				if err != nil {
					return nil, err
				}
				pool.AddPeer(translog.NewClient(url, pub))
			}
			// Every witness shares one honest log: a conviction is a bug.
			env.cleanup(func() error {
				if c := pool.Conflict(); c != nil {
					return fmt.Errorf("honest gossip convicted: %v", c)
				}
				return nil
			})
			return each(func(int) error { return pool.Exchange() }), nil
		}})
	}
	return &Plan{Cases: cases, Table: func(runs int, r Results) (*metrics.Table, error) {
		t := metrics.NewTable("E14 — witness gossip exchange (n="+fmt.Sprint(runs)+")",
			"operation", "latency", "per peer")
		t.AddRow("signed-head verification", us(r.Mean("head-verify"), 1), "-")
		for i, peers := range peerCounts {
			mean := r.Mean(cases[i+1].Name)
			t.AddRow(fmt.Sprintf("exchange round (%d peers)", peers), ms(mean), us(mean/time.Duration(peers), 1))
		}
		return t, nil
	}}, nil
}

// e15 times the enclave-sealed monotonic head: what sealing every
// committed head (ECall, counter read and AEAD seal per cycle, one
// atomic blob replacement, one counter bump) adds to the durable
// one-shard append path, and recovery with the extra unseal and counter
// check. Budget: sealed appends within 2.0× of the plain durable
// appender — the anchor work is per cycle, so the appender amortises it
// like the fsync and the head signature.
func e15(env *Env) (*Plan, error) {
	ca, pub, err := newCA()
	if err != nil {
		return nil, err
	}
	vendor, err := pki.GenerateKey()
	if err != nil {
		return nil, err
	}
	issuer, err := epid.NewIssuer(0xE15)
	if err != nil {
		return nil, err
	}
	// Each log gets its own platform: the monotonic counter is per
	// platform, and a fresh log on a bumped counter reads as a rollback.
	platforms := map[string]*sgx.Platform{}
	sealed := func(dir string) (translog.StoreConfig, error) {
		if platforms[dir] == nil {
			p, err := sgx.NewPlatform("bench-machine", issuer, simtime.DefaultCosts())
			if err != nil {
				return translog.StoreConfig{}, err
			}
			platforms[dir] = p
		}
		a, err := translog.NewSealedHeadAnchor(platforms[dir], vendor, filepath.Join(dir, translog.SealedHeadFileName), pub)
		return translog.StoreConfig{Anchors: []translog.TrustAnchor{a}}, err
	}
	return &Plan{
		Cases: []Case{
			{Name: "durable", Ops: appendRun, Open: durableAppends(ca, plainStore)},
			{Name: "sealed", Ops: appendRun, Open: durableAppends(ca, sealed)},
			{Name: "sealed-recovery", Open: recovery(ca, sealed, recoveryRun, 0)},
		},
		Table: func(runs int, r Results) (*metrics.Table, error) {
			d, s := r.Mean("durable"), r.Mean("sealed")
			rt := ratio(s, d)
			t := metrics.NewTable(fmt.Sprintf("E15 — enclave-sealed monotonic head (n=%d, %d entries/run)", runs, appendRun),
				"variant", "per-entry latency", "vs durable")
			t.AddRow("durable WAL appender (1 shard)", us(d, 2), "1.0×")
			t.AddRow("sealed WAL appender (1 shard)", us(s, 2),
				fmt.Sprintf("%.2f× (%s)", rt, verdict(rt <= 2.0, "within ≤2.0× budget", "OVER ≤2.0× budget")))
			t.AddRow(fmt.Sprintf("sealed recovery (%d entries)", recoveryRun),
				fmt.Sprintf("%.1f ms total", float64(r.Mean("sealed-recovery"))/float64(time.Millisecond)), "-")
			return t, nil
		},
	}, nil
}

// e16 times the appender at 16 shards against the same appender at one
// shard as the producing host count grows, durable stores under both.
// One shard serialises every host behind one buffer lock, one
// ≤1024-entry cycle and one WAL stream; sixteen shards buffer per host,
// and the merging sequencer commits up to hosts×1024 entries as ONE
// merged Merkle batch per cycle — one signature, one head, one anchor
// bump — fanning the records out to per-host WAL streams whose fsyncs
// overlap. Targets: ≥3.0x aggregate throughput at 16 hosts, and a
// sharded per-entry durable cost within 1.5x of E13's single-producer
// durable appender.
//
// The throughput verdict reads UNDER the target on a shared 2-vCPU VM
// (1.3–2.4×, median 2.2×, over five runs): the one-shard baseline is
// itself the merging sequencer, which already prepares its cycles off
// the log lock and commits up to 1024 entries a cycle, so sharding only
// adds the per-host buffers and overlapping stream fsyncs. The target
// and its verdict are kept as set.
func e16(env *Env) (*Plan, error) {
	ca, _, err := newCA()
	if err != nil {
		return nil, err
	}
	name := func(hosts, shards int) string { return fmt.Sprintf("hosts-%d/sharded-%d", hosts, shards) }
	var cases []Case
	for _, hs := range [][2]int{{1, 1}, {1, 16}, {4, 1}, {4, 16}, {16, 1}, {16, 16}} {
		cases = append(cases, Case{Name: name(hs[0], hs[1]), Ops: shardedRun, Open: shardedAppends(ca, hs[0], hs[1])})
	}
	return &Plan{Cases: cases, Table: func(runs int, r Results) (*metrics.Table, error) {
		base := r.Mean(name(1, 1))
		t := metrics.NewTable(fmt.Sprintf("E16 — per-host sharded appender scaling (n=%d, %d entries/run, durable WAL)", runs, shardedRun),
			"hosts × appender", "per-entry latency", "throughput", "speedup")
		t.AddRow("1 × 1-shard (E13 baseline)", us(base, 2), perSec(base), "1.0×")
		var final string
		for _, hosts := range []int{1, 4, 16} {
			single, sharded := r.Mean(name(hosts, 1)), r.Mean(name(hosts, 16))
			if hosts != 1 {
				t.AddRow(fmt.Sprintf("%d × 1-shard", hosts), us(single, 2), perSec(single), "-")
			}
			speedup := ratio(single, sharded)
			row := fmt.Sprintf("%.2f× vs 1-shard", speedup)
			if hosts == 16 {
				row = fmt.Sprintf("%.2f× (%s)", speedup, verdict(speedup >= 3.0, "meets ≥3.0x target", "UNDER ≥3.0x target"))
				cost := ratio(sharded, base)
				final = fmt.Sprintf("%.2f× E13 per-entry durable cost (%s)", cost,
					verdict(cost <= 1.5, "within ≤1.5x E13 budget", "OVER ≤1.5x E13 budget"))
			}
			t.AddRow(fmt.Sprintf("%d × sharded-16", hosts), us(sharded, 2), perSec(sharded), row)
		}
		t.AddRow("sharded-16 @ 16 hosts vs E13", final, "-", "-")
		return t, nil
	}}, nil
}

// e17 times what the telemetry layer costs the hottest path, E16's
// 16-host sharded run, with the registry live and disabled, and scrapes
// the live /metrics endpoint while the instrumented appender is still
// open to prove every sequencer phase histogram is exported. The
// acceptance bar is instrumented throughput within 5% of uninstrumented.
func e17(env *Env) (*Plan, error) {
	ca, _, err := newCA()
	if err != nil {
		return nil, err
	}
	ln, err := obs.Default().Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.cleanup(ln.Close)
	metricsURL := "http://" + ln.Addr().String() + "/metrics"
	phases := []string{"gather", "marshal", "merkle", "sign", "wal_sync", "anchor_commit"}
	scrape := func() error {
		resp, err := http.Get(metricsURL)
		if err != nil {
			return fmt.Errorf("scraping %s: %w", metricsURL, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		for _, phase := range phases {
			series := fmt.Sprintf(`translog_cycle_phase_seconds_count{phase=%q}`, phase)
			if !strings.Contains(string(body), series) {
				return fmt.Errorf("mid-workload /metrics scrape is missing %s", series)
			}
		}
		return nil
	}
	telemetry := func(enabled bool) func(*Env) (Body, error) {
		return func(env *Env) (Body, error) {
			obs.Default().SetEnabled(enabled)
			env.cleanup(func() error { obs.Default().SetEnabled(true); return nil })
			body, err := shardedAppends(ca, 16, 16)(env)
			if err == nil && enabled {
				env.cleanup(scrape) // released first, while the appender is live
			}
			return body, err
		}
	}
	return &Plan{
		Cases: []Case{
			{Name: "uninstrumented", Ops: shardedRun, Open: telemetry(false)},
			{Name: "instrumented", Ops: shardedRun, Open: telemetry(true)},
		},
		Table: func(runs int, r Results) (*metrics.Table, error) {
			off, on := r.Mean("uninstrumented"), r.Mean("instrumented")
			overhead := (ratio(on, off) - 1) * 100
			t := metrics.NewTable(fmt.Sprintf("E17 — telemetry overhead (n=%d, %d entries/run, sharded-16 @ 16 hosts, durable WAL)", runs, shardedRun),
				"variant", "per-entry latency", "throughput", "verdict")
			t.AddRow("uninstrumented (registry disabled)", us(off, 2), perSec(off), "baseline")
			t.AddRow("instrumented (full telemetry)", us(on, 2), perSec(on),
				fmt.Sprintf("%+.2f%% (%s)", overhead, verdict(overhead <= 5.0, "within ≤5% budget", "OVER ≤5% budget")))
			t.AddRow("mid-workload /metrics scrape", fmt.Sprintf("%d phase series", len(phases)), "all present", "ok")
			return t, nil
		},
	}, nil
}

// e18 times what the anchor-verified checkpoint buys the restart path
// across three orders of magnitude of log population: a full replay
// reopens every record ever written (linear in history), while a
// checkpointed reopen starts the tree from the checkpoint's rows and
// replays only the short WAL suffix past the checkpoint, so it must
// stay flat — its median over reopensPerRun reopens per run within 2x
// of the smallest population's — as the log grows.
// A fourth population, 2^20 entries from eight hosts over four streams
// with every fourth an enrollment carrying a serial, checkpointed 100
// entries below its head, also times the proofs a reopened log serves:
// the first proof of the newest entry, which reads nothing below the
// checkpoint, and a proof of a cold entry, which reads its one tile back
// from the WAL segments (and, the log being just reopened, reads each
// segment it touches once to index it). Each runs on a log just
// reopened. The heap the checkpointed open leaves live is its last
// column. Its checkpointed open loads the checkpoint's snapshot of
// 262,144 serials into the serial maps, so it is linear in the serial
// count and takes no flat verdict.
func e18(env *Env) (*Plan, error) {
	ca, pub, err := newCA()
	if err != nil {
		return nil, err
	}
	const suffix, reopensPerRun = 256, 20
	noSync := func(string) (translog.StoreConfig, error) { return translog.StoreConfig{NoSync: true}, nil }
	sizes := []int{10_000, 100_000, 1_000_000}
	name := func(size int, ckpt bool) string {
		return fmt.Sprintf("%s-%d", verdict(ckpt, "checkpointed", "full-replay"), size)
	}
	var cases []Case
	for _, size := range sizes {
		for _, ckpt := range []bool{false, true} {
			at := 0
			if ckpt {
				at = size - suffix
			}
			cases = append(cases, Case{Name: name(size, ckpt), Reps: reopensPerRun, Open: recovery(ca, noSync, size, at)})
		}
	}

	// The serial population's checkpointed store is shared by the cases
	// that reopen it; its full-replay twin is built by its own case.
	const population, serialSuffix = 1 << 20, 100
	streams := func(string) (translog.StoreConfig, error) {
		return translog.StoreConfig{Shards: 4, NoSync: true}, nil
	}
	dir, err := env.tempDir()
	if err != nil {
		return nil, err
	}
	if err := writeStore(ca, streams, dir, population, population-serialSuffix, serialEntry); err != nil {
		return nil, err
	}
	var heapOpen uint64
	// prove reopens the store, untimed, and times one verified proof of
	// the serial serialOf picks for operation i.
	prove := func(serialOf func(i int) string) func(*Env) (Body, error) {
		return func(env *Env) (Body, error) {
			return each(func(i int) error {
				var l *translog.Log
				if err := env.untimed(func() (err error) { l, err = openStore(ca, streams, dir); return err }); err != nil {
					return err
				}
				pb, err := translog.NewLogTileProofSource(l, 0).ProveSerial(serialOf(i))
				if err == nil {
					err = env.untimed(func() error { return pb.Verify(pub) })
				}
				return errors.Join(err, l.Close())
			}), nil
		}
	}
	cases = append(cases,
		Case{Name: "full-replay-serials", Open: func(env *Env) (Body, error) {
			dir, err := env.tempDir()
			if err != nil {
				return nil, err
			}
			if err := writeStore(ca, streams, dir, population, 0, serialEntry); err != nil {
				return nil, err
			}
			return reopens(ca, streams, dir, population), nil
		}},
		Case{Name: "checkpointed-serials", Open: func(*Env) (Body, error) {
			before := liveHeap()
			l, err := openStore(ca, streams, dir)
			if err != nil {
				return nil, err
			}
			heapOpen = liveHeap() - before
			if err := l.Close(); err != nil {
				return nil, err
			}
			return reopens(ca, streams, dir, population), nil
		}},
		// The newest enrollment lies in the suffix past the checkpoint.
		Case{Name: "newest-proof-serials", Open: prove(func(int) string { return serialOf(population - 1) })},
		// Each operation proves an enrollment of a different cold tile.
		Case{Name: "cold-proof-serials", Open: prove(func(i int) string {
			return serialOf((i*7919 + 13) % (population - serialSuffix - translog.TileWidth))
		})},
	)
	return &Plan{Cases: cases, Table: func(runs int, r Results) (*metrics.Table, error) {
		smallest := r.P50(name(sizes[0], true))
		t := metrics.NewTable(fmt.Sprintf("E18 — checkpointed recovery vs full replay (n=%d, P50 of %d reopens/run, %d-entry suffix; serials: %d-entry suffix, 4 streams)",
			runs, reopensPerRun, suffix, serialSuffix),
			"population", "full replay", "checkpointed open", "speedup", "verdict",
			"newest-entry proof after reopen", "cold-entry proof after reopen", "live heap after open")
		for _, size := range sizes {
			full, ckpt := r.P50(name(size, false)), r.P50(name(size, true))
			t.AddRow(fmt.Sprint(size), ms(full), ms(ckpt), fmt.Sprintf("%.1f×", ratio(full, ckpt)),
				verdict(ckpt <= 2*smallest, "flat (≤2x smallest)", "NOT FLAT (>2x smallest)"), "-", "-", "-")
		}
		full, ckpt := r.P50("full-replay-serials"), r.P50("checkpointed-serials")
		t.AddRow(fmt.Sprintf("%d with serials", population), ms(full), ms(ckpt), fmt.Sprintf("%.1f×", ratio(full, ckpt)),
			"n/a: loads the serial snapshot",
			ms(r.P50("newest-proof-serials")), ms(r.P50("cold-proof-serials")),
			fmt.Sprintf("%.1f MiB", float64(heapOpen)/(1<<20)))
		return t, nil
	}}, nil
}

// serialEntry is entry i of E18's serial population: eight hosts, every
// fourth entry an enrollment carrying serialOf(i).
func serialEntry(i int) translog.Entry {
	host := hostLabels[i%8]
	if i%4 == 3 {
		return translog.Entry{Type: translog.EntryEnroll, Timestamp: int64(i), Actor: fmt.Sprintf("fw-%d", i), Host: host, Serial: serialOf(i)}
	}
	return translog.Entry{Type: translog.EntryAttestOK, Timestamp: int64(i), Actor: host, Host: host, Detail: "OK"}
}

// serialOf is the serial of the enrollment at or just past index i of
// E18's serial population.
func serialOf(i int) string { return strconv.Itoa(10_000_000 + (i | 3)) }

// liveHeap returns the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// e19 times tile-based proof serving at the scale the design is for: a
// 10^6-entry log served over HTTP, and an auditor that needs inclusion
// proofs for a recurring working set of credentials. The baseline asks
// a per-request proof endpoint (proofEndpoint: one round trip and one
// JSON decode per proof, folded on the server by a tile assembler over
// the log, warmed over the working set). The tile
// modes assemble the same proofs client-side from content-addressed
// tiles: cold thrashes a tiny LRU (every proof re-fetches its tiles),
// warm holds the working set's tiles pre-expanded, so a proof costs a
// few array reads and zero HTTP.
// Every proof is verified against the tree root in all modes. The
// acceptance verdict: warm tile assembly's median proof must beat the
// endpoint's by ≥10x.
func e19(env *Env) (*Plan, error) {
	ca, _, err := newCA()
	if err != nil {
		return nil, err
	}
	l, err := translog.NewLog(ca.Signer())
	if err != nil {
		return nil, err
	}
	const population, workingSet, proofsPerRun = 1_000_000, 2048, 3000
	if err := fill(l, 0, population, entry); err != nil {
		return nil, err
	}
	leaves := make([]translog.Hash, population)
	for i := range leaves {
		leaves[i] = translog.LeafHash(entry(i).Marshal())
	}
	sth := l.STH()
	// The working set is a fixed cycle of indices spread across the
	// whole tree, so a warm cache can cover it up front.
	prove := func(i int, proofs func(index, size uint64) ([]translog.Hash, error)) error {
		idx := uint64((i%workingSet)*7919) % population
		proof, err := proofs(idx, population)
		if err != nil {
			return err
		}
		return translog.VerifyInclusion(leaves[idx], idx, population, proof, sth.RootHash)
	}
	const warmTiles = 16384
	warm := func(proofs func(index, size uint64) ([]translog.Hash, error)) error {
		for i := 0; i < workingSet; i++ { // pull the whole working set in
			if err := prove(i, proofs); err != nil {
				return err
			}
		}
		return nil
	}
	url, err := serve(env, translog.Handler(l))
	if err != nil {
		return nil, err
	}
	server := translog.NewTileAssembler(l, warmTiles)
	if err := warm(server.InclusionProof); err != nil {
		return nil, err
	}
	endpoint, err := serve(env, proofEndpoint(server))
	if err != nil {
		return nil, err
	}
	modes := []struct {
		name  string
		tiles int // tile-cache capacity; 0 asks the endpoint
	}{{"endpoint", 0}, {"tile-cold", 4}, {"tile-warm", warmTiles}}
	assemblers := map[string]*translog.TileAssembler{}
	var cases []Case
	for _, m := range modes {
		cases = append(cases, Case{Name: m.name, Reps: proofsPerRun, Open: func(*Env) (Body, error) {
			proofs := endpointProofs(endpoint)
			if m.tiles > 0 {
				asm := translog.NewTileAssembler(translog.NewClient(url, nil), m.tiles)
				assemblers[m.name], proofs = asm, asm.InclusionProof
			}
			if m.name == "tile-warm" {
				if err := warm(proofs); err != nil {
					return nil, err
				}
			}
			return each(func(i int) error { return prove(i, proofs) }), nil
		}})
	}
	return &Plan{Cases: cases, Table: func(runs int, r Results) (*metrics.Table, error) {
		baseline := r.P50("endpoint")
		t := metrics.NewTable(fmt.Sprintf("E19 — tile-based proof serving at 10^6 entries (n=%d, %d proofs/run, %d-index working set)",
			runs, proofsPerRun, workingSet),
			"mode", "P50/proof", "proofs/sec at P50", "tile cache hits", "vs endpoint", "verdict")
		for _, m := range modes {
			p50 := r.P50(m.name)
			speedup := ratio(baseline, p50)
			hitRatio := "n/a"
			if asm := assemblers[m.name]; asm != nil {
				hits, misses := asm.Stats()
				hitRatio = fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
			}
			var v string
			if m.name == "tile-warm" {
				v = verdict(speedup >= 10, ">=10x (pass)", "BELOW 10x")
			}
			t.AddRow(m.name, us(p50, 1), fmt.Sprintf("%.0f", float64(time.Second)/float64(p50)),
				hitRatio, fmt.Sprintf("%.1f×", speedup), v)
		}
		return t, nil
	}}, nil
}

// proofEndpoint is E19's baseline server: GET ?index=&size= answers
// {"proof": [...]}, the audit path asm folds for that request.
func proofEndpoint(asm *translog.TileAssembler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		index, err1 := strconv.ParseUint(r.URL.Query().Get("index"), 10, 64)
		size, err2 := strconv.ParseUint(r.URL.Query().Get("size"), 10, 64)
		if err1 != nil || err2 != nil {
			http.Error(w, "bad index/size", http.StatusBadRequest)
			return
		}
		proof, err := asm.InclusionProof(index, size)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(wireProof{Proof: proof})
	})
}

// wireProof is proofEndpoint's reply.
type wireProof struct {
	Proof []translog.Hash `json:"proof"`
}

// endpointProofs is the baseline's client: one round trip and one JSON
// decode per proof.
func endpointProofs(base string) func(index, size uint64) ([]translog.Hash, error) {
	return func(index, size uint64) ([]translog.Hash, error) {
		resp, err := http.Get(fmt.Sprintf("%s?index=%d&size=%d", base, index, size))
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		var out wireProof
		if err := json.Unmarshal(body, &out); err != nil {
			return nil, err
		}
		return out.Proof, nil
	}
}

// e20 times the partitioned audit plane's scaling claim: as the fleet
// grows 16 -> 64 -> 256 hosts (shards scale with hosts, the witness set
// scales with the fleet, the quorum stays fixed at 3), one witness's
// full audit pass over its assigned slice must stay flat — within 1.5x
// of the 16-host cost — while a full-fleet witness with every shard
// assigned grows linearly. That flatness is what lets the deployment
// add hosts without adding per-witness verification burden.
func e20(env *Env) (*Plan, error) {
	const perHost, quorum, passesPerRun = 16, 3, 8
	ca, pub, err := newCA()
	if err != nil {
		return nil, err
	}
	fleets := []int{16, 64, 256}
	assigned := map[int]int{}
	name := func(hosts int, scope string) string { return fmt.Sprintf("hosts-%d/%s", hosts, scope) }
	var cases []Case
	for _, hosts := range fleets {
		shards := hosts
		witnesses := make([]string, hosts/2)
		for i := range witnesses {
			witnesses[i] = fmt.Sprintf("w%03d", i)
		}
		part, err := translog.NewWitnessPartition(shards, witnesses, quorum)
		if err != nil {
			return nil, err
		}
		l, err := translog.NewLog(ca.Signer())
		if err != nil {
			return nil, err
		}
		if err := l.EnableShardStreams(shards); err != nil {
			return nil, err
		}
		err = fill(l, 0, hosts*perHost, func(i int) translog.Entry {
			e := entry(i)
			e.Host = fmt.Sprintf("host-%d", i/perHost)
			return e
		})
		if err != nil {
			return nil, err
		}
		sth := l.STH()
		src := translog.NewLogTileProofSource(l, 0)
		audit := func(slice []int) Body {
			return each(func(int) error {
				w := translog.NewWitness(pub)
				w.SetAssignedShards(slice)
				if err := w.Advance(sth, src.ConsistencyProof); err != nil {
					return err
				}
				_, err := w.AuditShards(sth, src, 0)
				return err
			})
		}
		slice := part.AssignedShards(witnesses[0])
		assigned[hosts] = len(slice)
		all := make([]int, shards)
		for i := range all {
			all[i] = i
		}
		cases = append(cases,
			Case{Name: name(hosts, "per-witness"), Reps: passesPerRun, Body: audit(slice)},
			Case{Name: name(hosts, "full-fleet"), Reps: passesPerRun, Body: audit(all)})
	}
	return &Plan{Cases: cases, Table: func(runs int, r Results) (*metrics.Table, error) {
		base, baseFleet := r.Mean(name(fleets[0], "per-witness")), r.Mean(name(fleets[0], "full-fleet"))
		t := metrics.NewTable(fmt.Sprintf(
			"E20 — partitioned witness audit vs fleet size (n=%d, %d passes/run, %d entries/host, Q=%d, witnesses=hosts/2)",
			runs, passesPerRun, perHost, quorum),
			"hosts", "assigned shards", "per-witness pass", "vs 16 hosts", "full-fleet pass", "vs 16 hosts", "verdict")
		for _, hosts := range fleets {
			pw, ff := r.Mean(name(hosts, "per-witness")), r.Mean(name(hosts, "full-fleet"))
			growth := ratio(pw, base)
			var v string
			if hosts == fleets[len(fleets)-1] {
				v = verdict(growth <= 1.5, "flat <=1.5x (pass)", "NOT FLAT")
			}
			t.AddRow(fmt.Sprint(hosts), fmt.Sprint(assigned[hosts]), ms(pw), fmt.Sprintf("%.2f×", growth),
				ms(ff), fmt.Sprintf("%.2f×", ratio(ff, baseFleet)), v)
		}
		return t, nil
	}}, nil
}
