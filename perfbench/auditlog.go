package main

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"vnfguard/internal/obs"
	"vnfguard/internal/translog"
)

// The audit-log workload: durable transparency-log ingest with reads
// beside the writes. A writer client ingests attestation verdicts from 64
// hosts through the ShardedAppender in chunks of logChunk, waiting on
// Flush after each; a reader client alternates the VM's synchronous
// two-entry enrollment commit with a credential proof fetched over HTTP
// tiles and verified, logReadsPerChunk operations per chunk the writer
// completes, so every run mixes the same work. The run ends by closing
// and reopening the log.

const (
	logShards = 4
	// logChunk is the writer's batch between Flushes. Every commit
	// replaces the log's tree-head file, and each replacement frees an
	// inode that later file creations step over (see spreadSubdirs).
	// 512-entry chunks, eight times the commits per entry, cost 8.4–10.1
	// µs of processor time per entry against 6.7–7.1 µs in alternating
	// runs, and moved more between runs.
	logChunk           = 4096
	logSerialEvery     = 500
	logHot             = 1024 // hot proofs read serials among the newest entries
	logPrefill         = 12 * logChunk
	logCheckpointEvery = 4 * logChunk
	logChunkRate       = 8 // writer chunks per second of -seconds
	logReadsPerChunk   = 16
	logWarmup          = 3   // chunks, each with its reader operations
	logReopens         = 400 // twenty windows of 20 for the reopen p50
	logReopenSuffix    = logChunk
)

// logStore is the durable store's configuration. It fsyncs only in traced
// runs, whose per-layer metrics carry no bound: fsync latency on a shared
// disk varied fivefold between runs. It leaves CheckpointEvery off: the
// background checkpointer skips a due checkpoint while the previous one
// still runs, so how much checkpoint and compaction work a run does, and
// the on-disk layout a reopen recovers, would depend on timing.
// ingestChunk starts the same background checkpoint every
// logCheckpointEvery entries instead.
func logStore(sync bool) translog.StoreConfig {
	return translog.StoreConfig{Shards: logShards, NoSync: !sync}
}

type auditLog struct {
	seed     int64
	dir      string
	store    translog.StoreConfig
	key      *ecdsa.PrivateKey
	log      *translog.Log
	app      *translog.ShardedAppender
	srv      *http.Server
	src      *translog.TileProofSource
	proofs   translog.ProofSource
	hosts    []string
	verdicts []uint8
	written  int // entries the writer appended
	reader   int // enrollments the reader committed
	run      *run
	ckpts    sync.WaitGroup // background checkpoints in flight
	noCkpt   bool           // the final checkpoint is taken: start no more
}

func runAuditLog(r *run) error {
	// At 30 s, 240 chunks: each of the meter's twenty windows holds 12
	// chunks and so the same three background checkpoints.
	chunks := max(r.Seconds*logChunkRate, 240/logReadsPerChunk) // ≥ 120 proofs for the p90
	readerOps := chunks * logReadsPerChunk
	draws := proofDraws(r.Seed, readerOps+logWarmup*logReadsPerChunk)
	var tr *tracer
	a, err := timedSetup(r, func() (*auditLog, error) {
		tr = nil
		if r.Trace {
			tr = newTracer(2)
		}
		// A fresh, randomly named directory: the filesystem picks its block
		// group from the name (see spreadSubdirs).
		dir, err := os.MkdirTemp(r.Out, "log-")
		if err != nil {
			return nil, err
		}
		return setupAuditLog(r, dir, chunks, tr, draws[readerOps:])
	}, func(a *auditLog) { a.close() })
	if err != nil {
		return err
	}
	defer a.close()

	var proofs latencies
	var writerEnd, readerEnd time.Duration
	before := snapshotLog()
	hits0, misses0 := a.src.Stats()
	base := a.written
	p := beginPhase(nil)
	m := newMeter(chunks, runWindows)
	// The reader's operations for chunk i start once the writer has
	// committed chunk i, and the writer's chunk i+2 once the reader has
	// finished them: the two clients stay in step whatever their speeds.
	chunked, read := make(chan struct{}, chunks), make(chan struct{}, readerOps)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < chunks; i++ {
			for k := 0; i >= 2 && k < logReadsPerChunk; k++ {
				<-read
			}
			r.check(a.ingestChunk())
			m.done(logChunk, logChunk)
			chunked <- struct{}{}
		}
		writerEnd = p.since()
	}()
	go func() {
		defer wg.Done()
		tr.bind(1)
		for i := 0; i < readerOps; i++ {
			if i%logReadsPerChunk == 0 {
				<-chunked
			}
			tr.startOp(1, int64(i))
			if i%2 == 0 {
				_, err := timed(tr, 1, "translog.sync_commit", func() (struct{}, error) { return struct{}{}, a.commitEnrollment() })
				if r.check(err) {
					m.addWork(2)
				}
			} else if start := time.Now(); r.check(a.proveOne(draws[i], base+(i/logReadsPerChunk+1)*logChunk)) {
				proofs.add(ms(time.Since(start)), clock.now())
			}
			read <- struct{}{}
		}
		readerEnd = p.since()
	}()
	wg.Wait()
	a.ckpts.Wait()
	p.end()
	after := snapshotLog()

	entries := chunks*logChunk + 2*((readerOps+1)/2)
	r.report("log_writer_s", writerEnd.Seconds(), "s", "")
	r.report("log_reader_s", readerEnd.Seconds(), "s", "")
	rate, cpu := m.result()
	r.report("log_commit_per_s", rate, "1/s", "ops_per_s")
	r.report("log_cpu_us", cpu, "us", "cpu_us_per_op")
	if err := r.reportLatency("log_proof", &proofs, "us", "op_p50_ms", "op_p90_ms"); err != nil {
		return err
	}
	r.report("heap_mb", p.HeapMB, "MB", "heap_mb")

	reopens, suffix := a.reopen(r)
	if err := r.reportLatency("log_reopen", reopens, "ms", "aux_p50_ms", ""); err != nil {
		return err
	}
	if !r.Trace {
		return nil
	}
	st, err := r.finishTrace(tr)
	if err != nil {
		return err
	}
	after.layers(r, before)
	r.setLayer("translog.sync_commit_ms", st.p50("translog.sync_commit"))
	r.setLayer("translog.proof_us", st.p50("translog.prove_serial")*1000)
	tileHits(r, a.src, hits0, misses0)
	r.setLayer("translog.recovery_suffix_entries", suffix)
	p.runtimeLayer(r, entries)
	return nil
}

// setupAuditLog opens a durable log in dir, pre-fills it, serves it on
// loopback and warms up both clients.
func setupAuditLog(r *run, dir string, chunks int, tr *tracer, warm []proofDraw) (*auditLog, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	a := &auditLog{seed: r.Seed, dir: dir, store: logStore(r.Sync), key: key, run: r, hosts: auditHosts(r.Seed),
		verdicts: verdictHosts(r.Seed, logPrefill+logReopenSuffix+(chunks+logWarmup)*logChunk)}
	if a.log, err = translog.OpenDurableLog(key, dir, a.store); err != nil {
		return nil, err
	}
	a.app = translog.NewShardedAppender(a.log, translog.ShardedAppenderConfig{Shards: logShards})
	for a.written < logPrefill {
		if err := a.ingestChunk(); err != nil {
			a.close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		a.close()
		return nil, err
	}
	a.srv = &http.Server{Handler: translog.Handler(a.log)}
	go a.srv.Serve(ln)
	a.src = translog.NewTileProofSource(translog.NewClient("http://"+ln.Addr().String(), &key.PublicKey), 0)
	a.proofs = a.src
	if tr != nil {
		a.proofs = &tracedProofs{next: a.src, tr: tr, who: func(string) (int, bool) { return 1, true }}
	}
	for i := 0; i < logWarmup*logReadsPerChunk; i++ {
		var err error
		if i%logReadsPerChunk == 0 {
			err = a.ingestChunk()
		}
		if err == nil && i%2 == 0 {
			err = a.commitEnrollment()
		} else if err == nil {
			err = a.proveOne(warm[i], a.written)
		}
		if err != nil {
			a.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return a, nil
}

// ingestChunk appends the writer's next chunk of verdicts (every 500th
// entry an enrollment carrying a serial) and waits for it to commit.
func (a *auditLog) ingestChunk() error {
	for i := 0; i < logChunk; i++ {
		n := a.written
		a.written++
		host := a.hosts[a.verdicts[n]]
		e := translog.Entry{Type: translog.EntryAttestOK, Actor: host, Host: host, Detail: "OK", Timestamp: int64(n)}
		if n%logSerialEvery == logSerialEvery-1 {
			e.Type, e.Actor, e.Serial, e.Detail = translog.EntryEnroll, fmt.Sprintf("vnf-%d", n), serialName(a.seed, n), ""
		}
		if err := a.app.Append(e); err != nil {
			return err
		}
	}
	if err := a.app.Flush(); err != nil {
		return err
	}
	if a.written%logCheckpointEvery == 0 && !a.noCkpt {
		a.ckpts.Add(1)
		go func() {
			defer a.ckpts.Done()
			a.run.check(a.log.Checkpoint())
		}()
	}
	return nil
}

// readerSerial is the serial of the reader's i-th enrollment.
func (a *auditLog) readerSerial(i int) string { return serialName(a.seed, 50_000_000+i) }

// commitEnrollment is the VM's synchronous enrollment commit: an enroll
// and a provision entry under one tree head.
func (a *auditLog) commitEnrollment() error {
	serial := a.readerSerial(a.reader)
	vnf := fmt.Sprintf("reader-vnf-%d", a.reader)
	a.reader++
	host := a.hosts[a.reader%len(a.hosts)]
	_, err := a.log.AppendBatch([]translog.Entry{
		{Type: translog.EntryEnroll, Actor: vnf, Host: host, Serial: serial},
		{Type: translog.EntryProvision, Actor: vnf, Host: host, Serial: serial, Detail: "vm-generated"},
	})
	return err
}

// pick resolves a proof draw to a committed serial once the writer has
// committed its first written entries: a hot draw reads one of the
// writer's serials among its newest logHot entries, a uniform draw any
// serial of the writer's or of the reader's enrollments. The choice
// depends on the draw and the counts alone, so a seed fixes it.
func (a *auditLog) pick(d proofDraw, written int) string {
	w := written / logSerialEvery // the writer's serials so far
	if d.Hot {
		lo := max(written-logHot, 0) / logSerialEvery
		k := lo + int(d.U*float64(w-lo))
		return serialName(a.seed, k*logSerialEvery+logSerialEvery-1)
	}
	k := int(d.U * float64(w+a.reader))
	if k < w {
		return serialName(a.seed, k*logSerialEvery+logSerialEvery-1)
	}
	return a.readerSerial(k - w)
}

// proveOne fetches a credential proof over HTTP tiles and verifies it.
func (a *auditLog) proveOne(d proofDraw, written int) error {
	serial := a.pick(d, written)
	pb, err := a.proofs.ProveSerial(serial)
	if err != nil {
		return fmt.Errorf("proof of %s: %w", serial, err)
	}
	if err := pb.Verify(&a.key.PublicKey); err != nil {
		return fmt.Errorf("proof of %s: %w", serial, err)
	}
	if pb.Entry.Serial != serial {
		return fmt.Errorf("proof of %s covers serial %s", serial, pb.Entry.Serial)
	}
	return nil
}

// reopen checks the committed size, then checkpoints the log and appends
// a fixed WAL suffix of logReopenSuffix entries past it, so every run
// recovers the same on-disk state whatever the background checkpointer
// had reached. It closes the log and reopens it logReopens times, checking
// each reopened head against the head before close, and returns the
// reopen latencies and the mean recovery suffix length.
func (a *auditLog) reopen(r *run) (*latencies, float64) {
	a.srv.Close()
	a.srv = nil
	r.check(sizeCheck(a.log.Size(), uint64(a.written+2*a.reader)))
	a.noCkpt = true
	r.check(a.log.Checkpoint())
	for i := 0; i < logReopenSuffix/logChunk; i++ {
		r.check(a.ingestChunk())
	}
	r.check(a.app.Close())
	a.app = nil
	head := a.log.STH()
	r.check(a.log.Close())
	a.log = nil
	suffix0 := mRecoverySuffix.Value()
	// The collector is paused while the reopens run; the forced collection
	// before each one frees the previous one's garbage. With the collector
	// running, its pacer settled for seconds at a time into one of two
	// states, 17.5 or 23 ms per reopen, and over ten runs the reopen p50
	// spread 0.14 of its median; paused, reopens took 11–12.5 ms.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var lats latencies
	for i := 0; i < logReopens; i++ {
		runtime.GC()
		start := time.Now()
		l, err := translog.OpenDurableLog(a.key, a.dir, a.store)
		lat := time.Since(start)
		if !r.check(err) {
			continue
		}
		got := l.STH()
		r.check(sameHead(got, head))
		r.check(l.Close())
		lats.add(ms(lat), clock.now())
	}
	return &lats, float64(mRecoverySuffix.Value()-suffix0) / logReopens
}

func sizeCheck(got, want uint64) error {
	if got != want {
		return fmt.Errorf("committed size %d, appended %d", got, want)
	}
	return nil
}

func sameHead(got, want translog.SignedTreeHead) error {
	if got.Size != want.Size || got.RootHash != want.RootHash || got.Timestamp != want.Timestamp || !bytes.Equal(got.Signature, want.Signature) {
		return fmt.Errorf("reopened head %d/%x differs from head before close %d/%x", got.Size, got.RootHash[:4], want.Size, want.RootHash[:4])
	}
	return nil
}

func (a *auditLog) close() {
	a.ckpts.Wait()
	if a.srv != nil {
		a.srv.Close()
	}
	if a.app != nil {
		a.app.Close()
	}
	if a.log != nil {
		a.log.Close()
	}
	os.RemoveAll(a.dir)
}

// tileHits records the tile-cache hit ratio of a proof source since the
// given Stats reading.
func tileHits(r *run, src *translog.TileProofSource, hits0, misses0 uint64) {
	hits, misses := src.Stats()
	if h, m := hits-hits0, misses-misses0; h+m > 0 {
		r.setLayer("translog.tile_hit_ratio", float64(h)/float64(h+m))
	}
}

// ---- translog telemetry deltas ------------------------------------------------

var (
	mAppended       = obs.Default().Counter("translog_appended_entries_total", "")
	mCommits        = obs.Default().Counter("translog_commits_total", "")
	mFsyncs         = obs.Default().Counter("translog_wal_fsyncs_total", "")
	mRecoverySuffix = obs.Default().Counter("translog_recovery_suffix_entries_total", "")
	mPhases         = map[string]*obs.Histogram{
		"translog.merkle_us":   obs.Default().Histogram("translog_cycle_phase_seconds", "", "phase", "merkle"),
		"translog.sign_us":     obs.Default().Histogram("translog_cycle_phase_seconds", "", "phase", "sign"),
		"translog.wal_sync_us": obs.Default().Histogram("translog_cycle_phase_seconds", "", "phase", "wal_sync"),
	}
)

// logSnapshot is a reading of the log's commit-pipeline telemetry.
type logSnapshot struct {
	appended, commits, fsyncs uint64
	phaseSum                  map[string]time.Duration
	phaseCount                map[string]uint64
}

func snapshotLog() logSnapshot {
	s := logSnapshot{appended: mAppended.Value(), commits: mCommits.Value(), fsyncs: mFsyncs.Value(),
		phaseSum: map[string]time.Duration{}, phaseCount: map[string]uint64{}}
	for name, h := range mPhases {
		s.phaseSum[name], s.phaseCount[name] = h.Sum(), h.Count()
	}
	return s
}

// layers records the commit-pipeline per-layer metrics between two
// readings: entries and fsyncs per commit, and mean phase times.
func (s logSnapshot) layers(r *run, before logSnapshot) {
	if commits := s.commits - before.commits; commits > 0 {
		r.setLayer("translog.entries_per_commit", float64(s.appended-before.appended)/float64(commits))
		r.setLayer("translog.fsyncs_per_commit", float64(s.fsyncs-before.fsyncs)/float64(commits))
	}
	for name := range mPhases {
		if n := s.phaseCount[name] - before.phaseCount[name]; n > 0 {
			r.setLayer(name, (s.phaseSum[name]-before.phaseSum[name]).Seconds()/float64(n)*1e6)
		}
	}
}
