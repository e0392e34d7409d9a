// Command verification-manager is the paper's central component as a
// standalone process. It has two phases:
//
//	verification-manager -init -state-dir ./state
//
// generates the VM's long-term key, the certificate authority and the
// controller's server certificate, publishing the trust material into the
// state directory (the out-of-band trust establishment).
//
//	verification-manager -state-dir ./state -hosts host-a -enroll fw-1@host-a
//
// runs the workflow: registers hosts from their published HostInfo,
// learns the golden IML baseline, attests every host (steps 1–2 of
// Figure 1) and enrolls the requested VNFs (steps 3–5). The enrolled
// certificate is then validated for controller client authentication
// (step 6 is driven by the VNF process on the host; see
// examples/quickstart for the in-process end-to-end run).
package main

import (
	"crypto/ecdsa"
	"crypto/x509"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"strings"
	"time"

	"vnfguard/internal/enclaveapp"
	"vnfguard/internal/host"
	"vnfguard/internal/ias"
	"vnfguard/internal/obs"
	"vnfguard/internal/pki"
	"vnfguard/internal/sgx"
	"vnfguard/internal/simtime"
	"vnfguard/internal/statedir"
	"vnfguard/internal/translog"
	"vnfguard/internal/verifier"
)

func main() {
	initPhase := flag.Bool("init", false, "generate and publish trust material, then exit")
	stateDir := flag.String("state-dir", "./state", "shared state directory")
	hosts := flag.String("hosts", "", "comma-separated host names to register")
	enroll := flag.String("enroll", "", "comma-separated vnf@host enrollments")
	learn := flag.Bool("learn", true, "learn the current IML as golden before appraising")
	requireTPM := flag.Bool("require-tpm", false, "appraisal policy demands TPM-rooted IML")
	subKey := flag.String("subscription-key", "vnfguard-subscription", "IAS API key")
	sealLog := flag.Bool("seal-log", false, "anchor the durable log's tree head in an enclave-sealed monotonic counter")
	logCheckpointEvery := flag.Uint64("log-checkpoint-every", 0, "write an anchor-verified recovery checkpoint every N committed log entries, so a restart replays only the WAL past it (0 disables)")
	logShards := flag.Int("log-shards", 0, "per-host WAL shard count for the durable log (>1 gives each enrolled host its own segment stream and sequencer buffer; 0 or 1 keeps one stream). Verdicts batch through the merging sequencer either way")
	nvFile := flag.String("sgx-nv", "sgx-nv-vm.json", "platform NV file for -seal-log (models fuses+flash; keep it OUTSIDE the state dir)")
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
	if *initPhase {
		runInit(dir)
		return
	}
	runWorkflow(dir, *hosts, *enroll, *learn, *requireTPM, *subKey, *sealLog, *nvFile, *logShards, *logCheckpointEvery, *wait)
}

// runInit publishes the deployment's trust anchors.
func runInit(dir *statedir.Dir) {
	vmKeyPEM, err := statedir.GenerateKeyPEM()
	if err != nil {
		log.Fatal(err)
	}
	vmKey, err := statedir.ParseKeyPEM(vmKeyPEM)
	if err != nil {
		log.Fatal(err)
	}
	vmPubPEM, err := statedir.MarshalPubPEM(&vmKey.PublicKey)
	if err != nil {
		log.Fatal(err)
	}
	vendorPEM, err := statedir.GenerateKeyPEM()
	if err != nil {
		log.Fatal(err)
	}
	ca, err := pki.NewCA("verification-manager CA", 10*365*24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	caKeyPEM, err := ca.KeyPEM()
	if err != nil {
		log.Fatal(err)
	}
	ctrlKey, err := pki.GenerateKey()
	if err != nil {
		log.Fatal(err)
	}
	ctrlCert, err := ca.IssueServerCert("controller", []string{"controller"}, nil, &ctrlKey.PublicKey, 10*365*24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	ctrlKeyPEM, err := statedir.MarshalKeyPEM(ctrlKey)
	if err != nil {
		log.Fatal(err)
	}
	for name, data := range map[string][]byte{
		statedir.FileVMKey:          vmKeyPEM,
		statedir.FileVMPub:          vmPubPEM,
		statedir.FileVendorKey:      vendorPEM,
		statedir.FileCACert:         ca.CertPEM(),
		statedir.FileCAKey:          caKeyPEM,
		statedir.FileControllerCert: pki.EncodeCertPEM(ctrlCert),
		statedir.FileControllerKey:  ctrlKeyPEM,
	} {
		if err := dir.Write(name, data); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("init complete: VM key, CA and controller certificate published to %s", dir.Path(""))
}

// hostInfo mirrors the record container-host publishes.
type hostInfo struct {
	Name          string `json:"name"`
	AgentURL      string `json:"agent_url"`
	AttestationMR string `json:"attestation_mrenclave"`
	AIKPubDER     string `json:"aik_pub_der"`
}

func runWorkflow(dir *statedir.Dir, hostList, enrollList string, learn, requireTPM bool, subKey string, sealLog bool, nvFile string, logShards int, logCheckpointEvery uint64, wait time.Duration) {
	model := simtime.DefaultCosts()

	vmKeyPEM, err := dir.WaitFor(statedir.FileVMKey, wait)
	if err != nil {
		log.Fatalf("run `verification-manager -init` first: %v", err)
	}
	vmKey, err := statedir.ParseKeyPEM(vmKeyPEM)
	if err != nil {
		log.Fatal(err)
	}
	vendorPEM, err := dir.WaitFor(statedir.FileVendorKey, wait)
	if err != nil {
		log.Fatal(err)
	}
	vendor, err := statedir.ParseKeyPEM(vendorPEM)
	if err != nil {
		log.Fatal(err)
	}
	caCertPEM, err := dir.WaitFor(statedir.FileCACert, wait)
	if err != nil {
		log.Fatal(err)
	}
	caKeyPEM, err := dir.WaitFor(statedir.FileCAKey, wait)
	if err != nil {
		log.Fatal(err)
	}
	ca, err := pki.LoadCA(caCertPEM, caKeyPEM)
	if err != nil {
		log.Fatal(err)
	}

	iasURL, err := dir.ReadString(statedir.FileIASURL)
	if err != nil {
		if _, err = dir.WaitFor(statedir.FileIASURL, wait); err != nil {
			log.Fatalf("waiting for IAS (start ias-server): %v", err)
		}
		iasURL, _ = dir.ReadString(statedir.FileIASURL)
	}
	iasCert, err := dir.WaitFor(statedir.FileIASCert, wait)
	if err != nil {
		log.Fatal(err)
	}
	iasClient, err := ias.NewClient(iasURL, subKey, iasCert, model)
	if err != nil {
		log.Fatal(err)
	}

	policy := verifier.DefaultPolicy()
	policy.RequireTPM = requireTPM
	// The transparency log lives in the statedir, so the audit history —
	// and the rollback guarantee recovery enforces over it — survives VM
	// restarts. A rolled-back or tampered statedir refuses to open here.
	// With -seal-log it additionally refuses (ErrSealedRollback) a
	// statedir rewound *consistently*, because the newest head is pinned
	// by a monotonic counter in the platform NV file — which models
	// hardware and therefore must not live inside the rewindable
	// statedir.
	logDir := dir.Path(statedir.DirVMLog)
	store := translog.StoreConfig{Shards: logShards, CheckpointEvery: logCheckpointEvery}
	if sealLog {
		platform, err := translog.OpenSealedPlatform(dir, "verification-manager", nvFile, model)
		if err != nil {
			log.Fatal(err)
		}
		// The anchor enclave is signed with the VM's long-term key; the
		// sealed blob binds (AAD) to the CA key that signs tree heads,
		// so it can never vouch for another log's freshness.
		sealed, err := translog.NewSealedHeadAnchor(platform, vmKey,
			filepath.Join(logDir, translog.SealedHeadFileName), ca.Certificate().PublicKey.(*ecdsa.PublicKey))
		if err != nil {
			log.Fatalf("launching sealed-head anchor: %v", err)
		}
		store.Anchors = []translog.TrustAnchor{sealed}
	}
	tlog, err := translog.OpenDurableLog(ca.Signer(), logDir, store)
	if err != nil {
		log.Fatal(err)
	}
	vm, err := verifier.New(verifier.Config{
		Name: "verification-manager", Key: vmKey, SPID: sgx.SPID{0x42},
		IAS: iasClient, Policy: policy, CA: ca, Log: tlog,
	})
	if err != nil {
		log.Fatal(err)
	}
	if sealLog {
		log.Printf("sealed-head anchor active: tree head pinned by enclave-sealed monotonic counter (NV: %s)", nvFile)
	}
	// Report the effective stream count: a store pinned its layout at
	// creation, so a mismatched -log-shards keeps the original streams.
	if n := vm.TransparencyLog().StoreShards(); n > 1 {
		if n != logShards {
			log.Printf("per-host sharded audit log active: %d WAL streams (pinned at store creation; -log-shards %d ignored)", n, logShards)
		} else {
			log.Printf("per-host sharded audit log active: %d WAL streams, verdicts batched through the merging sequencer", n)
		}
	}
	log.Printf("durable transparency log open: %d entries recovered from %s",
		vm.TransparencyLog().Size(), logDir)
	credMR, err := enclaveapp.ExpectedCredentialMeasurement(vendor, vm.PublicKey())
	if err != nil {
		log.Fatal(err)
	}
	vm.PinCredentialMeasurement(credMR)

	if hostList == "" {
		log.Fatal("no -hosts given")
	}
	for _, name := range strings.Split(hostList, ",") {
		name = strings.TrimSpace(name)
		raw, err := dir.WaitFor(statedir.HostInfoFile(name), wait)
		if err != nil {
			log.Fatalf("waiting for host %s (start container-host): %v", name, err)
		}
		var info hostInfo
		if err := json.Unmarshal(raw, &info); err != nil {
			log.Fatal(err)
		}
		mr, err := parseMeasurement(info.AttestationMR)
		if err != nil {
			log.Fatal(err)
		}
		vm.PinAttestationMeasurement(mr)
		var aik *ecdsa.PublicKey
		if info.AIKPubDER != "" {
			der, err := base64.StdEncoding.DecodeString(info.AIKPubDER)
			if err != nil {
				log.Fatal(err)
			}
			pubAny, err := x509.ParsePKIXPublicKey(der)
			if err != nil {
				log.Fatal(err)
			}
			pub, ok := pubAny.(*ecdsa.PublicKey)
			if !ok {
				log.Fatalf("host %s AIK type %T unsupported", name, pubAny)
			}
			aik = pub
		}
		vm.RegisterHost(name, host.NewClient(info.AgentURL), aik)
		if shard, ok := vm.LogShard(name); ok {
			log.Printf("registered host %s at %s (audit entries -> log shard %d)", name, info.AgentURL, shard)
		} else {
			log.Printf("registered host %s at %s", name, info.AgentURL)
		}

		if learn {
			if err := vm.LearnHostGolden(name); err != nil {
				log.Fatal(err)
			}
			log.Printf("learned golden IML for %s", name)
		}
		app, err := vm.AttestHost(name)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("host %s: trusted=%v quote=%s IML=%d entries tpm=%v",
			name, app.Trusted, app.QuoteStatus, app.IMLEntries, app.TPMVerified)
		if !app.Trusted {
			for _, f := range app.Findings {
				log.Printf("  finding: %s", f)
			}
			log.Fatal("aborting: host not trusted")
		}
	}

	for _, pair := range strings.Split(enrollList, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		vnfName, hostName, ok := strings.Cut(pair, "@")
		if !ok {
			log.Fatalf("malformed -enroll entry %q (want vnf@host)", pair)
		}
		enr, err := vm.EnrollVNF(hostName, vnfName)
		if err != nil {
			log.Fatalf("enrolling %s: %v", pair, err)
		}
		if err := vm.CA().VerifyClient(enr.Cert); err != nil {
			log.Fatalf("enrolled certificate failed verification: %v", err)
		}
		pb, err := vm.CredentialProof(enr.Serial)
		if err != nil {
			log.Fatalf("enrolled credential missing from transparency log: %v", err)
		}
		if err := pb.Verify(vm.CA().Certificate().PublicKey.(*ecdsa.PublicKey)); err != nil {
			log.Fatalf("credential inclusion proof failed: %v", err)
		}
		log.Printf("enrolled %s on %s: certificate serial %s (client-auth verified; logged at index %d of %d)",
			enr.VNF, enr.Host, enr.Serial, pb.Index, pb.STH.Size)
	}

	// Mirror the audit trail to the deployment's public log server when
	// one is running, so auditors and controllers in other processes can
	// fetch proofs without reaching into the VM. Both logs are durable
	// now, so only the suffix the server has not yet seen is sent.
	if err := vm.FlushLog(); err != nil {
		log.Printf("flushing transparency log: %v", err)
	}
	if logURL, err := dir.ReadString(statedir.FileLogURL); err == nil {
		l := vm.TransparencyLog()
		client := translog.NewClient(logURL, nil)
		// fresh, when set, is the server's signed head covering everything
		// mirrored: the head worth pushing to the witness set. It must be
		// the *server's* head — the VM's own log is signed by the same CA
		// key, so publishing a VM head the server has not caught up to yet
		// would read as a server rollback to the witnesses.
		var fresh *translog.SignedTreeHead
		sth, err := client.STH()
		if err != nil {
			// Without the server's size the safe suffix is unknown;
			// falling back to 0 would duplicate the whole history in the
			// server's durable log. Skip this run and let the next one
			// mirror the accumulated suffix.
			log.Printf("log server at %s unreachable (%v) — not mirroring this run", logURL, err)
		} else if from := sth.Size; from > l.Size() {
			log.Printf("log server at %s holds %d entries, VM only %d — not mirroring", logURL, from, l.Size())
		} else if entries, err := l.Entries(from, l.Size()-from); err != nil {
			log.Printf("reading audit entries from index %d to mirror: %v — not mirroring this run", from, err)
		} else if len(entries) > 0 {
			newSTH, err := client.AppendSTH(entries)
			switch {
			case errors.Is(err, translog.ErrAppendRejected):
				// The server refused the entries themselves (AppendSTH
				// already splits the suffix into requests under its body
				// cap): resending can never succeed — say so instead of
				// retrying it into the same wall forever.
				log.Printf("log server rejected mirrored entries as invalid (not retryable): %v", err)
			case errors.Is(err, translog.ErrLogUnavailable):
				log.Printf("log server store unavailable — will mirror the suffix next run: %v", err)
			case err != nil:
				log.Printf("mirroring audit entries to %s: %v", logURL, err)
			default:
				log.Printf("mirrored %d new audit entries (from index %d) to log server %s", len(entries), from, logURL)
				fresh = &newSTH
			}
		} else {
			fresh = &sth
		}
		if fresh != nil {
			publishHeadToWitnesses(dir, ca.Certificate().PublicKey.(*ecdsa.PublicKey), *fresh)
		}
		// In a partitioned deployment the operators' question is not just
		// "did the witnesses see the head" but "did a quorum co-sign it":
		// report where the quorum artifact stands against what we mirrored.
		if pcfg, perr := translog.LoadPartitionConfig(dir); perr == nil {
			ch, cerr := client.Cosigned()
			switch {
			case errors.Is(cerr, translog.ErrQuorumNotReached):
				log.Printf("quorum status: no %d-of-%d co-signed head yet (witnesses still auditing their shards)", pcfg.Quorum, len(pcfg.Witnesses))
			case cerr != nil:
				log.Printf("quorum status unavailable: %v", cerr)
			default:
				log.Printf("quorum status: head at size %d carries %d co-signature(s) (quorum %d-of-%d)",
					ch.STH.Size, len(ch.Signatures), pcfg.Quorum, len(pcfg.Witnesses))
			}
		}
	}
	if err := vm.Close(); err != nil {
		log.Printf("closing transparency log: %v", err)
	}

	if url, err := dir.ReadString(statedir.FileControllerURL); err == nil {
		log.Printf("controller at %s trusts the CA; enrolled VNFs can now push flows (step 6)", url)
	}
	log.Print("workflow complete")
}

// publishHeadToWitnesses pushes a fresh signed tree head to every
// gossiping witness that published its URL into the state directory, so
// the witness set anchors on the newest committed history immediately —
// not at its next poll. A witness that answers with a conviction whose
// evidence verifies (two irreconcilable signed heads) is surfaced
// loudly: that is the rollback alarm the gossip network exists to raise.
func publishHeadToWitnesses(dir *statedir.Dir, pub *ecdsa.PublicKey, head translog.SignedTreeHead) {
	entries, err := dir.Match(statedir.WitnessURLPattern)
	if err != nil || len(entries) == 0 {
		return
	}
	for _, entry := range entries {
		url, err := dir.ReadString(entry)
		if err != nil {
			continue
		}
		peerHead, seen, err := translog.NewClient(url, pub).ExchangeGossip("verification-manager", head, true)
		var ce *translog.ConflictError
		switch {
		case errors.As(err, &ce) && ce.Verify(pub) == nil:
			evidence, _ := json.MarshalIndent(ce, "", "  ")
			log.Printf("AUDIT FAILURE reported by witness at %s: %v\nevidence:\n%s", url, ce, evidence)
		case err != nil:
			log.Printf("publishing head to witness at %s: %v", url, err)
		case seen:
			log.Printf("published head (size %d) to witness at %s (witness holds size %d)", head.Size, url, peerHead.Size)
		default:
			log.Printf("published head (size %d) to witness at %s", head.Size, url)
		}
	}
}

func parseMeasurement(hexStr string) (sgx.Measurement, error) {
	var mr sgx.Measurement
	raw, err := hex.DecodeString(hexStr)
	if err != nil || len(raw) != 32 {
		return mr, fmt.Errorf("bad measurement %q", hexStr)
	}
	copy(mr[:], raw)
	return mr, nil
}
