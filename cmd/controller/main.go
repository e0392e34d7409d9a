// Command controller runs the Floodlight-like SDN controller as a
// standalone process. It waits for the Verification Manager's init phase
// to publish its server certificate (issued by the VM's CA, so enrolled
// VNFs can authenticate the controller) and serves the north-bound REST
// API in the selected security mode over a demo forwarding plane.
//
//	controller -addr 127.0.0.1:8080 -state-dir ./state -mode trusted-https
package main

import (
	"crypto/ecdsa"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"flag"
	"log"
	"os"
	"time"

	"vnfguard/internal/controller"
	"vnfguard/internal/netsim"
	"vnfguard/internal/obs"
	"vnfguard/internal/pki"
	"vnfguard/internal/statedir"
	"vnfguard/internal/translog"
)

// pinName is the witness name the controller's quorum-head pin persists
// under in the statedir (witness-controller-head.json).
const pinName = "controller"

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	stateDir := flag.String("state-dir", "./state", "shared state directory")
	modeName := flag.String("mode", "trusted-https", "security mode: http, https, trusted-https")
	logURL := flag.String("log-url", "", "transparency-log server URL for trusted-https credential checks (default: the URL published in the state dir; \"off\" disables the log check)")
	wait := flag.Duration("wait", 30*time.Second, "how long to wait for VM init material")
	metricsAddr := flag.String("metrics-addr", "127.0.0.1:0", "telemetry listen address (/metrics, /debug/vars, /debug/pprof); empty disables. The endpoint is unauthenticated — keep it loopback-bound.")
	flag.Parse()

	if _, err := obs.Start(*metricsAddr, log.Printf); err != nil {
		log.Fatal(err)
	}

	var mode controller.SecurityMode
	switch *modeName {
	case "http":
		mode = controller.ModeHTTP
	case "https":
		mode = controller.ModeHTTPS
	case "trusted-https":
		mode = controller.ModeTrustedHTTPS
	default:
		log.Fatalf("unknown mode %q", *modeName)
	}

	dir, err := statedir.Open(*stateDir)
	if err != nil {
		log.Fatal(err)
	}

	// Demo forwarding plane: one switch, an external client and a server.
	network := netsim.NewNetwork()
	if _, err := network.AddSwitch("00:00:01"); err != nil {
		log.Fatal(err)
	}
	if err := network.AttachHost("ext-client", "00:00:01", 1); err != nil {
		log.Fatal(err)
	}
	if err := network.AttachHost("svc-server", "00:00:01", 2); err != nil {
		log.Fatal(err)
	}
	ctrl := controller.New("lightpath", network)

	cfg := controller.ServerConfig{Mode: mode}
	if mode != controller.ModeHTTP {
		certPEM, err := dir.WaitFor(statedir.FileControllerCert, *wait)
		if err != nil {
			log.Fatalf("waiting for controller certificate (run `verification-manager -init` first): %v", err)
		}
		keyPEM, err := dir.WaitFor(statedir.FileControllerKey, *wait)
		if err != nil {
			log.Fatal(err)
		}
		cert, err := tls.X509KeyPair(certPEM, keyPEM)
		if err != nil {
			log.Fatalf("loading controller keypair: %v", err)
		}
		cfg.Cert = cert
	}
	if mode == controller.ModeTrustedHTTPS {
		caPEM, err := dir.WaitFor(statedir.FileCACert, *wait)
		if err != nil {
			log.Fatal(err)
		}
		ca, err := pki.ParseCertPEM(caPEM)
		if err != nil {
			log.Fatal(err)
		}
		pool := x509.NewCertPool()
		pool.AddCert(ca)
		cfg.Trust = controller.TrustCA
		cfg.ClientCAs = pool

		// Trusted mode also demands logged evidence: every client
		// credential must be provably in the VM's transparency log (and
		// not revoked there). Proofs are assembled client-side from
		// cached immutable tiles — a handshake burst costs the log
		// server cacheable tile reads, not per-handshake audit-path
		// computation.
		if *logURL != "off" {
			url := *logURL
			if url == "" {
				if raw, err := dir.WaitFor(statedir.FileLogURL, *wait); err == nil {
					url = string(raw)
				} else {
					log.Printf("no transparency-log URL published (%v); serving without the credential log check (set -log-url to require it)", err)
				}
			}
			if url != "" {
				caPub, ok := ca.PublicKey.(*ecdsa.PublicKey)
				if !ok {
					log.Fatalf("CA key type %T unsupported for log verification", ca.PublicKey)
				}
				client := translog.NewClient(url, caPub)
				source := translog.NewTileProofSource(client, 0)
				// A deployment with a pinned witness partition raises the
				// bar: a credential proof must chain not just to a
				// log-signed head but to one that ≥Q partitioned witnesses
				// audited their shard slices against and co-signed.
				if pcfg, perr := translog.LoadPartitionConfig(dir); perr == nil {
					roster, rerr := translog.WaitForWitnessRoster(dir, pcfg.Quorum, pcfg.Witnesses, *wait)
					if rerr != nil {
						log.Fatalf("pinned witness partition but no roster keys: %v", rerr)
					}
					// The newest co-signed head this controller accepted is
					// pinned in its statedir, so a restart resumes from it and
					// a log server serving an older or forked co-signed head
					// is convicted. The pin's head file must not be a roster
					// witness's.
					if _, taken := roster.Key(pinName); taken {
						log.Fatalf("witness roster names %q, the controller's quorum-head pin", pinName)
					}
					pin, err := translog.OpenWitnessState(dir, pinName, caPub)
					if err != nil {
						log.Fatalf("opening the quorum-head pin: %v", err)
					}
					cfg.CredentialLog = translog.NewQuorumCredentialChecker(pin, roster, source, source, client.Cosigned)
					log.Printf("credential log check active: tile-assembled proofs from %s, quorum %d-of-%d co-signed heads required",
						url, pcfg.Quorum, len(pcfg.Witnesses))
				} else if !errors.Is(perr, os.ErrNotExist) {
					log.Fatal(perr)
				} else {
					cfg.CredentialLog = translog.NewCredentialChecker(caPub, source)
					log.Printf("credential log check active: tile-assembled proofs from %s", url)
				}
			}
		}
	}

	srv, err := controller.Serve(ctrl, cfg, *addr)
	if err != nil {
		log.Fatal(err)
	}
	if err := dir.Write(statedir.FileControllerURL, []byte(srv.URL())); err != nil {
		log.Fatal(err)
	}
	log.Printf("controller listening on %s (%s)", srv.URL(), mode)
	select {}
}
