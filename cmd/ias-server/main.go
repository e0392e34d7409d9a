// Command ias-server runs the simulated Intel Attestation Service as a
// standalone HTTP service. It owns the EPID group: on first start it
// creates the issuer and persists it to the state directory so container
// hosts can provision platforms into the group (the manufacture-time
// flow).
//
//	ias-server -addr 127.0.0.1:7014 -state-dir ./state
package main

import (
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"

	"vnfguard/internal/epid"
	"vnfguard/internal/ias"
	"vnfguard/internal/statedir"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	stateDir := flag.String("state-dir", "./state", "shared state directory")
	subKey := flag.String("subscription-key", "vnfguard-subscription", "accepted API key")
	gid := flag.Uint("gid", 1000, "EPID group id (first start only)")
	flag.Parse()

	dir, err := statedir.Open(*stateDir)
	if err != nil {
		log.Fatal(err)
	}

	var issuer *epid.Issuer
	if raw, err := dir.Read(statedir.FileIssuer); err == nil {
		issuer, err = epid.ImportIssuer(raw)
		if err != nil {
			log.Fatalf("loading issuer: %v", err)
		}
		log.Printf("loaded EPID issuer (gid %d)", issuer.GroupID())
	} else if errors.Is(err, os.ErrNotExist) {
		issuer, err = epid.NewIssuer(epid.GroupID(*gid))
		if err != nil {
			log.Fatal(err)
		}
		raw, err := issuer.Export()
		if err != nil {
			log.Fatal(err)
		}
		if err := dir.Write(statedir.FileIssuer, raw); err != nil {
			log.Fatal(err)
		}
		log.Printf("created EPID issuer (gid %d)", issuer.GroupID())
	} else {
		log.Fatal(err)
	}

	svc, err := ias.NewService(issuer.GroupPublicKey())
	if err != nil {
		log.Fatal(err)
	}
	svc.AddSubscriptionKey(*subKey)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	if err := dir.Write(statedir.FileIASURL, []byte(url)); err != nil {
		log.Fatal(err)
	}
	if err := dir.Write(statedir.FileIASCert, svc.SigningCertPEM()); err != nil {
		log.Fatal(err)
	}
	log.Printf("attestation service listening on %s", url)
	log.Fatal(http.Serve(ln, svc.Handler()))
}
