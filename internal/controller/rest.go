package controller

import (
	"net/http"

	"vnfguard/internal/httpbody"
)

// Floodlight-style REST paths.
const (
	PathSummary    = "/wm/core/controller/summary/json"
	PathHealth     = "/wm/core/health/json"
	PathLinks      = "/wm/topology/links/json"
	PathDevices    = "/wm/device/"
	PathStaticFlow = "/wm/staticflowpusher/json"
	PathFlowList   = "/wm/staticflowpusher/list/"
)

// Principal returns the authenticated client CN, or "" for unauthenticated
// modes.
func Principal(r *http.Request) string {
	if r.TLS != nil && len(r.TLS.PeerCertificates) > 0 {
		return r.TLS.PeerCertificates[0].Subject.CommonName
	}
	return ""
}

// Handler returns the controller's north-bound REST interface.
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PathSummary, c.handleSummary)
	mux.HandleFunc("GET "+PathHealth, c.handleHealth)
	mux.HandleFunc("GET "+PathLinks, c.handleLinks)
	mux.HandleFunc("GET "+PathDevices, c.handleDevices)
	mux.HandleFunc("POST "+PathStaticFlow, c.handlePushFlow)
	mux.HandleFunc("DELETE "+PathStaticFlow, c.handleDeleteFlow)
	mux.HandleFunc("GET "+PathFlowList+"{dpid}/json", c.handleFlowList)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// writeReply sends a reply the codec encoded, ending it with the newline
// json.Encoder writes.
func writeReply(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

func (c *Controller) handleSummary(w http.ResponseWriter, r *http.Request) {
	writeReply(w, appendSummary(make([]byte, 0, 128), c.Summary()))
}

func (c *Controller) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeReply(w, []byte(`{"healthy":true}`))
}

func (c *Controller) handleLinks(w http.ResponseWriter, r *http.Request) {
	links := c.network.Links()
	writeReply(w, appendLinks(make([]byte, 0, 16+96*len(links)), links))
}

func (c *Controller) handleDevices(w http.ResponseWriter, r *http.Request) {
	hosts := c.network.Hosts()
	writeReply(w, appendDevices(make([]byte, 0, 16+32*len(hosts)), hosts))
}

func (c *Controller) handlePushFlow(w http.ResponseWriter, r *http.Request) {
	body, ok := httpbody.ReadRequest(w, r, 1<<20)
	if !ok {
		return
	}
	spec, err := decode(body, readFlowSpec)
	if err != nil {
		http.Error(w, "malformed flow entry", http.StatusBadRequest)
		return
	}
	spec.PushedBy = Principal(r)
	if err := c.PushFlow(spec); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeReply(w, appendNamed(make([]byte, 0, 32), "status", "Entry pushed"))
}

func (c *Controller) handleDeleteFlow(w http.ResponseWriter, r *http.Request) {
	body, ok := httpbody.ReadRequest(w, r, 1<<16)
	if !ok {
		return
	}
	req, err := decode(body, readDeleteRequest)
	if err != nil || req.Name == "" {
		http.Error(w, "malformed delete request", http.StatusBadRequest)
		return
	}
	if err := c.DeleteFlow(req.Name); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeReply(w, appendNamed(make([]byte, 0, 32+len(req.Name)), "status", "Entry "+req.Name+" deleted"))
}

func (c *Controller) handleFlowList(w http.ResponseWriter, r *http.Request) {
	writeReply(w, c.flowListReply(r.PathValue("dpid")))
}
