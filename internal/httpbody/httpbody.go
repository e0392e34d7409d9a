// Package httpbody reads HTTP request and reply bodies under a byte cap.
// Every HTTP service in the repository reads through it: a body past
// its cap is refused whole — a server answers 413, a client returns
// ErrResponseTooLarge — and never decoded truncated.
package httpbody

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// ErrResponseTooLarge reports a reply body over the cap its reader was
// given. The client refuses such a reply whole rather than decode a
// truncated document.
var ErrResponseTooLarge = errors.New("response body exceeds its size cap")

// ReadRequest reads a request body of at most limit bytes. A longer
// body is refused whole with 413 — never decoded truncated and called
// malformed — and a failed read with 400; either way ok is false and
// the reply is written.
func ReadRequest(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", limit), http.StatusRequestEntityTooLarge)
		return nil, false
	case err != nil:
		http.Error(w, "read error", http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

// ReadReply reads a reply body of at most limit bytes, sized up front
// from its Content-Length when the server sent one. It reads one byte
// past the cap, so a longer body is refused with ErrResponseTooLarge.
func ReadReply(resp *http.Response, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= limit {
		// MinRead spare bytes let the final read see EOF without
		// growing the buffer.
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, limit+1)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) > limit {
		return nil, ErrResponseTooLarge
	}
	return buf.Bytes(), nil
}
