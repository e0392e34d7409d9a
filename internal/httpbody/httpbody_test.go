package httpbody

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestReadRequest: a body at the cap is read whole; one byte more is
// answered 413 and never handed to the caller.
func TestReadRequest(t *testing.T) {
	const limit = 64
	for _, tc := range []struct {
		size int
		want int
	}{{0, http.StatusOK}, {limit, http.StatusOK}, {limit + 1, http.StatusRequestEntityTooLarge}} {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(make([]byte, tc.size)))
		body, ok := ReadRequest(w, r, limit)
		if ok != (tc.want == http.StatusOK) || w.Code != tc.want || (ok && len(body) != tc.size) {
			t.Errorf("%d-byte body: ok=%v status %d, read %d bytes; want status %d", tc.size, ok, w.Code, len(body), tc.want)
		}
	}
}

// TestReadReply: a reply at the cap is read whole, with or without a
// Content-Length; one byte more is refused with ErrResponseTooLarge.
func TestReadReply(t *testing.T) {
	const limit = 64
	for _, size := range []int{0, limit, limit + 1} {
		for _, contentLength := range []int64{-1, int64(size)} {
			resp := &http.Response{Body: io.NopCloser(bytes.NewReader(make([]byte, size))), ContentLength: contentLength}
			body, err := ReadReply(resp, limit)
			if size > limit {
				if !errors.Is(err, ErrResponseTooLarge) {
					t.Errorf("%d-byte reply (Content-Length %d): got %v, want ErrResponseTooLarge", size, contentLength, err)
				}
			} else if err != nil || len(body) != size {
				t.Errorf("%d-byte reply (Content-Length %d): read %d bytes, %v", size, contentLength, len(body), err)
			}
		}
	}
}
