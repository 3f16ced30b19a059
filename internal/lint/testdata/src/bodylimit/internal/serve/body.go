// Package serve owns the sanctioned body readers: ReadRequestBody and
// ReadReply may read a body however they bound it; nothing else here
// may read one raw.
package serve

import (
	"io"
	"net/http"
)

// ReadRequestBody is sanctioned by name.
func ReadRequestBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	return io.ReadAll(r.Body)
}

// ReadReply is sanctioned by name.
func ReadReply(resp *http.Response) ([]byte, error) {
	return io.ReadAll(resp.Body)
}

// readHealth is in the owner package but is not a sanctioned helper.
func readHealth(resp *http.Response) ([]byte, error) {
	return io.ReadAll(resp.Body) // want "io.ReadAll of an http.Response body"
}

type server struct{}

// ReadReply as a method is not the sanctioned function.
func (server) ReadReply(r *http.Request) ([]byte, error) {
	return io.ReadAll(r.Body) // want "io.ReadAll of an http.Request body"
}
