package serve

import (
	"errors"
	"io"
	"net/http"
)

// MaxReplyBytes bounds every reply the tier reads back from a replica or
// router: predict, health, model list, metrics, sketches and observe
// replies.  It matches the request body cap, so a worker's reply to the
// largest request it accepts still fits.
const MaxReplyBytes = DefaultMaxBodyBytes

// ErrReplyTooLarge fails a read of a reply longer than MaxReplyBytes.
// StatusCode maps it to 502: the replica, not the caller, is at fault.
var ErrReplyTooLarge = errors.New("serve: reply exceeds the size limit")

// ReadRequestBody reads a request body of at most limit bytes into one
// buffer.  A longer body fails with *http.MaxBytesError, and the server
// closes the connection rather than drain it.
func ReadRequestBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	return readAll(http.MaxBytesReader(w, r.Body, limit), min(r.ContentLength, limit))
}

// ReadReply reads a reply body of at most MaxReplyBytes, failing with
// ErrReplyTooLarge past it; sizeHint (a Content-Length, or -1) sizes the
// buffer.
func ReadReply(body io.Reader, sizeHint int64) ([]byte, error) {
	b, err := readAll(io.LimitReader(body, MaxReplyBytes+1), sizeHint)
	if err == nil && len(b) > MaxReplyBytes {
		return nil, ErrReplyTooLarge
	}
	return b, err
}

// maxPrealloc caps the buffer a size hint may allocate before any byte
// arrives: a Content-Length is the peer's claim, not data.
const maxPrealloc = 1 << 20

// readAll reads r to EOF into a buffer sized from hint (negative when
// unknown), one byte larger so the final read sees EOF without growing.
func readAll(r io.Reader, hint int64) ([]byte, error) {
	b := make([]byte, 0, min(max(hint, 511), maxPrealloc)+1)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)] // grow geometrically
		}
	}
}
