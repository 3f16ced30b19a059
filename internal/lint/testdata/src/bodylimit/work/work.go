// Package work reads HTTP bodies every unbounded way, and a few bounded
// ones the analyzer leaves alone.
package work

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"io"
	"io/ioutil"
	"net/http"
)

// Unbounded reads of request and response bodies.
func Unbounded(r *http.Request, resp *http.Response, v any) error {
	if _, err := io.ReadAll(r.Body); err != nil { // want "io.ReadAll of an http.Request body"
		return err
	}
	if _, err := ioutil.ReadAll((resp.Body)); err != nil { // want "ioutil.ReadAll of an http.Response body"
		return err
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil { // want "json.NewDecoder of an http.Request body"
		return err
	}
	var value http.Response = *resp
	return gob.NewDecoder(value.Body).Decode(v) // want "gob.NewDecoder of an http.Response body"
}

// envelope has a Body field of its own, which is not an HTTP body.
type envelope struct{ Body io.Reader }

// Bounded reads, drains and other readers are untouched.
func Bounded(r *http.Request, resp *http.Response, e envelope, b []byte, v any) error {
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(v); err != nil {
		return err
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if _, err := io.ReadAll(e.Body); err != nil {
		return err
	}
	_, err := io.ReadAll(bytes.NewReader(b))
	return err
}
