// Command tool shows that main packages are NOT exempt: a binary that
// buffers a whole reply is as exposed as a library.
package main

import (
	"io"
	"net/http"
)

func main() {
	resp, err := http.Get("http://localhost")
	if err != nil {
		return
	}
	_, _ = io.ReadAll(resp.Body) // want "io.ReadAll of an http.Response body"
}
