// Command perfbench stands for the benchmark harness, whose only HTTP
// peers are the servers it starts itself: it is exempt.
package main

import (
	"encoding/json"
	"net/http"
)

func main() {
	resp, err := http.Get("http://127.0.0.1:1")
	if err != nil {
		return
	}
	var v any
	_ = json.NewDecoder(resp.Body).Decode(&v)
}
