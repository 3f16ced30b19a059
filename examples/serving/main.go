// Serving: the full production loop in one process — train a model, save
// it atomically, stand up the micro-batching prediction server on a local
// port, and query it with the typed client (dense and sparse payloads,
// concurrent requests that coalesce while the workers are busy), then
// hot-swap the model file and watch the server pick it up.
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"srda"
	"srda/internal/serve"
)

func main() {
	// 1. Train a small text-like sparse model and persist it the way
	// cmd/srdatrain would.
	ds := srda.NewsLike(srda.NewsConfig{Classes: 4, Docs: 400, Vocab: 1000, AvgLen: 30, TopicBoost: 8, Seed: 17})
	model, err := srda.FitCSR(ds.Sparse, ds.Labels, ds.NumClasses,
		srda.Options{Alpha: 1, LSQRIter: 20, Whiten: true})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "srdaserving")
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = os.RemoveAll(dir) }() // best-effort temp cleanup
	modelPath := filepath.Join(dir, "news.srda")
	if err := srda.SaveModelFile(model, modelPath); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained and saved: %d features → %d dims, %d classes\n",
		ds.NumFeatures(), model.Dim(), ds.NumClasses)

	// 2. Stand up the server: micro-batching dispatcher + HTTP front end.
	srv, err := serve.New(model, serve.Options{MaxBatch: 32})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stopWatch := srv.WatchFile(modelPath, 10*time.Millisecond)
	defer stopWatch()
	fmt.Printf("serving on http://%s\n", ln.Addr())

	// 3. Query it concurrently with the typed client; requests that
	// arrive while every worker is busy share inference batches.
	client := serve.NewClient("http://" + ln.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	correct := make([]int, 32)
	for q := 0; q < 32; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			idx := (q * 13) % ds.NumSamples()
			cols, vals := ds.Sparse.Row(idx)
			features := make(map[int]float64, len(cols))
			for t, j := range cols {
				features[j] = vals[t]
			}
			class, err := client.PredictOne(ctx, serve.SparseSample(features))
			if err != nil {
				log.Fatal(err)
			}
			if class == ds.Labels[idx] {
				correct[q] = 1
			}
		}(q)
	}
	wg.Wait()
	hits := 0
	for _, c := range correct {
		hits += c
	}
	fmt.Printf("32 concurrent sparse queries: %d/32 match training labels\n", hits)

	// 4. Hot reload: overwrite the model file; the watcher swaps it in
	// without dropping a request.
	time.Sleep(25 * time.Millisecond) // ensure a fresh mtime
	if err := srda.SaveModelFile(model, modelPath); err != nil {
		log.Fatal(err)
	}
	for {
		h, err := client.Health(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if h.ModelSeq >= 2 {
			fmt.Printf("hot reload observed: model seq %d, still %d features\n", h.ModelSeq, h.Features)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// 5. Graceful shutdown: stop accepting, drain in-flight work.  The
	// client first closes its idle keep-alive connections: Shutdown
	// waits up to 5 s for a connection that never sent a request.  The
	// drain gets its own deadline, so a slow Shutdown cannot spend it.
	client.HTTPClient.CloseIdleConnections()
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	_ = hs.Shutdown(sctx) // best effort: srv.Close below reports drain failures
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := srv.Close(dctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("server drained cleanly")
}
