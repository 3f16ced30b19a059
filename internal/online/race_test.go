package online

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"srda/internal/core"
	"srda/internal/mat"
	"srda/internal/registry"
	"srda/internal/serve"
)

// TestPublishWhilePredict hammers the in-process predict path from N
// goroutines while the streaming trainer publishes K new versions of the
// model they are all scoring against.  Run under -race (make check does)
// this is the hot-swap safety proof: no response may tear across
// versions — every answer carries the ModelSeq of exactly one published
// version — and the registry must count exactly the publishes that
// happened.
func TestPublishWhilePredict(t *testing.T) {
	const (
		n, c       = 8, 3
		predictors = 8
		refits     = 5
	)
	rng := rand.New(rand.NewSource(31))
	x := mat.NewDense(90, n)
	labels := make([]int, 90)
	for i := range labels {
		labels[i] = i % c
		copy(x.RowView(i), blobSample(rng, n, labels[i]))
	}
	initial, err := core.FitDense(x, labels, c, core.Options{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}

	reg := registry.New(registry.Options{})
	srv, err := serve.New(initial, serve.Options{Registry: reg}) // publishes version 1
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(context.Background()); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	tr, err := NewStreamTrainer(Config{
		NumFeatures: n, NumClasses: c, Alpha: 1,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	streamBlobs(t, tr, rng, n, c, 30) // enough that every refit can solve

	query := blobSample(rand.New(rand.NewSource(32)), n, 1)
	stop := make(chan struct{})
	var (
		mu   sync.Mutex
		seqs []uint64
	)
	answered := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(seqs)
	}
	var wg sync.WaitGroup
	for g := 0; g < predictors; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := srv.Predict(context.Background(), &serve.PredictRequest{
					Samples: []serve.Sample{{Dense: query}},
				})
				if err != nil {
					t.Errorf("predict: %v", err)
					return
				}
				if len(resp.Classes) != 1 {
					t.Errorf("predict returned %d classes", len(resp.Classes))
					return
				}
				mu.Lock()
				seqs = append(seqs, resp.ModelSeq)
				mu.Unlock()
			}
		}()
	}

	// Interleave for real: each publish happens with predictions in
	// flight, so swaps land mid-traffic rather than before or after it.
	for k := 0; k < refits; k++ {
		floor := answered() + predictors
		for answered() < floor {
			runtime.Gosched()
		}
		streamBlobs(t, tr, rng, n, c, 30)
		if _, ver, err := tr.Refit(); err != nil {
			t.Errorf("refit %d: %v", k, err)
		} else if want := uint64(k + 2); ver != want { // server's initial publish was v1
			t.Errorf("refit %d published version %d, want %d", k, ver, want)
		}
	}
	close(stop)
	wg.Wait()

	published := refits + 1
	for _, seq := range seqs {
		if seq < 1 || seq > uint64(published) {
			t.Fatalf("response scored by unpublished version %d (published 1..%d)", seq, published)
		}
	}
	if len(seqs) == 0 {
		t.Fatal("no predictions completed during the publish storm")
	}
	if got := srv.ModelSeq(); got != uint64(published) {
		t.Fatalf("final model seq = %d, want %d", got, published)
	}
}
