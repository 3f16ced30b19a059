package main

// Micro-benchmark trajectory: -json-out times a fixed set of kernels at
// fixed shapes and seeds and writes the measurements as a schema-validated
// obs.BenchReport.  `make bench-record` pins the result as BENCH_<k>.json
// and `srdareport benchdiff` compares two pinned reports, so performance
// regressions show up as a reviewable diff rather than a vague feeling
// that serving got slower.

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"srda"
	"srda/internal/blas"
	"srda/internal/obs"
	"srda/internal/registry"
	"srda/internal/router"
	"srda/internal/serve"
)

// microSeed fixes every synthetic input so that only code changes (and
// machine noise) move ns/op between two reports.
const microSeed = 2008

// microCase is one fixed-shape micro-benchmark: setup builds the inputs
// once, op is the timed body.
type microCase struct {
	name  string
	iters int
	setup func(workers int) (op func(), err error)
}

// microCases returns the benchmark set.  Names encode the shape
// (rows×cols, or m×n×k for GEMM) and are part of the benchdiff contract:
// renaming one reads as removed+added, not as a regression.
func microCases() []microCase {
	return []microCase{
		{
			// One micro-batched inference pass: 64 samples × 800 features
			// through projection + nearest-centroid, the serving hot path.
			name:  "PredictBatch/64x800",
			iters: 50,
			setup: func(workers int) (func(), error) {
				rng := rand.New(rand.NewSource(microSeed))
				const classes, n = 8, 800
				train := classBlobs(rng, 160, n, classes)
				labels := blobLabels(160, classes)
				model, err := srda.Fit(train, labels, classes,
					srda.Options{Alpha: 1, Workers: workers})
				if err != nil {
					return nil, err
				}
				batch := classBlobs(rng, 64, n, classes)
				return func() { model.PredictBatch(batch) }, nil
			},
		},
		{
			// The raw dense kernel under everything: C(256×512) = A(256×64)·B(64×512).
			name:  "ParGemm/256x512x64",
			iters: 20,
			setup: func(workers int) (func(), error) {
				rng := rand.New(rand.NewSource(microSeed + 1))
				const m, n, k = 256, 512, 64
				a := randSlice(rng, m*k)
				b := randSlice(rng, k*n)
				c := make([]float64, m*n)
				return func() {
					blas.ParGemm(workers, m, n, k, 1, a, k, b, n, 0, c, n)
				}, nil
			},
		},
		{
			// Router overhead at serving shape: 64 samples × 800 features
			// through the co-located tier (quota check + ring lookup +
			// in-memory forward + worker micro-batch dispatch).  Against
			// PredictBatch/64x800 the delta is what the sharding tier costs.
			name:  "RouterPredict/64x800",
			iters: 50,
			setup: func(workers int) (func(), error) {
				rng := rand.New(rand.NewSource(microSeed + 3))
				const classes, n = 8, 800
				train := classBlobs(rng, 160, n, classes)
				labels := blobLabels(160, classes)
				model, err := srda.Fit(train, labels, classes,
					srda.Options{Alpha: 1, Workers: workers})
				if err != nil {
					return nil, err
				}
				reg := registry.New(registry.Options{Workers: workers})
				if _, err := reg.Publish("bench-tenant", model); err != nil {
					return nil, err
				}
				backends := make([]router.Backend, 2)
				for i := range backends {
					s, err := serve.New(nil, serve.Options{
						Registry: reg,
						Workers:  workers,
					})
					if err != nil {
						return nil, err
					}
					backends[i] = &router.LocalBackend{
						ReplicaName: fmt.Sprintf("worker-%d", i), Server: s,
					}
				}
				rt, err := router.New(backends, router.Options{})
				if err != nil {
					return nil, err
				}
				batch := classBlobs(rng, 64, n, classes)
				req := &serve.PredictRequest{Model: "bench-tenant"}
				req.Samples = make([]serve.Sample, batch.Rows)
				for i := range req.Samples {
					req.Samples[i] = serve.Sample{Dense: batch.RowView(i)}
				}
				ctx := context.Background()
				return func() {
					if _, err := rt.Predict(ctx, req); err != nil {
						panic(err) // bench invariant: the fixed request never fails
					}
				}, nil
			},
		},
		{
			// One streamed sample into the trainer's sufficient statistics:
			// the rank-one Gram contribution at 800 features, the per-sample
			// cost of the train-while-serving loop.  No triggers and no
			// registry — this times pure absorption.
			name:  "OnlineObserve/800f",
			iters: 2000,
			setup: func(workers int) (func(), error) {
				rng := rand.New(rand.NewSource(microSeed + 4))
				const classes, n = 8, 800
				tr, err := srda.NewStreamTrainer(srda.StreamConfig{
					NumFeatures: n, NumClasses: classes,
					Alpha: 1, Workers: workers,
				})
				if err != nil {
					return nil, err
				}
				rows := classBlobs(rng, classes, n, classes)
				i := 0
				return func() {
					if err := tr.Observe(rows.RowView(i%classes), i%classes); err != nil {
						panic(err) // bench invariant: fixed-shape samples never fail
					}
					i++
				}, nil
			},
		},
		{
			// A streaming refit from accumulated statistics of 2000 samples
			// × 400 features: the O(n³) solve the trainer pays per publish,
			// independent of stream length.  Against FitLSQR/2000x400 the
			// delta is batch-refit versus iterative-solver training cost.
			name:  "Refit/2000x400",
			iters: 3,
			setup: func(workers int) (func(), error) {
				rng := rand.New(rand.NewSource(microSeed + 5))
				const classes, m, n = 10, 2000, 400
				x := classBlobs(rng, m, n, classes)
				labels := blobLabels(m, classes)
				tr, err := srda.NewStreamTrainer(srda.StreamConfig{
					NumFeatures: n, NumClasses: classes,
					Alpha: 1, Workers: workers,
				})
				if err != nil {
					return nil, err
				}
				if _, err := tr.ObserveBatch(context.Background(), x, labels); err != nil {
					return nil, err
				}
				// Fail during setup, not inside the timed loop.
				if _, _, err := tr.Refit(); err != nil {
					return nil, err
				}
				return func() { _, _, _ = tr.Refit() }, nil
			},
		},
		{
			// A full LSQR training fit at 2000 samples × 400 features —
			// the paper's linear-time solver end to end.
			name:  "FitLSQR/2000x400",
			iters: 3,
			setup: func(workers int) (func(), error) {
				rng := rand.New(rand.NewSource(microSeed + 2))
				const classes, m, n = 10, 2000, 400
				x := classBlobs(rng, m, n, classes)
				labels := blobLabels(m, classes)
				opt := srda.Options{Alpha: 1, Solver: srda.SolverLSQR, LSQRIter: 15, Workers: workers}
				// Fail during setup, not inside the timed loop.
				if _, err := srda.Fit(x, labels, classes, opt); err != nil {
					return nil, err
				}
				return func() { _, _ = srda.Fit(x, labels, classes, opt) }, nil
			},
		},
	}
}

// classBlobs draws rows i.i.d. N(0,1) plus a per-class mean shift so fits
// are well-posed rather than pure-noise degenerate.
func classBlobs(rng *rand.Rand, rows, cols, classes int) *srda.Dense {
	x := srda.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		shift := float64(i%classes) * 0.5
		row := x.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
			if j%classes == i%classes {
				row[j] += shift
			}
		}
	}
	return x
}

// blobLabels labels row i as class i mod classes, matching classBlobs.
func blobLabels(rows, classes int) []int {
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = i % classes
	}
	return labels
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// microReps is how many independent timing repetitions each case runs;
// the report keeps the fastest mean.  Scheduler preemption and cache
// pollution only ever make a rep slower, so best-of-reps estimates the
// code's true cost far more stably than a single mean — which is what
// lets `srdareport benchdiff -tol 0.10` act as a hard CI gate instead of
// a coin flip on a loaded runner.
const microReps = 5

// runMicroBench executes every micro-benchmark (one untimed warmup, then
// microReps repetitions of iters timed runs, keeping the fastest) and
// writes the validated report to path.
func runMicroBench(path string, workers int) error {
	rep := &obs.BenchReport{
		Tool:   "srdabench",
		Schema: obs.BenchSchemaVersion,
		Params: map[string]float64{"seed": microSeed, "workers": float64(workers)},
	}
	for _, mc := range microCases() {
		op, err := mc.setup(workers)
		if err != nil {
			return fmt.Errorf("%s: %w", mc.name, err)
		}
		op() // warmup: page in inputs, settle the pool
		best := 0.0
		for r := 0; r < microReps; r++ {
			start := time.Now()
			for i := 0; i < mc.iters; i++ {
				op()
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(mc.iters)
			if r == 0 || ns < best {
				best = ns
			}
		}
		if best < 1 {
			best = 1 // clock-granularity floor; the schema rejects 0
		}
		rep.Results = append(rep.Results, obs.BenchResult{Name: mc.name, Iters: mc.iters, NsPerOp: best})
		fmt.Printf("%-24s %8d iters %14.0f ns/op\n", mc.name, mc.iters, best)
	}
	if err := rep.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("bench report written to %s\n", path)
	return nil
}
