package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"srda/internal/router"
	"srda/internal/serve"
)

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload briefly in both modes, through the command
// line, and checks that the last line carries exactly the metrics
// BENCHMARK.json declares for the mode, each with its unit, and that no
// operation failed.  The untraced runs use seed 1 and the traced runs seed
// 2, so every correctness bound is checked on two seeds.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, mode := range []struct {
			trace, seed string
		}{{"0", "1"}, {"1", "2"}} {
			want := map[string]string{}
			for _, m := range b.EndToEnd {
				want[m.Name] = m.Unit
			}
			if mode.trace == "1" {
				want = map[string]string{}
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			t.Run(w.Name+"/trace"+mode.trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", mode.seed, "--seconds", "1", "--trace", mode.trace, "--workdir", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					case mode.trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, expected > 0", name, m.Value)
					}
				}
			})
		}
	}
}

// flipBackend changes the first class of the first reply it forwards.
type flipBackend struct {
	router.Backend
	once *sync.Once
}

func (b flipBackend) Predict(ctx context.Context, req *serve.PredictRequest) (*serve.PredictResponse, error) {
	resp, err := b.Backend.Predict(ctx, req)
	if err == nil {
		b.once.Do(func() { resp.Classes[0] = (resp.Classes[0] + 1) % denseClasses })
	}
	return resp, err
}

// TestFaultInjectionCountsWrongClass proves the serve-bulk gate: one
// flipped class in one reply is exactly one failed op.
func TestFaultInjectionCountsWrongClass(t *testing.T) {
	var once sync.Once
	cfg := config{
		workload: "serve-bulk",
		seed:     1,
		duration: time.Second,
		outDir:   t.TempDir(),
		wrapBackend: func(b router.Backend) router.Backend {
			return flipBackend{Backend: b, once: &once}
		},
	}
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("correct=%v failed=%d of %d, expected exactly one failed op", res.Correct, res.Failed, res.Attempted)
	}
}
