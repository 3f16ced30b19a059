package main

import (
	"context"
	"errors"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"srda"
	"srda/internal/serve"
)

// TestShardSmoke is the co-located tier's smoke test (wired into CI as
// make shard-smoke): -role=all spawns a router and two workers sharing
// one registry, three tenant models are published from -models-dir, and
// every tenant answers through the router with the class its own model
// predicts.  The router's metrics and health expose the ring.
func TestShardSmoke(t *testing.T) {
	dir := t.TempDir()
	tenants := []string{"tenant-a", "tenant-b", "tenant-c"}
	models := make(map[string]*srda.Model, len(tenants))
	data := make(map[string]*srda.Dataset, len(tenants))
	for i, tn := range tenants {
		m, ds := trainAndSave(t, filepath.Join(dir, tn+".srda"), int64(60+i))
		models[tn], data[tn] = m, ds
	}

	base, _, stop := startServer(t, config{
		role:      "all",
		replicas:  "2",
		modelsDir: dir,
	})
	defer stop()
	client := serve.NewClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The registry listing on the router listener shows all three tenants.
	ml, err := client.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ml.Models) != 3 {
		t.Fatalf("models = %+v", ml.Models)
	}

	// Routed predictions: each tenant's samples answer with its own
	// model's classes, via the router's /v1/predict.
	for _, tn := range tenants {
		ds := data[tn]
		want := models[tn].PredictBatchCSR(ds.Sparse)
		for i := 0; i < 5; i++ {
			got, err := client.PredictModel(ctx, tn, sparseSampleOf(ds, i))
			if err != nil {
				t.Fatalf("%s sample %d: %v", tn, i, err)
			}
			if got[0] != want[i] {
				t.Fatalf("%s sample %d: routed class %d, model says %d", tn, i, got[0], want[i])
			}
		}
	}
	// An unknown tenant 404s through the tier.
	if _, err := client.PredictModel(ctx, "tenant-404", sparseSampleOf(data["tenant-a"], 0)); err == nil {
		t.Fatal("unknown tenant answered")
	} else {
		var st *serve.StatusError
		if !errors.As(err, &st) || st.Code != http.StatusNotFound {
			t.Fatalf("unknown tenant: %v", err)
		}
	}

	// Router metrics: requests counted per replica, both workers on the
	// ring.
	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"srdaroute_requests_total",
		"srdaroute_shed_total",
		"srdaroute_ring_members 2",
		"srdaroute_healthy_replicas 2",
		// -role=all serves one combined scrape: router, worker, and
		// shared-registry families on the same endpoint.
		"srdaserve_requests_total",
		"srdareg_models 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("router /metrics missing %q", want)
		}
	}
	var routed int
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `srdaroute_requests_total{replica="worker-`) &&
			strings.Contains(line, `code="200"`) {
			routed++
		}
	}
	if routed == 0 {
		t.Fatal("no per-replica 200s in router metrics")
	}

	// Router health lists both replicas healthy and on the ring.
	h, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("router health = %+v", h)
	}
}
