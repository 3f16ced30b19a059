package main

import (
	"bufio"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"srda/internal/serve"
)

// familyRow matches a metric-family row of the signal inventory table in
// doc/OBSERVABILITY.md: its first cell is the family name in backticks.
var familyRow = regexp.MustCompile("^\\| `(srda[a-z]+_[a-z0-9_]+)` \\|")

// inventoryFamilies returns the family names of the "## Signal
// inventory" table in doc/OBSERVABILITY.md, sorted.
func inventoryFamilies(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "doc", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }() // read only
	var names []string
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			in = line == "## Signal inventory"
			continue
		}
		if m := familyRow.FindStringSubmatch(line); in && m != nil {
			names = append(names, m[1])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal(`no family rows under "## Signal inventory" in doc/OBSERVABILITY.md`)
	}
	sort.Strings(names)
	return names
}

// TestEveryFamilyHasAReader holds the signal inventory to the running
// tier: the metric families a -role=all -online -slo-config -debug-addr
// tier exposes on its routed /metrics, its debug /metrics and its
// /cluster/metrics are exactly the families the inventory table gives a
// reader.  An instrument added without a row fails here, and so does a
// row left behind for a deleted one.
func TestEveryFamilyHasAReader(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.bin")
	_, ds := trainAndSave(t, modelPath, 37)
	sloPath := writeSLO(t, dir, `{
  "schema": "srda-slo/v1",
  "objectives": [
    {"name": "availability", "kind": "availability",
     "metric": "srdaroute_requests_total", "target": 0.99},
    {"name": "latency", "kind": "latency_p99",
     "metric": "srdaroute_tenant_latency_p99", "target": 0.99, "threshold_seconds": 0.25}
  ]
}`)
	base, debugBase, stop := startServer(t, config{
		role:           "all",
		replicas:       "2",
		modelPath:      modelPath,
		debugAddr:      "127.0.0.1:0",
		online:         true,
		sloConfigPath:  sloPath,
		telemetryEvery: 25 * time.Millisecond,
	})
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client := serve.NewClient(base)
	for i := 0; i < 4; i++ {
		if _, err := client.Predict(ctx, sparseSampleOf(ds, i)); err != nil {
			t.Fatal(err)
		}
	}

	seen := map[string]bool{}
	collect := func(url string) {
		t.Helper()
		code, _, body := httpGet(t, ctx, url)
		if code != 200 {
			t.Fatalf("%s = %d", url, code)
		}
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, _, _ := strings.Cut(rest, " ")
				seen[name] = true
			}
		}
	}
	collect(base + "/metrics")
	collect(debugBase + "/metrics")
	// Wait for a federation pass that saw the predicts, so the cluster
	// exposition carries the federated families too.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, body := httpGet(t, ctx, base+"/cluster/metrics")
		if strings.Contains(body, `srdaroute_requests_total{code="200"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("predicts never federated; last body:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	collect(base + "/cluster/metrics")

	exposed := make([]string, 0, len(seen))
	for name := range seen {
		exposed = append(exposed, name)
	}
	sort.Strings(exposed)
	documented := inventoryFamilies(t)
	for _, name := range exposed {
		if !slices.Contains(documented, name) {
			t.Errorf("%s is exposed but has no reader row in the doc/OBSERVABILITY.md inventory", name)
		}
	}
	for _, name := range documented {
		if !slices.Contains(exposed, name) {
			t.Errorf("%s has an inventory row but no running tier exposes it", name)
		}
	}
}
