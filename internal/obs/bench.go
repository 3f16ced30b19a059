package obs

// Benchmark trajectory reports.  srdabench -json-out emits a BenchReport
// (ns/op for the fixed-shape micro-benchmarks: PredictBatch, ParGemm,
// FitLSQR), make bench-record pins it as BENCH_<k>.json, and
// `srdareport benchdiff old.json new.json` compares two reports and
// flags regressions beyond a tolerance.  The schema is validated the
// same way run reports are: unknown fields rejected, every result named,
// positive iteration counts, finite non-negative timings.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// BenchSchemaVersion is the current bench-report schema version.
const BenchSchemaVersion = 1

// BenchReport is the schema-validated product of srdabench -json-out.
type BenchReport struct {
	// Tool names the producer ("srdabench").
	Tool string `json:"tool"`
	// Schema is the report format version (BenchSchemaVersion).
	Schema int `json:"schema"`
	// Results are the individual benchmark measurements; names are unique.
	Results []BenchResult `json:"results"`
	// Params holds run parameters worth pinning (workers, seed).
	Params map[string]float64 `json:"params,omitempty"`
}

// BenchResult is one micro-benchmark measurement at a fixed shape/seed.
type BenchResult struct {
	// Name identifies the benchmark and its shape, e.g.
	// "PredictBatch/64x800".
	Name string `json:"name"`
	// Iters is the number of timed iterations.
	Iters int `json:"iters"`
	// NsPerOp is the measured nanoseconds per iteration.
	NsPerOp float64 `json:"ns_per_op"`
}

// WriteFile marshals the report as indented JSON to path, refusing to
// write a report that fails its own schema.
func (b *BenchReport) WriteFile(path string) error {
	if err := ValidateBenchStruct(b); err != nil {
		return fmt.Errorf("obs: refusing to write invalid bench report: %w", err)
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchFile loads and validates a bench report from path.
func ReadBenchFile(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ValidateBench(data)
}

// ValidateBench parses data as a BenchReport and checks the schema.
func ValidateBench(data []byte) (*BenchReport, error) {
	var b BenchReport
	if err := DecodeStrict(data, &b); err != nil {
		return nil, fmt.Errorf("obs: bench report is not valid JSON for the schema: %w", err)
	}
	if err := ValidateBenchStruct(&b); err != nil {
		return nil, err
	}
	return &b, nil
}

// ValidateBenchStruct checks an in-memory bench report against the schema.
func ValidateBenchStruct(b *BenchReport) error {
	if b.Tool == "" {
		return fmt.Errorf("obs: bench report missing tool")
	}
	if b.Schema != BenchSchemaVersion {
		return fmt.Errorf("obs: bench report schema %d, this build understands %d", b.Schema, BenchSchemaVersion)
	}
	if len(b.Results) == 0 {
		return fmt.Errorf("obs: bench report has no results")
	}
	seen := make(map[string]bool, len(b.Results))
	for i, r := range b.Results {
		if r.Name == "" {
			return fmt.Errorf("obs: bench result %d has no name", i)
		}
		if seen[r.Name] {
			return fmt.Errorf("obs: duplicate bench result %q", r.Name)
		}
		seen[r.Name] = true
		if r.Iters <= 0 {
			return fmt.Errorf("obs: bench result %q has non-positive iters %d", r.Name, r.Iters)
		}
		if r.NsPerOp <= 0 || math.IsNaN(r.NsPerOp) || math.IsInf(r.NsPerOp, 0) {
			return fmt.Errorf("obs: bench result %q has invalid ns_per_op %v", r.Name, r.NsPerOp)
		}
	}
	return nil
}

// BenchDelta is the comparison of one benchmark between two reports.
type BenchDelta struct {
	Name string
	// OldNs/NewNs are ns/op in the respective reports; 0 when absent.
	OldNs, NewNs float64
	// Ratio is NewNs/OldNs when both sides are present.
	Ratio float64
	// Status is "ok", "regression", "improvement", "added", or "removed".
	Status string
}

// Regressed reports whether this delta is a flagged regression.
func (d BenchDelta) Regressed() bool { return d.Status == "regression" }

// DiffBench compares two bench reports result-by-result.  A benchmark
// whose new ns/op exceeds old by more than tolerance (e.g. 0.10 for 10%)
// is a regression; one faster by more than tolerance is an improvement.
// Results present on only one side are reported as added/removed, never
// as regressions.  Deltas return sorted by name.
func DiffBench(old, cur *BenchReport, tolerance float64) []BenchDelta {
	oldBy := make(map[string]BenchResult, len(old.Results))
	for _, r := range old.Results {
		oldBy[r.Name] = r
	}
	var deltas []BenchDelta
	for _, r := range cur.Results {
		o, ok := oldBy[r.Name]
		if !ok {
			deltas = append(deltas, BenchDelta{Name: r.Name, NewNs: r.NsPerOp, Status: "added"})
			continue
		}
		delete(oldBy, r.Name)
		d := BenchDelta{Name: r.Name, OldNs: o.NsPerOp, NewNs: r.NsPerOp, Ratio: r.NsPerOp / o.NsPerOp}
		switch {
		case d.Ratio > 1+tolerance:
			d.Status = "regression"
		case d.Ratio < 1-tolerance:
			d.Status = "improvement"
		default:
			d.Status = "ok"
		}
		deltas = append(deltas, d)
	}
	//srdalint:ignore maprange collect-then-sort: deltas are sorted by name immediately below
	for name, o := range oldBy {
		deltas = append(deltas, BenchDelta{Name: name, OldNs: o.NsPerOp, Status: "removed"})
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	return deltas
}
