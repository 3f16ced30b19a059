package obs

import (
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func validBench() *BenchReport {
	return &BenchReport{
		Tool:   "srdabench",
		Schema: BenchSchemaVersion,
		Results: []BenchResult{
			{Name: "FitLSQR/2000x400", Iters: 5, NsPerOp: 1.5e6},
			{Name: "ParGemm/256x512x64", Iters: 20, NsPerOp: 8e5},
			{Name: "PredictBatch/64x800", Iters: 50, NsPerOp: 2e5},
		},
		Params: map[string]float64{"seed": 1, "workers": 4},
	}
}

func TestBenchRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_0.json")
	b := validBench()
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 3 || got.Results[2].Name != "PredictBatch/64x800" || got.Params["workers"] != 4 {
		t.Fatalf("round trip mangled report: %+v", got)
	}
}

func TestBenchValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(b *BenchReport)
		wantErr string
	}{
		{"missing tool", func(b *BenchReport) { b.Tool = "" }, "missing tool"},
		{"wrong schema", func(b *BenchReport) { b.Schema = 99 }, "schema 99"},
		{"no results", func(b *BenchReport) { b.Results = nil }, "no results"},
		{"unnamed result", func(b *BenchReport) { b.Results[1].Name = "" }, "no name"},
		{"duplicate name", func(b *BenchReport) { b.Results[1].Name = b.Results[0].Name }, "duplicate"},
		{"zero iters", func(b *BenchReport) { b.Results[0].Iters = 0 }, "non-positive iters"},
		{"negative ns", func(b *BenchReport) { b.Results[0].NsPerOp = -1 }, "invalid ns_per_op"},
		{"nan ns", func(b *BenchReport) { b.Results[0].NsPerOp = math.NaN() }, "invalid ns_per_op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := validBench()
			tc.mutate(b)
			err := ValidateBenchStruct(b)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
			if err := b.WriteFile(filepath.Join(t.TempDir(), "x.json")); err == nil {
				t.Fatal("WriteFile accepted an invalid report")
			}
		})
	}
}

func TestBenchValidateRejectsUnknownFields(t *testing.T) {
	if _, err := ValidateBench([]byte(`{"tool":"srdabench","schema":1,"results":[{"name":"x","iters":1,"ns_per_op":1}],"extra":true}`)); err == nil {
		t.Fatal("unknown top-level field accepted")
	}
	if _, err := ValidateBench([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
	valid, err := json.Marshal(validBench())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateBench(append(valid, " \n"...)); err != nil {
		t.Fatalf("valid report with trailing white space rejected: %v", err)
	}
	for _, tail := range []string{" trailing garbage", `{"more":1}`} {
		if _, err := ValidateBench(append(valid, tail...)); err == nil {
			t.Errorf("bench report followed by %q accepted", tail)
		}
	}
	keyRefusals(t, func(doc []byte) error { _, err := ValidateBench(doc); return err },
		`{"tool":"srdabench","Schema":1,"results":[{"name":"x","iters":1,"ns_per_op":1}]}`,
		`{"tool":"srdabench","schema":1,"results":[{"name":"x","iters":1,"iters":1,"ns_per_op":1}]}`)
}

func TestDiffBench(t *testing.T) {
	old := validBench()
	cur := validBench()
	cur.Results[0].NsPerOp = old.Results[0].NsPerOp * 1.25 // regression
	cur.Results[1].NsPerOp = old.Results[1].NsPerOp * 0.5  // improvement
	cur.Results[2].NsPerOp = old.Results[2].NsPerOp * 1.05 // within tolerance
	cur.Results = append(cur.Results, BenchResult{Name: "Axpy/1e6", Iters: 3, NsPerOp: 1e3})
	old.Results = append(old.Results, BenchResult{Name: "Gone/1", Iters: 3, NsPerOp: 1e3})

	deltas := DiffBench(old, cur, 0.10)
	want := map[string]string{
		"Axpy/1e6":            "added",
		"FitLSQR/2000x400":    "regression",
		"Gone/1":              "removed",
		"ParGemm/256x512x64":  "improvement",
		"PredictBatch/64x800": "ok",
	}
	if len(deltas) != len(want) {
		t.Fatalf("got %d deltas, want %d: %+v", len(deltas), len(want), deltas)
	}
	for i, d := range deltas {
		if want[d.Name] != d.Status {
			t.Errorf("%s: status %q, want %q", d.Name, d.Status, want[d.Name])
		}
		if i > 0 && deltas[i-1].Name > d.Name {
			t.Errorf("deltas not sorted: %q before %q", deltas[i-1].Name, d.Name)
		}
		if d.Regressed() != (d.Status == "regression") {
			t.Errorf("%s: Regressed() inconsistent with status %q", d.Name, d.Status)
		}
	}
	reg := deltas[1]
	if reg.Name != "FitLSQR/2000x400" || math.Abs(reg.Ratio-1.25) > 1e-12 {
		t.Errorf("regression delta wrong: %+v", reg)
	}
}
