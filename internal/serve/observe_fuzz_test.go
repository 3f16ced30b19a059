package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"srda/internal/core"
	"srda/internal/jsonref"
	"srda/internal/online"
)

// The observe edge's differential target holds POST /v1/observe, run
// against a real online.StreamTrainer, to per-row Observe calls on the
// rows the strict reference (jsonref.Decode) decodes and the test
// densifies itself.  Its checked-in corpus under
// testdata/fuzz/FuzzObserveRequest covers a bad label on the last
// sample, a repeated sparse column (refused, as every repeated key is),
// an index equal to the feature count, mixed dense and sparse samples,
// and the single-sample shorthand (which observe bodies do not take).

const (
	edgeFeatures = 4
	edgeClasses  = 2
)

// newEdgeTrainer returns a trainer that has seen one row of each class,
// so every count-triggered refit can solve.
func newEdgeTrainer(t *testing.T) *online.StreamTrainer {
	t.Helper()
	tr, err := online.NewStreamTrainer(online.Config{
		NumFeatures: edgeFeatures, NumClasses: edgeClasses, Alpha: 1,
		Policy: online.RefitPolicy{MinSamples: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < edgeClasses; k++ {
		row := make([]float64, edgeFeatures)
		row[k] = 1
		if err := tr.Observe(row, k); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// trainerCounters reads the trainer's sample and refit counters off its
// exposition.
func trainerCounters(t *testing.T, tr *online.StreamTrainer) (samples, refits string) {
	t.Helper()
	var sb strings.Builder
	tr.Metrics().WritePrometheus(&sb)
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "srdaonline_samples_total "); ok {
			samples = v
		}
		if v, ok := strings.CutPrefix(line, "srdaonline_refits_total "); ok {
			refits = v
		}
	}
	return samples, refits
}

// edgeRows applies the observe rules to a decoded request the way the
// reference understands them; the reference already refused a repeated
// column.  It returns the densified rows, or the index of the first refused
// sample (shape and values first, then labels, as the edge checks them).
func edgeRows(req *ObserveRequest) (rows [][]float64, labels []int, bad int) {
	for i, ls := range req.Samples {
		hasDense, hasSparse := len(ls.Dense) > 0, len(ls.Sparse) > 0
		row := make([]float64, edgeFeatures)
		ok := hasDense != hasSparse && (!hasDense || len(ls.Dense) == edgeFeatures)
		if ok && hasDense {
			copy(row, ls.Dense)
		}
		for j, v := range ls.Sparse {
			if j < 0 || j >= edgeFeatures {
				ok = false
				break
			}
			row[j] = v
		}
		for _, v := range row {
			ok = ok && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		if !ok {
			return nil, nil, i
		}
		rows = append(rows, row)
		labels = append(labels, ls.Label)
	}
	for i, label := range labels {
		if label < 0 || label >= edgeClasses {
			return nil, nil, i
		}
	}
	return rows, labels, -1
}

// sameModel fails unless a and b are bitwise the same model, or both
// refits failed.
func sameModel(t *testing.T, what string, a, b *core.Model, errA, errB error) {
	t.Helper()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("%s: refit errors %v vs %v", what, errA, errB)
	}
	if errA != nil {
		return
	}
	for _, pair := range [][2][]float64{{a.W.Data, b.W.Data}, {a.B, b.B}, {a.Centroids.Data, b.Centroids.Data}} {
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				t.Fatalf("%s: refit value %d is %v vs %v", what, i, pair[0][i], pair[1][i])
			}
		}
	}
}

// FuzzObserveRequest: a body the edge accepts advances Seen by its
// sample count, and the trainer then refits bitwise like one fed the
// densified rows by Observe in order, count-triggered refits included.
// A body it refuses gets a 400 naming the first bad sample and leaves
// Seen, srdaonline_samples_total and srdaonline_refits_total unchanged.
func FuzzObserveRequest(f *testing.F) {
	f.Add([]byte(`{"samples":[{"dense":[1,2,3,4],"label":0},{"sparse":{"3":0.5,"0":-1},"label":1}]}`))
	s, err := New(observeModel(f), Options{Trainer: newFakeTrainer()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = s.Close(context.Background()) })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		// One server for the run; each input gets fresh trainers, so a
		// failure replays from its input alone.
		tr, ref := newEdgeTrainer(t), newEdgeTrainer(t)
		s.opts.Trainer = tr
		seen := tr.Seen()
		samples, refits := trainerCounters(t, tr)

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observe", bytes.NewReader(body)))

		var req ObserveRequest
		refused := jsonref.Decode(body, &req) != nil ||
			len(req.Samples) == 0 || len(req.Samples) > maxRequestSamples
		rows, labels, bad := edgeRows(&req)
		if refused || bad >= 0 {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%q: refused body answered %d %s", body, rec.Code, rec.Body)
			}
			if want := fmt.Sprintf("sample %d:", bad); !refused && !strings.Contains(rec.Body.String(), want) {
				t.Fatalf("%q: 400 %s does not name %q", body, rec.Body, want)
			}
			gs, gr := trainerCounters(t, tr)
			if tr.Seen() != seen || gs != samples || gr != refits {
				t.Fatalf("%q: refused body moved seen %d→%d, samples %s→%s, refits %s→%s",
					body, seen, tr.Seen(), samples, gs, refits, gr)
			}
			return
		}
		// Per-row Observe on the reference.  A refit that fails does not
		// end the batch: the edge absorbs every row, answers 200, and
		// names the first failed refit in refit_error.
		failed := -1
		for i, row := range rows {
			if err := ref.Observe(row, labels[i]); err != nil && failed < 0 {
				failed = i
			}
		}
		var resp ObserveResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			t.Fatalf("%q: accepted body answered %d %s", body, rec.Code, rec.Body)
		}
		if want := fmt.Sprintf("sample %d:", failed); (failed >= 0) != (resp.RefitError != "") ||
			failed >= 0 && !strings.HasPrefix(resp.RefitError, want) {
			t.Fatalf("%q: first refit failure at sample %d, reply refit_error %q", body, failed, resp.RefitError)
		}
		if tr.Seen() != ref.Seen() || tr.Seen() != seen+int64(len(rows)) {
			t.Fatalf("%q: seen %d→%d for %d samples, per-row Observe %d", body, seen, tr.Seen(), len(rows), ref.Seen())
		}
		gs, gr := trainerCounters(t, tr)
		if ws, wr := trainerCounters(t, ref); gs != ws || gr != wr {
			t.Fatalf("%q: samples/refits %s/%s, per-row Observe %s/%s", body, gs, gr, ws, wr)
		}
		got, _, errGot := tr.Refit()
		want, _, errWant := ref.Refit()
		sameModel(t, fmt.Sprintf("%q", body), got, want, errGot, errWant)
	})
}

// TestSparseBodiesObserveLikeDense: a stream sent as sparse bodies, its
// keys shuffled, with explicit zeros, refits
// bitwise like the same stream sent as dense bodies and like per-row
// Observe on the rows.
func TestSparseBodiesObserveLikeDense(t *testing.T) {
	const rows, batch = 40, 7
	rng := rand.New(rand.NewSource(78))
	var dense, sparse [][]byte
	want := newEdgeTrainer(t)
	for lo := 0; lo < rows; lo += batch {
		var dReq, sReq strings.Builder
		dReq.WriteString(`{"samples":[`)
		sReq.WriteString(`{"samples":[`)
		for i := lo; i < min(lo+batch, rows); i++ {
			label := i % edgeClasses
			row := make([]float64, edgeFeatures)
			var writes []string
			for _, j := range rng.Perm(edgeFeatures) {
				if rng.Float64() < 0.5 {
					row[j] = rng.NormFloat64() + float64(label)
					writes = append(writes, fmt.Sprintf(`"%d":%v`, j, row[j]))
				} else if rng.Float64() < 0.3 {
					writes = append(writes, fmt.Sprintf(`"%d":0`, j))
				}
			}
			if len(writes) == 0 {
				row[0] = 1
				writes = append(writes, `"0":1`)
			}
			if err := want.Observe(row, label); err != nil {
				t.Fatal(err)
			}
			sep := ","
			if i == lo {
				sep = ""
			}
			d, err := json.Marshal(row)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&dReq, `%s{"dense":%s,"label":%d}`, sep, d, label)
			fmt.Fprintf(&sReq, `%s{"sparse":{%s},"label":%d}`, sep, strings.Join(writes, ","), label)
		}
		dense = append(dense, []byte(dReq.String()+"]}"))
		sparse = append(sparse, []byte(sReq.String()+"]}"))
	}
	post := func(bodies [][]byte) *online.StreamTrainer {
		tr := newEdgeTrainer(t)
		s, err := New(observeModel(t), Options{Trainer: tr})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = s.Close(context.Background()) }()
		for _, body := range bodies {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observe", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", body, rec.Code, rec.Body)
			}
		}
		return tr
	}
	ms, _, errS := post(sparse).Refit()
	md, _, errD := post(dense).Refit()
	mw, _, errW := want.Refit()
	if errW != nil {
		t.Fatal(errW)
	}
	sameModel(t, "sparse vs dense bodies", ms, md, errS, errD)
	sameModel(t, "sparse bodies vs per-row Observe", ms, mw, errS, errW)
}

// TestCheckSampleRepeatedColumn: a sparse sample that names a column
// twice is refused, whichever write came last and whether or not one of
// them is finite (JSON cannot carry a NaN, so this holds the rule below
// the body scanner).  Entries of distinct columns come back sorted.
func TestCheckSampleRepeatedColumn(t *testing.T) {
	smp := rawSample{cols: []int{1, 3, 1}, vals: []float64{1, 2, 3}}
	if err := checkSample(&smp, 4); err == nil || err.Error() != "feature index 1 repeated" {
		t.Errorf("columns [1 3 1]: %v, want feature index 1 repeated", err)
	}
	for _, smp := range []rawSample{
		{cols: []int{2, 0, 2}, vals: []float64{math.NaN(), 1, 3}},
		{cols: []int{2, 2}, vals: []float64{3, math.Inf(1)}},
	} {
		if err := checkSample(&smp, 4); err == nil {
			t.Errorf("columns %v values %v passed", smp.cols, smp.vals)
		}
	}
	smp = rawSample{cols: []int{2, 0}, vals: []float64{3, 1}}
	if err := checkSample(&smp, 4); err != nil || !slices.Equal(smp.cols, []int{0, 2}) || !slices.Equal(smp.vals, []float64{1, 3}) {
		t.Fatalf("columns [2 0]: %v, sorted to %v %v, want [0 2] [1 3]", err, smp.cols, smp.vals)
	}
}
