package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"srda/internal/jsonref"
)

// The differential targets hold the body scanner and PeekPredict to
// the strict reference, jsonref.Decode: encoding/json's decode with
// DisallowUnknownFields plus the strict grammar's key, null and
// trailing-text rules.  Each checked-in corpus entry under testdata/fuzz
// is one trap: key case, repeated keys, nulls, number forms strconv
// takes but JSON does not, the edges of the number scanner's fast paths
// (num_*), sparse key forms, trailing text and the empty body.

// FuzzScanPredict: the same accept/reject decision as the reference,
// the same model and embed flag, and per sample the same dense bits and
// the same sparse columns and value bits.  A repeated sparse column is
// refused by checkSample, not by the scan, so the scan's side of the
// decision counts it as a refusal.
func FuzzScanPredict(f *testing.F) {
	f.Add([]byte(`{"samples":[{"dense":[1,2.5e-3,-0]},{"sparse":{"10":1,"2":0}}],"model":"m","embed":true}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var ref PredictRequest
		refErr := jsonref.Decode(b, &ref)
		sc, err := scanPredict(b, math.MaxInt)
		defer sc.release()
		if err == nil {
			err = repeatedColumn(append([]rawSample{sc.out.top}, sc.out.recs...))
		}
		if (refErr == nil) != (err == nil) {
			t.Fatalf("%q: reference err=%v, scanner err=%v", b, refErr, err)
		}
		if err != nil {
			return
		}
		got := &sc.out
		if got.model != ref.Model || got.embed != ref.Embed {
			t.Fatalf("%q: model/embed %q/%v, reference %q/%v", b, got.model, got.embed, ref.Model, ref.Embed)
		}
		sameSample(t, b, "shorthand", &got.top, ref.Sample, 0)
		if len(got.recs) != len(ref.Samples) {
			t.Fatalf("%q: %d samples, reference %d", b, len(got.recs), len(ref.Samples))
		}
		for i, smp := range ref.Samples {
			sameSample(t, b, "sample", &got.recs[i], smp, 0)
		}
	})
}

// FuzzScanObserve is FuzzScanPredict for observe bodies, labels
// included.
func FuzzScanObserve(f *testing.F) {
	f.Add([]byte(`{"samples":[{"dense":[1,2],"label":1},{"sparse":{"3":0.5},"label":0}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var ref ObserveRequest
		refErr := jsonref.Decode(b, &ref)
		sc, err := scanObserve(b, math.MaxInt)
		defer sc.release()
		if err == nil {
			err = repeatedColumn(sc.out.recs)
		}
		if (refErr == nil) != (err == nil) {
			t.Fatalf("%q: reference err=%v, scanner err=%v", b, refErr, err)
		}
		if err != nil {
			return
		}
		got := &sc.out
		if len(got.recs) != len(ref.Samples) {
			t.Fatalf("%q: %d samples, reference %d", b, len(got.recs), len(ref.Samples))
		}
		for i, ls := range ref.Samples {
			sameSample(t, b, "sample", &got.recs[i], ls.Sample, ls.Label)
		}
	})
}

// FuzzPeekPredict: whenever the reference accepts a body, the peek
// accepts it with the same model and sample count; whenever the peek
// rejects a body, the reference rejects it too.
func FuzzPeekPredict(f *testing.F) {
	f.Add([]byte(`{"samples":[{"dense":[1]},{"dense":[2]}],"model":"tenant-a"}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var ref PredictRequest
		refErr := jsonref.Decode(b, &ref)
		model, n, err := PeekPredict(b)
		if err != nil {
			if refErr == nil {
				t.Fatalf("%q: peek rejected (%v) a body the reference accepts", b, err)
			}
			return
		}
		if refErr != nil {
			return // an error inside a value the peek skips
		}
		if model != ref.Model {
			t.Fatalf("%q: peek model %q, reference %q", b, model, ref.Model)
		}
		if want := max(len(ref.Samples), 1); n != want {
			t.Fatalf("%q: peek counted %d samples, want %d", b, n, want)
		}
	})
}

// repeatedColumn returns an error naming the first sample whose sparse
// entries name a column twice, the rule checkSample adds to the scan.
func repeatedColumn(samples []rawSample) error {
	for i, smp := range samples {
		cols := slices.Clone(smp.cols)
		slices.Sort(cols)
		if len(slices.Compact(cols)) != len(smp.cols) {
			return fmt.Errorf("sample %d repeats a column", i)
		}
	}
	return nil
}

// sameSample compares a scanned sample with the reference's decode of
// it: dense length and bits, sparse columns and value bits, the label.
func sameSample(t *testing.T, b []byte, what string, got *rawSample, ref Sample, label int) {
	t.Helper()
	if len(got.dense) != len(ref.Dense) {
		t.Fatalf("%q: %s dense has %d values, reference %d", b, what, len(got.dense), len(ref.Dense))
	}
	for j, v := range ref.Dense {
		if math.Float64bits(got.dense[j]) != math.Float64bits(v) {
			t.Fatalf("%q: %s dense[%d] = %v, reference %v", b, what, j, got.dense[j], v)
		}
	}
	if len(got.cols) != len(ref.Sparse) {
		t.Fatalf("%q: %s sparse has %d columns, reference %d", b, what, len(got.cols), len(ref.Sparse))
	}
	for k, j := range got.cols {
		w, ok := ref.Sparse[j]
		if !ok || math.Float64bits(w) != math.Float64bits(got.vals[k]) {
			t.Fatalf("%q: %s sparse[%d] = %v, reference %v (present %v)", b, what, j, got.vals[k], w, ok)
		}
	}
	cols, vals := slices.Clone(got.cols), slices.Clone(got.vals)
	sortSparse(cols, vals)
	for k, j := range cols {
		if k > 0 && j <= cols[k-1] || math.Float64bits(vals[k]) != math.Float64bits(ref.Sparse[j]) {
			t.Fatalf("%q: %s sortSparse gave %v %v, want the map %v in column order", b, what, cols, vals, ref.Sparse)
		}
	}
	if got.label != label {
		t.Fatalf("%q: %s label %d, reference %d", b, what, got.label, label)
	}
}

// TestScanSampleCap: a samples array longer than the cap is refused
// while scanning, before its elements are stored.
func TestScanSampleCap(t *testing.T) {
	body := `{"samples":[` + strings.Repeat(`{"dense":[1]},`, 4) + `{"dense":[1]}]}`
	if _, err := scanPredict([]byte(body), 5); err != nil {
		t.Fatalf("5 samples under a cap of 5: %v", err)
	}
	if _, err := scanPredict([]byte(body), 4); err == nil || StatusCode(err) != 400 {
		t.Fatalf("5 samples under a cap of 4: %v, want a 400", err)
	}
}

// BenchmarkScanPredict times the scanner against encoding/json's decode
// on 64×784 dense bodies.  The first body holds full-precision uniform
// values; the _mnist one mixes them as serve-bulk bodies do (about 40%
// "0", 17% "1", the rest full precision), and observe scans that body
// with labels.
func BenchmarkScanPredict(b *testing.B) {
	uniform := func(rng *rand.Rand) float64 { return rng.Float64() }
	mnist := func(rng *rand.Rand) float64 {
		switch u := rng.Float64(); {
		case u < 0.40:
			return 0
		case u < 0.57:
			return 1
		}
		return rng.Float64()
	}
	body := benchBody(b, uniform, false)
	mnistBody := benchBody(b, mnist, false)
	observeBody := benchBody(b, mnist, true)
	run := func(name string, body []byte, f func([]byte) error) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if err := f(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	scan := func(body []byte) error { sc, err := scanPredict(body, 1024); sc.release(); return err }
	peek := func(body []byte) error { _, _, err := PeekPredict(body); return err }
	run("scanner", body, scan)
	run("peek", body, peek)
	run("encoding_json", body, func(body []byte) error {
		var r PredictRequest
		return json.NewDecoder(bytes.NewReader(body)).Decode(&r)
	})
	run("scanner_mnist", mnistBody, scan)
	run("peek_mnist", mnistBody, peek)
	run("observe", observeBody, func(body []byte) error { sc, err := scanObserve(body, 1024); sc.release(); return err })
}

// benchBody marshals 64 dense samples of 784 values drawn by value, as
// a predict body or, with labels, an observe body.
func benchBody(b *testing.B, value func(*rand.Rand) float64, labels bool) []byte {
	rng := rand.New(rand.NewSource(1))
	samples := make([]Sample, 64)
	obs := ObserveRequest{Samples: make([]LabeledSample, len(samples))}
	for i := range samples {
		x := make([]float64, 784)
		for j := range x {
			x[j] = value(rng)
		}
		samples[i] = DenseSample(x)
		obs.Samples[i] = LabeledSample{Sample: samples[i], Label: i % 10}
	}
	var req any = PredictRequest{Samples: samples}
	if labels {
		req = obs
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// TestStructural holds the eight-byte structural test to a bytewise
// search: the lowest flagged byte of every word is its first '"', '[',
// ']', '{' or '}', and a word without one is not flagged.  The bytes are
// drawn from the targets, their bit-5 twins and neighbours, zero, and
// random bytes.
func TestStructural(t *testing.T) {
	alphabet := []byte(`"[]{}` + "\x02\x00\x01\x7f\x80\xff;=[]{}\x5c\x7c\x3b\x5b\x7b\x5d\x7d\x5a\x5e\x7a\x7e\xdb\xdd\xfb\xfd\xa2" + `0123456789.,:-eE `)
	rng := rand.New(rand.NewSource(1))
	n := 1 << 20
	if raceEnabled {
		n = 1 << 14
	}
	var w [8]byte
	for k := 0; k < n; k++ {
		for j := range w {
			if rng.Intn(4) == 0 {
				w[j] = byte(rng.Intn(256))
			} else {
				w[j] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		want := 8
		for j, c := range w {
			if isStructural[c] {
				want = j
				break
			}
		}
		m := structural(binary.LittleEndian.Uint64(w[:]))
		got := 8
		if m != 0 {
			got = bits.TrailingZeros64(m) / 8
		}
		if got != want {
			t.Fatalf("%q: structural byte at %d, want %d", w, got, want)
		}
	}
}

// TestConcurrentPooledBodies: concurrent predict bodies share the pooled
// body scanners, and a third of them give up while queued (a context
// cancelled before the call, or timing out within it).  Every reply must
// carry its own samples' classes.  A scanner pooled while a batch could
// still read its arena would show as a data race under -race, which
// make race runs this test with.
func TestConcurrentPooledBodies(t *testing.T) {
	const n, c = 16, 4
	model, probes := trainBlobs(t, n, c, 7)
	s, _, _ := newTestServer(t, model, Options{})
	const goroutines, rounds = 4, 60
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < rounds; r++ {
				want := make([]int, 1+rng.Intn(8))
				req := PredictRequest{Samples: make([]Sample, len(want))}
				for i := range want {
					want[i] = rng.Intn(c)
					req.Samples[i] = DenseSample(probes.RowView(want[i]))
				}
				body, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return
				}
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				switch r % 3 {
				case 0:
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				case 1:
					ctx, cancel = context.WithTimeout(ctx, 50*time.Microsecond)
				}
				code, reply := s.PredictBody(ctx, nil, body)
				cancel()
				if r%3 != 2 && code == http.StatusServiceUnavailable {
					continue // gave up while queued
				}
				var resp PredictResponse
				if err := json.Unmarshal(reply, &resp); code != http.StatusOK || err != nil {
					t.Errorf("round %d: %d %s (%v)", r, code, reply, err)
					continue
				}
				if !slices.Equal(resp.Classes, want) {
					t.Errorf("round %d: classes %v, want %v", r, resp.Classes, want)
				}
			}
		}(g)
	}
	wg.Wait()
}
