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
	"strings"
	"testing"
)

// TestStrictGrammarRefusals: each refusal class of the strict body
// grammar gets a 400 on /v1/predict and /v1/observe.  A grammar
// refusal names the byte offset of the offending key or value (the last
// occurrence of at in the body); a repeated sparse column, which
// checkSample refuses, names the sample instead.
func TestStrictGrammarRefusals(t *testing.T) {
	s, err := New(observeModel(t), Options{Trainer: newFakeTrainer()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close(context.Background()) }()
	const d = `{"dense":[1,2,3,4]}`
	const l = `{"dense":[1,2,3,4],"label":0}`
	cases := []struct {
		path, class, body, at string
	}{
		{"predict", "case-variant key", `{"Samples":[` + d + `]}`, `"Samples"`},
		{"predict", "case-variant sample key", `{"samples":[{"DENSE":[1,2,3,4]}]}`, `"DENSE"`},
		{"predict", "unknown key", `{"samples":[` + d + `],"x":{}}`, `"x"`},
		{"predict", "unknown sample key", `{"samples":[{"dense":[1,2,3,4],"label":0}]}`, `"label"`},
		{"predict", "repeated key", `{"model":"default","samples":[` + d + `],"model":"default"}`, `"model"`},
		{"predict", "repeated samples", `{"samples":[` + d + `],"samples":[` + d + `]}`, `"samples"`},
		{"predict", "repeated sample key", `{"samples":[{"dense":[1,2,3,4],"dense":[1,2,3,4]}]}`, `"dense"`},
		{"predict", "repeated shorthand key", `{"sparse":{"0":1},"sparse":{"1":1}}`, `"sparse"`},
		{"predict", "null body", ` null`, `null`},
		{"predict", "null model", `{"model":null,"samples":[` + d + `]}`, `null`},
		{"predict", "null embed", `{"embed":null,"samples":[` + d + `]}`, `null`},
		{"predict", "null samples", `{"samples":null}`, `null`},
		{"predict", "null sample", `{"samples":[` + d + `,null]}`, `null`},
		{"predict", "null dense", `{"samples":[{"dense":null}]}`, `null`},
		{"predict", "null dense element", `{"samples":[{"dense":[1,null,3,4]}]}`, `null`},
		{"predict", "null sparse", `{"sparse":null}`, `null`},
		{"predict", "null sparse value", `{"samples":[{"sparse":{"0":null}}]}`, `null`},
		{"predict", "wrong type", `{"samples":[` + d + `],"embed":"yes"}`, `"yes"`},
		{"predict", "trailing text", `{"samples":[` + d + `]} x`, `x`},
		{"predict", "second object", `{"samples":[` + d + `]}{}`, `{}`},
		{"predict", "repeated column", `{"samples":[` + d + `,{"sparse":{"1":1,"01":2}}]}`, "sample 1: feature index 1 repeated"},
		{"predict", "repeated shorthand column", `{"sparse":{"3":1,"3":1}}`, "sample 0: feature index 3 repeated"},
		{"predict", "samples and shorthand", `{"samples":[` + d + `],"dense":[1,2,3,4]}`, "samples and a single-sample shorthand"},
		{"observe", "case-variant key", `{"SAMPLES":[` + l + `]}`, `"SAMPLES"`},
		{"observe", "case-variant sample key", `{"samples":[{"dense":[1,2,3,4],"Label":0}]}`, `"Label"`},
		{"observe", "unknown key", `{"model":"m","samples":[` + l + `]}`, `"model"`},
		{"observe", "shorthand key", `{"dense":[1,2,3,4],"label":0}`, `"dense"`},
		{"observe", "unknown sample key", `{"samples":[{"dense":[1,2,3,4],"label":0,"w":1}]}`, `"w"`},
		{"observe", "repeated key", `{"samples":[` + l + `],"samples":[` + l + `]}`, `"samples"`},
		{"observe", "repeated sample key", `{"samples":[{"dense":[1,2,3,4],"label":0,"label":1}]}`, `"label"`},
		{"observe", "null body", `null`, `null`},
		{"observe", "null samples", `{"samples":null}`, `null`},
		{"observe", "null sample", `{"samples":[null]}`, `null`},
		{"observe", "null label", `{"samples":[{"dense":[1,2,3,4],"label":null}]}`, `null`},
		{"observe", "null dense element", `{"samples":[{"dense":[null,2,3,4],"label":0}]}`, `null`},
		{"observe", "null sparse value", `{"samples":[{"sparse":{"0":null},"label":0}]}`, `null`},
		{"observe", "wrong type", `{"samples":[{"dense":[1,2,3,4],"label":"0"}]}`, `"0"`},
		{"observe", "trailing text", `{"samples":[` + l + `]}` + "\n]", `]`},
		{"observe", "repeated column", `{"samples":[` + l + `,{"sparse":{"2":1,"+2":2},"label":1}]}`, "sample 1: feature index 2 repeated"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+tc.path, strings.NewReader(tc.body)))
		var reply errorReply
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); rec.Code != http.StatusBadRequest || err != nil {
			t.Errorf("%s %s: %d %q, want a 400", tc.path, tc.class, rec.Code, rec.Body)
			continue
		}
		want := tc.at
		if !strings.HasPrefix(want, "sample") {
			want = fmt.Sprintf("at offset %d", strings.LastIndex(tc.body, tc.at))
		}
		if !strings.Contains(reply.Error, want) {
			t.Errorf("%s %s: %q does not name %q", tc.path, tc.class, reply.Error, want)
		}
	}
}

// TestMarshaledRequestsAccepted: every json.Marshal of a typed predict
// or observe request scans to bitwise the values it was made from, and
// PeekPredict reads the same model and sample count.  The requests mix
// multi-sample dense and sparse bodies, the single-sample shorthand,
// embed, negative labels and sparse indices, and model names that
// json.Marshal escapes (<, >, &, U+2028) or writes as non-ASCII.
func TestMarshaledRequestsAccepted(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	names := []string{"", "tenant-a", "<a>&b", "line\u2028sep\u2029", "modèle-ü", "模型", `q"uo\te`, "tab\tnl\n"}
	specials := []float64{0, math.Copysign(0, -1), 1, -1, 5e-324, 2.2250738585072014e-308, math.MaxFloat64, 1e23, 0.1}
	value := func() float64 {
		if rng.Intn(4) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	sample := func() Sample {
		n := 1 + rng.Intn(12)
		if rng.Intn(2) == 0 {
			x := make([]float64, n)
			for j := range x {
				x[j] = value()
			}
			return Sample{Dense: x}
		}
		m := map[int]float64{}
		for len(m) < n {
			m[rng.Intn(2000)-100] = value()
		}
		return Sample{Sparse: m}
	}
	for round := 0; round < 300; round++ {
		req := PredictRequest{Model: names[rng.Intn(len(names))], Embed: rng.Intn(2) == 0}
		if rng.Intn(3) == 0 {
			req.Sample = sample()
		} else {
			req.Samples = make([]Sample, 1+rng.Intn(6))
			for i := range req.Samples {
				req.Samples[i] = sample()
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := scanPredict(body, math.MaxInt)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if sc.out.model != req.Model || sc.out.embed != req.Embed || len(sc.out.recs) != len(req.Samples) {
			t.Fatalf("%s: model %q embed %v with %d samples", body, sc.out.model, sc.out.embed, len(sc.out.recs))
		}
		sameSample(t, body, "shorthand", &sc.out.top, req.Sample, 0)
		for i, smp := range req.Samples {
			sameSample(t, body, "sample", &sc.out.recs[i], smp, 0)
		}
		sc.release()
		model, n, err := PeekPredict(body)
		if err != nil || model != req.Model || n != max(len(req.Samples), 1) {
			t.Fatalf("%s: peek %q, %d samples, %v", body, model, n, err)
		}

		obs := ObserveRequest{Samples: make([]LabeledSample, 1+rng.Intn(6))}
		for i := range obs.Samples {
			obs.Samples[i] = LabeledSample{Sample: sample(), Label: rng.Intn(2001) - 1000}
		}
		if body, err = json.Marshal(obs); err != nil {
			t.Fatal(err)
		}
		if sc, err = scanObserve(body, math.MaxInt); err != nil || len(sc.out.recs) != len(obs.Samples) {
			t.Fatalf("%s: %v", body, err)
		}
		for i, ls := range obs.Samples {
			sameSample(t, body, "sample", &sc.out.recs[i], ls.Sample, ls.Label)
		}
		sc.release()
	}
	// A request with no samples marshals without a "samples" key, since a
	// null there would be refused.
	for _, req := range []any{PredictRequest{Model: "m"}, ObserveRequest{}} {
		if body, err := json.Marshal(req); err != nil || bytes.Contains(body, []byte("null")) {
			t.Errorf("%T: %s (%v)", req, body, err)
		}
	}
}
