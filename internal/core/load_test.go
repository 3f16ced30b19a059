package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"testing"
)

// validWire is a 3-feature, 2-class model in wire form.
func validWire() modelWire {
	return modelWire{
		Rows: 3, Cols: 1,
		W:          []float64{0.5, -1, 2},
		B:          []float64{0.25},
		NumClasses: 2, Alpha: 1,
		Centroids: []float64{-1, 1},
	}
}

func encodeWire(t testing.TB, w modelWire) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsCraftedModels feeds Load gobs that decode cleanly but
// describe no model a fit could produce.
func TestLoadRejectsCraftedModels(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*modelWire)
		want   error // nil: accepted
	}{
		{"valid", func(*modelWire) {}, nil},
		{"valid without centroids", func(w *modelWire) { w.Centroids = nil }, nil},
		{"size product wraps to zero", func(w *modelWire) {
			w.Rows, w.Cols, w.W, w.B, w.Centroids = 1<<62, 4, nil, make([]float64, 4), nil
		}, ErrModelSize},
		{"negative rows", func(w *modelWire) {
			w.Rows, w.Cols, w.W, w.B, w.Centroids = -5, 0, nil, nil, nil
		}, ErrModelShape},
		{"zero cols", func(w *modelWire) { w.Cols, w.W, w.B, w.Centroids = 0, nil, nil, nil }, ErrModelShape},
		{"centroid size product wraps", func(w *modelWire) {
			// (2^62+1)·4 wraps to 4, matching the 4 centroid values.
			w.Cols, w.W, w.B = 4, make([]float64, 12), make([]float64, 4)
			w.NumClasses, w.Centroids = 1<<62+1, make([]float64, 4)
		}, ErrModelSize},
		{"zero classes with centroids", func(w *modelWire) { w.NumClasses = 0 }, ErrModelShape},
		{"NaN weight", func(w *modelWire) { w.W[1] = math.NaN() }, ErrModelNonFinite},
		{"Inf bias", func(w *modelWire) { w.B[0] = math.Inf(-1) }, ErrModelNonFinite},
		{"NaN centroid", func(w *modelWire) { w.Centroids[1] = math.NaN() }, ErrModelNonFinite},
	}
	for _, tc := range cases {
		w := validWire()
		tc.mutate(&w)
		m, err := Load(bytes.NewReader(encodeWire(t, w)))
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			} else if m.W.Rows != w.Rows || m.W.Cols != w.Cols {
				t.Errorf("%s: loaded %dx%d, want %dx%d", tc.name, m.W.Rows, m.W.Cols, w.Rows, w.Cols)
			}
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// FuzzLoad: Load never panics, and a model it accepts has positive
// dimensions and finite parameters, projects without panicking, and
// survives a Save/Load round trip bit for bit.
func FuzzLoad(f *testing.F) {
	w := validWire()
	m, err := Load(bytes.NewReader(encodeWire(f, w)))
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := m.Save(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if m.W.Rows <= 0 || m.W.Cols <= 0 {
			t.Fatalf("accepted a %dx%d model", m.W.Rows, m.W.Cols)
		}
		m.TransformVec(make([]float64, m.W.Rows), nil)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("re-loading an accepted model: %v", err)
		}
		same := func(a, b []float64) bool {
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					return false
				}
			}
			return true
		}
		if !same(again.W.Data, m.W.Data) || !same(again.B, m.B) {
			t.Fatal("Save/Load round trip changed W or B")
		}
		if (m.Centroids == nil) != (again.Centroids == nil) ||
			m.Centroids != nil && !same(again.Centroids.Data, m.Centroids.Data) {
			t.Fatal("Save/Load round trip changed the centroids")
		}
	})
}
