package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "A counter.")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	r.NewGaugeFunc("gf", "A sampled gauge.", func() int64 { return 42 })

	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := "# HELP c_total A counter.\n# TYPE c_total counter\nc_total 5\n" +
		"# HELP gf A sampled gauge.\n# TYPE gf gauge\ngf 42\n"
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n got %q\nwant %q", sb.String(), want)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name did not panic")
		}
	}()
	r.NewGaugeFunc("dup", "second", func() int64 { return 0 })
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("req_total", "Requests.", "endpoint", "code")
	v.With("/b", "200").Inc()
	v.With("/a", "500").Add(2)
	v.With("/a", "200").Inc()
	if got := v.Value("/a", "500"); got != 2 {
		t.Fatalf("Value(/a,500) = %d, want 2", got)
	}
	if got := v.Value("/missing", "0"); got != 0 {
		t.Fatalf("absent label value = %d, want 0", got)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	// Entries render sorted by label tuple regardless of creation order.
	want := "# HELP req_total Requests.\n# TYPE req_total counter\n" +
		`req_total{endpoint="/a",code="200"} 1` + "\n" +
		`req_total{endpoint="/a",code="500"} 2` + "\n" +
		`req_total{endpoint="/b",code="200"} 1` + "\n"
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n got %q\nwant %q", sb.String(), want)
	}
}

func TestCounterVecArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("v_total", "help", "one")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("a", "b")
}

// TestHistogramBuckets pins the bucket-assignment and cumulative-le
// semantics: a value exactly on a bound lands in that bound's bucket
// (le is inclusive), and rendered buckets are cumulative.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 1.0, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if math.Abs(h.Sum()-106.65) > 1e-9 {
		t.Fatalf("sum = %g, want 106.65", h.Sum())
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := "# HELP lat Latency.\n# TYPE lat histogram\n" +
		`lat_bucket{le="0.1"} 2` + "\n" + // 0.05 and the exactly-0.1 value
		`lat_bucket{le="1"} 4` + "\n" +
		`lat_bucket{le="10"} 5` + "\n" +
		`lat_bucket{le="+Inf"} 6` + "\n" +
		"lat_sum 106.65\nlat_count 6\n"
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n got %q\nwant %q", sb.String(), want)
	}
}

func TestHistogramAscendingBoundsEnforced(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	r.NewHistogram("bad", "help", []float64{1, 1})
}

// TestConcurrentObserve hammers one histogram and one counter vec from
// many goroutines; run under -race this checks the lock discipline, and
// the final counts check that no observation is lost.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("conc", "help", []float64{0.5, 1.5, 2.5})
	v := r.NewCounterVec("conc_total", "help", "worker")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w))
			for i := 0; i < per; i++ {
				h.Observe(float64(i%3) + 0.25)
				v.With(label).Inc()
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	total := int64(0)
	for w := 0; w < workers; w++ {
		total += v.Value(string(rune('a' + w)))
	}
	if total != workers*per {
		t.Fatalf("vec total = %d, want %d", total, workers*per)
	}
}
