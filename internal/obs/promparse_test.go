package obs

import (
	"math"
	"strings"
	"testing"
)

func TestEscapeLabelValueRoundTrip(t *testing.T) {
	cases := []string{
		"plain",
		"",
		`back\slash`,
		`quo"te`,
		"new\nline",
		"tab\tstays",
		"café",
		`all "three" \ kinds` + "\n",
	}
	for _, in := range cases {
		esc := EscapeLabelValue(in)
		if strings.ContainsAny(esc, "\n\"") && !strings.Contains(esc, `\n`) && !strings.Contains(esc, `\"`) {
			t.Errorf("escape of %q left raw specials: %q", in, esc)
		}
		out, err := UnescapeLabelValue(esc)
		if err != nil {
			t.Fatalf("unescape(%q): %v", esc, err)
		}
		if out != in {
			t.Errorf("round trip %q -> %q -> %q", in, esc, out)
		}
	}
	// Tabs and non-ASCII must pass through untouched: only \, ", and
	// newline have escapes in the text format.
	if got := EscapeLabelValue("a\tb café"); got != "a\tb café" {
		t.Errorf("tab/unicode should not be escaped, got %q", got)
	}
	if _, err := UnescapeLabelValue(`bad\t`); err == nil {
		t.Error(`\t is not a defined escape; want error`)
	}
	if _, err := UnescapeLabelValue(`dangling\`); err == nil {
		t.Error("dangling backslash; want error")
	}
}

// TestCounterVecEscapingRoundTrip holds the writer to the parser's
// grammar: a CounterVec whose tenant label values carry backslashes,
// quotes, and newlines must expose text the parser reads back to the
// exact original values.
func TestCounterVecEscapingRoundTrip(t *testing.T) {
	reg := NewRegistry()
	vec := reg.NewCounterVec("srdatest_requests_total", "Requests by tenant and model.", "tenant", "model")
	gnarly := []struct{ tenant, model string }{
		{`acme\prod`, "default"},
		{`quote"inc`, "v2"},
		{"multi\nline", "v1"},
		{"tab\ttenant", "café"},
	}
	for i, g := range gnarly {
		vec.With(g.tenant, g.model).Add(int64(i + 1))
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)

	fams, err := ParsePrometheus([]byte(sb.String()))
	if err != nil {
		t.Fatalf("parsing our own exposition: %v\n%s", err, sb.String())
	}
	if len(fams) != 1 || fams[0].Name != "srdatest_requests_total" {
		t.Fatalf("families = %+v", fams)
	}
	if fams[0].Type != "counter" || fams[0].Help != "Requests by tenant and model." {
		t.Fatalf("family header = %+v", fams[0])
	}
	got := map[string]float64{}
	for _, s := range fams[0].Samples {
		if len(s.Labels) != 2 {
			t.Fatalf("sample labels = %+v", s.Labels)
		}
		got[s.Labels[0].Value+"\x00"+s.Labels[1].Value] = s.Value
	}
	for i, g := range gnarly {
		v, ok := got[g.tenant+"\x00"+g.model]
		if !ok {
			t.Errorf("tenant %q model %q did not round-trip; parsed %v", g.tenant, g.model, got)
			continue
		}
		if v != float64(i+1) {
			t.Errorf("tenant %q value = %g, want %d", g.tenant, v, i+1)
		}
	}
}

func TestParsePrometheusFull(t *testing.T) {
	text := `# HELP srdaserve_requests_total HTTP requests by endpoint and status code.
# TYPE srdaserve_requests_total counter
srdaserve_requests_total{endpoint="/v1/predict",code="200"} 2
srdaserve_requests_total{endpoint="/v1/predict",code="400"} 1
# HELP srdaserve_request_duration_seconds Predict latency.
# TYPE srdaserve_request_duration_seconds histogram
srdaserve_request_duration_seconds_bucket{le="0.001"} 0
srdaserve_request_duration_seconds_bucket{le="+Inf"} 2
srdaserve_request_duration_seconds_sum 0.251953125
srdaserve_request_duration_seconds_count 2
# HELP srdaserve_queue_depth Samples queued.
# TYPE srdaserve_queue_depth gauge
srdaserve_queue_depth 3
untyped_orphan 7 1700000000000
`
	fams, err := ParsePrometheus([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 4 {
		t.Fatalf("got %d families, want 4: %+v", len(fams), fams)
	}
	if fams[0].Type != "counter" || len(fams[0].Samples) != 2 {
		t.Errorf("counter family = %+v", fams[0])
	}
	hist := fams[1]
	if hist.Type != "histogram" || len(hist.Samples) != 4 {
		t.Fatalf("histogram family = %+v", hist)
	}
	if hist.Samples[1].Name != "srdaserve_request_duration_seconds_bucket" ||
		!math.IsInf(float64frombucket(t, hist.Samples[1]), 1) {
		t.Errorf("+Inf bucket = %+v", hist.Samples[1])
	}
	if hist.Samples[2].Name != "srdaserve_request_duration_seconds_sum" || hist.Samples[2].Value != 0.251953125 {
		t.Errorf("sum sample = %+v", hist.Samples[2])
	}
	if fams[3].Name != "untyped_orphan" || fams[3].Type != "untyped" || fams[3].Samples[0].Value != 7 {
		t.Errorf("orphan family = %+v", fams[3])
	}

	for _, bad := range []string{
		"no_value_here\n",
		`broken{tenant="x} 1` + "\n",
		"srda_x 1 notatimestamp\n",
		"# TYPE lonely\n",
		"# HELP \n",
		"# TYPE lonely bogus\n",
		`two{a="1"b="2"} 1` + "\n",
		`bad{1a="1"} 1` + "\n",
		`dup{a="1",a="2"} 1` + "\n",
		"9lives 1\n",
	} {
		if _, err := ParsePrometheus([]byte(bad)); err == nil {
			t.Errorf("ParsePrometheus(%q) accepted malformed input", bad)
		}
	}
}

// float64frombucket pulls the le bound of a bucket sample.
func float64frombucket(t *testing.T, s PromSample) float64 {
	t.Helper()
	for _, l := range s.Labels {
		if l.Name == "le" {
			if l.Value == "+Inf" {
				return math.Inf(1)
			}
		}
	}
	t.Fatalf("no le label on %+v", s)
	return 0
}

func TestCanonicalSeriesKey(t *testing.T) {
	key := CanonicalSeriesKey("m", []PromLabel{{"z", "1"}, {"a", `x"y`}})
	want := `m{a="x\"y",z="1"}`
	if key != want {
		t.Errorf("key = %q, want %q", key, want)
	}
	if CanonicalSeriesKey("m", nil) != "m" {
		t.Error("bare name should key as itself")
	}
}
