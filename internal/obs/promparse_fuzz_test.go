package obs

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzParsePrometheus holds the scrape parser to its edge contract on
// arbitrary bytes: it never panics, it returns families or an error but
// never both, and whatever it accepts is well formed (names in the
// format's grammar, known types, no label name twice in a sample) and
// reads back the same.  Each accepted sample is rendered alone in the exposition syntax
// (labels in their parsed order, values escaped, the value printed
// exactly) and must parse to the identical sample; that pins the label
// scanner and UnescapeLabelValue to EscapeLabelValue.
func FuzzParsePrometheus(f *testing.F) {
	f.Add([]byte("# HELP a_total Requests.\n# TYPE a_total counter\na_total{code=\"200\"} 3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fams, err := ParsePrometheus(data)
		if err != nil {
			if fams != nil {
				t.Fatalf("returned %d families together with error %v", len(fams), err)
			}
			return
		}
		for _, fam := range fams {
			if !validPromName(fam.Name, true) {
				t.Fatalf("accepted family name %q", fam.Name)
			}
			if !knownPromType(fam.Type) {
				t.Fatalf("accepted family %q with type %q", fam.Name, fam.Type)
			}
			for _, s := range fam.Samples {
				if !validPromName(s.Name, true) {
					t.Fatalf("accepted sample name %q", s.Name)
				}
				seen := map[string]bool{}
				for _, l := range s.Labels {
					if !validPromName(l.Name, false) || seen[l.Name] {
						t.Fatalf("accepted label name %q in %+v", l.Name, s.Labels)
					}
					seen[l.Name] = true
				}
				line := renderSample(s)
				again, err := ParsePrometheus([]byte(line))
				if err != nil {
					t.Fatalf("re-parsing accepted sample %q: %v", line, err)
				}
				if len(again) != 1 || len(again[0].Samples) != 1 || !sameSample(again[0].Samples[0], s) {
					t.Fatalf("sample %+v rendered as %q reads back as %+v", s, line, again)
				}
			}
		}
	})
}

// renderSample writes one sample line in the exposition syntax.
func renderSample(s PromSample) string {
	var sb strings.Builder
	sb.WriteString(s.Name)
	if len(s.Labels) > 0 {
		sb.WriteByte('{')
		for i, l := range s.Labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l.Name)
			sb.WriteString(`="`)
			sb.WriteString(EscapeLabelValue(l.Value))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(strconv.FormatFloat(s.Value, 'g', -1, 64))
	sb.WriteByte('\n')
	return sb.String()
}

func sameSample(a, b PromSample) bool {
	if a.Name != b.Name || len(a.Labels) != len(b.Labels) {
		return false
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return false
		}
	}
	if math.IsNaN(a.Value) || math.IsNaN(b.Value) {
		return math.IsNaN(a.Value) && math.IsNaN(b.Value)
	}
	return math.Float64bits(a.Value) == math.Float64bits(b.Value)
}
