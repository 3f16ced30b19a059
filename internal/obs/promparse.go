package obs

// Stdlib-only parser for the Prometheus text exposition format (the
// version 0.0.4 format this package's Registry writes).  The telemetry
// plane is built on it twice over: the in-process sampler re-reads a
// registry's own exposition into time series, and the federation scraper
// in the router role parses every replica's /metrics before tagging and
// re-exposing the samples at /cluster/metrics.  Using one parser for
// both keeps "what we write" and "what we read" the same grammar, and
// the escaping round-trip test holds the writer to it.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// PromLabel is one name="value" pair on a parsed sample.
type PromLabel struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// PromSample is one sample line.  Name is the full sample name, which
// for histograms differs from the family name (name_bucket, name_sum,
// name_count).
type PromSample struct {
	Name   string      `json:"name"`
	Labels []PromLabel `json:"labels,omitempty"`
	Value  float64     `json:"value"`
}

// PromFamily is one metric family: the # HELP / # TYPE header plus every
// sample line attributed to it.  Samples with no preceding header form a
// family with empty Help and Type "untyped".
type PromFamily struct {
	Name    string       `json:"name"`
	Help    string       `json:"help,omitempty"`
	Type    string       `json:"type"`
	Samples []PromSample `json:"samples"`
}

// EscapeLabelValue renders a label value the way the Prometheus text
// format requires: backslash, double quote, and newline are escaped and
// nothing else is.  fmt's %q is not a substitute — it also escapes tabs,
// control bytes, and non-ASCII runes into Go syntax a Prometheus parser
// reads as a literal backslash sequence, so a tenant named "café" or one
// containing a tab would round-trip wrong.
func EscapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(s[i])
		}
	}
	return sb.String()
}

// UnescapeLabelValue reverses EscapeLabelValue.  Unknown escape
// sequences are an error: they mean the producer wrote a format this
// grammar does not define.
func UnescapeLabelValue(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			sb.WriteByte(s[i])
			continue
		}
		i++
		if i == len(s) {
			return "", fmt.Errorf("obs: label value ends mid-escape: %q", s)
		}
		switch s[i] {
		case '\\':
			sb.WriteByte('\\')
		case '"':
			sb.WriteByte('"')
		case 'n':
			sb.WriteByte('\n')
		default:
			return "", fmt.Errorf("obs: unknown escape \\%c in label value %q", s[i], s)
		}
	}
	return sb.String(), nil
}

// familyOf maps a sample name onto its family name: histogram children
// (_bucket, _sum, _count) belong to the base family when that family was
// declared as a histogram.
func familyOf(sample string, declared map[string]string) string {
	if declared[sample] != "" {
		return sample
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(sample, suf); ok && declared[base] == "histogram" {
			return base
		}
	}
	return sample
}

// knownPromType reports whether t is a metric type the text format
// defines.
func knownPromType(t string) bool {
	switch t {
	case "counter", "gauge", "histogram", "summary", "untyped":
		return true
	}
	return false
}

// ParsePrometheus parses one text exposition into its metric families,
// in document order.  Lines it cannot attribute to the grammar are an
// error — a scrape target speaking another format should fail loudly,
// not be half-ingested.  Optional trailing timestamps are accepted and
// ignored (this package's writer never emits them).
func ParsePrometheus(data []byte) ([]PromFamily, error) {
	var fams []PromFamily
	index := make(map[string]int)       // family name -> fams index
	declared := make(map[string]string) // family name -> type
	family := func(name string) *PromFamily {
		if i, ok := index[name]; ok {
			return &fams[i]
		}
		index[name] = len(fams)
		fams = append(fams, PromFamily{Name: name, Type: "untyped"})
		return &fams[len(fams)-1]
	}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || fields[0] != "#" || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			if !validPromName(fields[2], true) {
				return nil, fmt.Errorf("obs: line %d: %s names no valid metric: %q", ln+1, fields[1], line)
			}
			if fields[1] == "HELP" {
				f := family(fields[2])
				if len(fields) == 4 {
					f.Help = fields[3]
				}
				continue
			}
			if len(fields) < 4 || !knownPromType(fields[3]) {
				return nil, fmt.Errorf("obs: line %d: TYPE without a known type: %q", ln+1, line)
			}
			f := family(fields[2])
			f.Type = fields[3]
			declared[fields[2]] = fields[3]
			continue
		}
		sample, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", ln+1, err)
		}
		f := family(familyOf(sample.Name, declared))
		f.Samples = append(f.Samples, sample)
	}
	return fams, nil
}

// parseSampleLine parses `name{l1="v1",l2="v2"} value [timestamp]`.
func parseSampleLine(line string) (PromSample, error) {
	var s PromSample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("sample line has no value: %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if !validPromName(s.Name, true) {
		return s, fmt.Errorf("sample line has no valid metric name: %q", line)
	}
	if rest[0] == '{' {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		s.Labels = labels
		rest = tail
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("expected value [timestamp] after metric, got %q", strings.TrimSpace(rest))
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad sample timestamp %q", fields[1])
		}
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes a {name="value",...} block and returns the labels
// plus the remainder of the line.
func parseLabels(rest string) ([]PromLabel, string, error) {
	rest = rest[1:] // consume '{'
	var labels []PromLabel
	for {
		rest = strings.TrimLeft(rest, " \t")
		if rest == "" {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		if rest[0] == '}' {
			return labels, rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 {
			return nil, "", fmt.Errorf("malformed label pair")
		}
		name := strings.TrimSpace(rest[:eq])
		if !validPromName(name, false) {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		for _, l := range labels {
			if l.Name == name {
				return nil, "", fmt.Errorf("duplicate label %s", name)
			}
		}
		rest = rest[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return nil, "", fmt.Errorf("label %s value is not quoted", name)
		}
		rest = rest[1:]
		// Scan for the closing quote, honoring backslash escapes.
		var raw strings.Builder
		i := 0
		for {
			if i >= len(rest) {
				return nil, "", fmt.Errorf("unterminated value for label %s", name)
			}
			if rest[i] == '\\' && i+1 < len(rest) {
				raw.WriteByte(rest[i])
				raw.WriteByte(rest[i+1])
				i += 2
				continue
			}
			if rest[i] == '"' {
				break
			}
			raw.WriteByte(rest[i])
			i++
		}
		val, err := UnescapeLabelValue(raw.String())
		if err != nil {
			return nil, "", err
		}
		labels = append(labels, PromLabel{Name: name, Value: val})
		rest = strings.TrimLeft(rest[i+1:], " \t")
		switch {
		case strings.HasPrefix(rest, ","):
			rest = rest[1:]
		case !strings.HasPrefix(rest, "}"):
			return nil, "", fmt.Errorf("expected , or } after label %s", name)
		}
	}
}

// validPromName reports whether name fits the text format's grammar:
// [a-zA-Z_:][a-zA-Z0-9_:]* for metric names, the same without colons
// for label names.
func validPromName(name string, colon bool) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(colon && c == ':') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// CanonicalSeriesKey renders name plus labels (sorted by label name,
// values escaped) in the exposition's own syntax — the stable identity
// the telemetry store keys series by.
func CanonicalSeriesKey(name string, labels []PromLabel) string {
	if len(labels) == 0 {
		return name
	}
	sorted := append([]PromLabel(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(EscapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}
