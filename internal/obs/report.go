package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
)

// Report is the structured JSON run report emitted by srdatrain -report
// and srdabench -report: per-phase wall times plus, for training runs,
// the iterative-solver telemetry (per-response LSQR iteration counts and
// final residual norms) that characterizes solver quality.  The schema is
// validated by ValidateReport; cmd/srdareport checks and summarizes
// report files, and CI smoke-tests the whole loop.
type Report struct {
	// Tool names the producer ("srdatrain", "srdabench").
	Tool string `json:"tool"`
	// Phases are named wall-time measurements in execution order.
	Phases []Phase `json:"phases"`
	// TotalSeconds is the end-to-end wall time of the reported operation.
	TotalSeconds float64 `json:"total_seconds"`
	// Solver carries iterative-solver telemetry when the run trained a
	// model; absent for direct (Cholesky) solves without iteration data.
	Solver *SolverStats `json:"solver,omitempty"`
	// Data holds run-specific scalars (dataset shape, error rates).
	Data map[string]float64 `json:"data,omitempty"`
}

// Phase is one named wall-time measurement.
type Phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// SolverStats is the report form of regress.Stats.
type SolverStats struct {
	// Strategy is the solver that ran ("primal", "dual", "lsqr").
	Strategy string `json:"strategy"`
	// TotalIters sums LSQR iterations over all responses (0 for direct).
	TotalIters int `json:"total_iters"`
	// IterCounts[j] is the LSQR iteration count for response j.
	IterCounts []int `json:"iter_counts,omitempty"`
	// Residuals[j] is response j's final damped residual norm.
	Residuals []float64 `json:"residuals,omitempty"`
}

// AddSpans appends the direct children of root as phases, summing
// children that share a name (per-response spans) and keeping the order
// in which each name first completed.  spans is a Tracer snapshot, which
// lists spans oldest-completed first.
func (r *Report) AddSpans(spans []SpanRecord, root SpanID) {
	var order []string
	totals := map[string]float64{}
	for _, sp := range spans {
		if sp.Parent != root {
			continue
		}
		if _, ok := totals[sp.Name]; !ok {
			order = append(order, sp.Name)
		}
		totals[sp.Name] += sp.Duration.Seconds()
	}
	for _, name := range order {
		r.Phases = append(r.Phases, Phase{Name: name, Seconds: totals[name]})
	}
}

// WriteFile marshals the report as indented JSON to path.
func (r *Report) WriteFile(path string) error {
	if err := ValidateReportStruct(r); err != nil {
		return fmt.Errorf("obs: refusing to write invalid report: %w", err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ValidateReport parses data as a Report and checks the schema; it is the
// contract the CI smoke step (and cmd/srdareport) holds report files to.
func ValidateReport(data []byte) (*Report, error) {
	var r Report
	if err := DecodeStrict(data, &r); err != nil {
		return nil, fmt.Errorf("obs: report is not valid JSON for the schema: %w", err)
	}
	if err := ValidateReportStruct(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// DecodeStrict decodes data into v as exactly one JSON document.  It is
// an error when
//   - a key is not spelled exactly as the JSON name of one of the
//     fields of the struct it falls in (encoding/json would match a
//     field of v by case-insensitive name);
//   - a key is repeated within one object (encoding/json keeps the last);
//   - anything but white space follows the document.
//
// null stays as encoding/json takes it.  ValidateReport, ValidateBench,
// ValidateFlightBundle and the SLO config and cluster snapshot
// validators decode through it.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON document")
	}
	return exactKeys(json.NewDecoder(bytes.NewReader(data)), reflect.TypeOf(v))
}

// exactKeys walks one value of a document encoding/json has decoded into
// type t and checks the keys of its objects; t is nil inside a value
// whose keys no struct names.  The documents' structs name their fields
// by tag or Go name; none embeds a struct or decodes an object itself.
func exactKeys(d *json.Decoder, t reflect.Type) error {
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	tok, err := d.Token()
	if err != nil {
		return err
	}
	switch tok {
	case json.Delim('['):
		var elem reflect.Type
		if t != nil && t.Kind() == reflect.Slice {
			elem = t.Elem()
		}
		for d.More() {
			if err := exactKeys(d, elem); err != nil {
				return err
			}
		}
	case json.Delim('{'):
		var fields map[string]reflect.Type
		if t != nil && t.Kind() == reflect.Struct {
			fields = jsonFields(t)
		}
		seen := map[string]bool{}
		for d.More() {
			tok, err := d.Token()
			if err != nil {
				return err
			}
			key := tok.(string)
			var elem reflect.Type
			switch {
			case fields != nil:
				ft, ok := fields[key]
				if !ok {
					return fmt.Errorf("json: key %q is not spelled as a field's name", key)
				}
				elem = ft
			case t != nil && t.Kind() == reflect.Map:
				elem = t.Elem()
			}
			if seen[key] {
				return fmt.Errorf("json: key %q repeated in one object", key)
			}
			seen[key] = true
			if err := exactKeys(d, elem); err != nil {
				return err
			}
		}
	default:
		return nil
	}
	_, err = d.Token()
	return err
}

// jsonFields returns the JSON names of t's fields and their types.
func jsonFields(t reflect.Type) map[string]reflect.Type {
	fields := map[string]reflect.Type{}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case !f.IsExported() || name == "-":
			continue
		case name == "":
			name = f.Name
		}
		fields[name] = f.Type
	}
	return fields
}

// ValidateReportStruct checks an in-memory report against the schema.
func ValidateReportStruct(r *Report) error {
	if r.Tool == "" {
		return fmt.Errorf("obs: report missing tool")
	}
	if len(r.Phases) == 0 {
		return fmt.Errorf("obs: report has no phases")
	}
	for i, p := range r.Phases {
		if p.Name == "" {
			return fmt.Errorf("obs: phase %d has no name", i)
		}
		if p.Seconds < 0 || math.IsNaN(p.Seconds) {
			return fmt.Errorf("obs: phase %q has invalid seconds %v", p.Name, p.Seconds)
		}
	}
	if r.TotalSeconds < 0 || math.IsNaN(r.TotalSeconds) {
		return fmt.Errorf("obs: invalid total_seconds %v", r.TotalSeconds)
	}
	if s := r.Solver; s != nil {
		if s.Strategy == "" {
			return fmt.Errorf("obs: solver stats missing strategy")
		}
		if len(s.Residuals) != len(s.IterCounts) {
			return fmt.Errorf("obs: solver stats: %d residuals for %d iteration counts",
				len(s.Residuals), len(s.IterCounts))
		}
		sum := 0
		for j, n := range s.IterCounts {
			if n < 0 {
				return fmt.Errorf("obs: solver stats: negative iteration count for response %d", j)
			}
			sum += n
		}
		if len(s.IterCounts) > 0 && sum != s.TotalIters {
			return fmt.Errorf("obs: solver stats: iter_counts sum to %d but total_iters is %d", sum, s.TotalIters)
		}
		for j, res := range s.Residuals {
			if res < 0 || math.IsNaN(res) {
				return fmt.Errorf("obs: solver stats: invalid residual %v for response %d", res, j)
			}
		}
	}
	return nil
}
