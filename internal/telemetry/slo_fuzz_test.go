package telemetry

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzValidateSLOConfig holds the SLO config validator to its edge
// contract on arbitrary bytes: it never panics, it returns a config or
// an error but never both, an accepted document is exactly one JSON
// value, and an accepted config is a fixed point — re-encoding it (with
// its defaults filled in) validates to the same config.  Objective and
// window names must be unique, since alerts are keyed by the pair.
func FuzzValidateSLOConfig(f *testing.F) {
	f.Add([]byte(validConfig()))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := ValidateSLOConfig(data)
		if err != nil {
			if cfg != nil {
				t.Fatalf("returned a config together with error %v", err)
			}
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted a document that is not one JSON value: %q", data)
		}
		for _, names := range [][]string{objectiveNames(cfg), windowNames(cfg)} {
			seen := map[string]bool{}
			for _, n := range names {
				if seen[n] {
					t.Fatalf("accepted duplicate name %q", n)
				}
				seen[n] = true
			}
		}
		enc, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ValidateSLOConfig(enc)
		if err != nil {
			t.Fatalf("re-validating accepted config %s: %v", enc, err)
		}
		if !reflect.DeepEqual(again, cfg) {
			t.Fatalf("accepted config is not a fixed point:\n%+v\n%+v", cfg, again)
		}
	})
}

func objectiveNames(cfg *SLOConfig) []string {
	var out []string
	for _, o := range cfg.Objectives {
		out = append(out, o.Name)
	}
	return out
}

func windowNames(cfg *SLOConfig) []string {
	var out []string
	for _, w := range cfg.Windows {
		out = append(out, w.Name)
	}
	return out
}
