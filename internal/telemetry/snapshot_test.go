package telemetry

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// FuzzValidateClusterSnapshot holds the /cluster/snapshot validator, the
// edge srdareport top reads a router's reply through, to its contract
// on arbitrary bytes: it never panics, it returns a snapshot or an
// error but never both, an accepted document is exactly one JSON value
// carrying the cluster schema, and an accepted snapshot is a fixed
// point — re-encoding it validates to the same snapshot.
func FuzzValidateClusterSnapshot(f *testing.F) {
	f.Add([]byte(`{"schema":"srda-cluster/v1","time":"2026-08-08T12:00:15Z","replicas":[],"quantiles":[],"alerts":[],"series":0}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ValidateClusterSnapshot(data)
		if err != nil {
			if snap != nil {
				t.Fatalf("returned a snapshot together with error %v", err)
			}
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted a document that is not one JSON value: %q", data)
		}
		if snap.Schema != ClusterSchema {
			t.Fatalf("accepted schema %q", snap.Schema)
		}
		enc, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ValidateClusterSnapshot(enc)
		if err != nil {
			t.Fatalf("re-validating accepted snapshot %s: %v", enc, err)
		}
		if !reflect.DeepEqual(again, snap) {
			t.Fatalf("accepted snapshot is not a fixed point:\n%+v\n%+v", snap, again)
		}
	})
}

// TestValidateClusterSnapshotRefusals: a field the schema does not
// declare, at the top or inside a row, a key in the wrong case, a
// repeated key and anything after the document are refused; a wrong schema is a *SchemaError whose message quotes the
// tag it got with Go escaping.
func TestValidateClusterSnapshotRefusals(t *testing.T) {
	const valid = `{"schema":"srda-cluster/v1","replicas":[{"replica":"w0","up":true}],"quantiles":[],"alerts":[],"series":1}`
	if _, err := ValidateClusterSnapshot([]byte(valid)); err != nil {
		t.Fatalf("valid snapshot refused: %v", err)
	}
	for _, doc := range []string{
		`{"schema":"srda-cluster/v1","bogus":1}`,
		`{"schema":"srda-cluster/v1","replicas":[{"replica":"w0","extra":true}]}`,
		valid + ` {}`,
		valid + `x`,
	} {
		if snap, err := ValidateClusterSnapshot([]byte(doc)); err == nil {
			t.Errorf("%s: accepted as %+v", doc, snap)
		}
	}
	for _, tc := range []struct{ doc, want string }{
		{`{"SCHEMA":"srda-cluster/v1"}`, "is not spelled as a field's name"},
		{`{"schema":"wrong","schema":"srda-cluster/v1"}`, "repeated in one object"},
		{`{"schema":"srda-cluster/v1","replicas":[{"replica":"w0","Up":true}]}`, "is not spelled as a field's name"},
	} {
		if _, err := ValidateClusterSnapshot([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.doc, err, tc.want)
		}
	}
	_, err := ValidateClusterSnapshot([]byte(`{"schema":"srda-cluster/\"v9\"\n"}`))
	var se *SchemaError
	if !errors.As(err, &se) {
		t.Fatalf("wrong schema: err = %v, want a *SchemaError", err)
	}
	if want := `telemetry: cluster snapshot schema "srda-cluster/\"v9\"\n", want "srda-cluster/v1"`; err.Error() != want {
		t.Errorf("error = %s, want %s", err, want)
	}
}
