// Package jsonref is the strict reference the request-body fuzz targets
// hold the serving tier to.  encoding/json stays the oracle for values;
// jsonref adds the rules of the strict body grammar on top of it, with a
// walk over json.Decoder.Token that knows the target type.  Only tests
// import it.
package jsonref

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
)

// RepeatError reports a key repeated within one object.  Depth is 0 for
// the top-level object.
type RepeatError struct {
	Key   string
	Depth int
}

func (e *RepeatError) Error() string {
	return fmt.Sprintf("jsonref: key %q repeated at depth %d", e.Key, e.Depth)
}

// Decode decodes b into v, a pointer to a struct, when the strict
// grammar accepts b, and otherwise returns the first rule b breaks.  A
// body is accepted iff the walk finds
//   - every key of a struct spelled exactly as one of its fields' JSON
//     names;
//   - no key repeated within an object, a map's keys compared by the
//     value they decode to (so "1" and "01" repeat a map[int] key);
//   - no null;
//
// and encoding/json decodes it with DisallowUnknownFields, with nothing
// but whitespace after the value.
func Decode(b []byte, v any) error {
	if err := walk(json.NewDecoder(bytes.NewReader(b)), reflect.TypeOf(v).Elem(), 0); err != nil {
		return err
	}
	d := json.NewDecoder(bytes.NewReader(b))
	d.DisallowUnknownFields()
	if err := d.Decode(v); err != nil {
		return err
	}
	if _, err := d.Token(); err != io.EOF {
		return errors.New("jsonref: text after the value")
	}
	return nil
}

// walk consumes one value whose Go type is t (nil where the body has
// already left the type behind) and checks it against the key and null
// rules.
func walk(d *json.Decoder, t reflect.Type, depth int) error {
	tok, err := d.Token()
	if err != nil {
		return err
	}
	switch tok {
	case nil:
		return errors.New("jsonref: null")
	case json.Delim('['):
		var elem reflect.Type
		if t != nil && t.Kind() == reflect.Slice {
			elem = t.Elem()
		}
		for d.More() {
			if err := walk(d, elem, depth+1); err != nil {
				return err
			}
		}
		_, err = d.Token()
		return err
	case json.Delim('{'):
		var fields map[string]reflect.Type
		if t != nil && t.Kind() == reflect.Struct {
			fields = map[string]reflect.Type{}
			addFields(fields, t)
		}
		seen := map[any]bool{}
		for d.More() {
			tok, err := d.Token()
			if err != nil {
				return err
			}
			key := tok.(string)
			var id any = key
			var elem reflect.Type
			switch {
			case fields != nil:
				ft, ok := fields[key]
				if !ok {
					return fmt.Errorf("jsonref: no field named exactly %q", key)
				}
				elem = ft
			case t != nil && t.Kind() == reflect.Map:
				elem = t.Elem()
				if n, err := strconv.ParseInt(key, 10, 64); err == nil && t.Key().Kind() == reflect.Int {
					id = n
				}
			}
			if seen[id] {
				return &RepeatError{Key: key, Depth: depth}
			}
			seen[id] = true
			if err := walk(d, elem, depth+1); err != nil {
				return err
			}
		}
		_, err = d.Token()
		return err
	}
	return nil
}

// addFields adds the JSON names of t's fields to fields, those of an
// embedded struct included, as encoding/json promotes them.  Every other
// field of the request types carries a json tag.
func addFields(fields map[string]reflect.Type, t reflect.Type) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			addFields(fields, f.Type)
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		fields[name] = f.Type
	}
}
