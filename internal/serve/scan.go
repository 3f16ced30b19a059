package serve

// This file is the predict/observe body scanner: one pass over the body
// bytes that fills the dispatcher's buffers directly, in place of an
// encoding/json decode into []Sample followed by a copy.  It takes a
// strict grammar, the JSON that json.Marshal writes for a PredictRequest
// or ObserveRequest:
//   - keys match exactly, and each appears at most once per object: at
//     the top level "samples", "model", "embed", "dense" and "sparse"
//     (observe: "samples" only); in a sample "dense" and "sparse"
//     (observe: and "label").  Any other key is refused;
//   - null is refused wherever it appears, and so is a value of the
//     wrong type, at its first byte;
//   - only whitespace may follow the top-level object.
//
// Each refusal is a RequestError naming the byte offset.  A body it
// accepts decodes under encoding/json to the same values.  Each number is
// walked once: number checks JSON's grammar and folds the digits, eight
// bytes per step, into a decimal mantissa and exponent, which value
// converts exactly (Clinger's fast path, else Eisel–Lemire), so every
// float is bitwise the one strconv.ParseFloat gives encoding/json.
// strconv.ParseFloat stays the fallback for the tokens value declines
// (more than 19 significant digits, an exponent outside pow10Tab, a
// halfway case, overflow, subnormals), and strconv.ParseInt parses
// labels and sparse keys as in encoding/json.  The differential fuzz
// targets in scan_test.go, held to the strict reference in
// internal/jsonref, and TestFloatMatchesStrconv hold it to that.
//
// PeekPredict, at the end of the file, is the router's read of a predict
// body.  It walks only the top level with this grammar and skips every
// sample, "dense" and "sparse" value by its brackets, eight bytes per
// step, so the body scanner on the worker stays the one validator of
// what lies inside.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"unsafe"
)

// maxArenaHint caps the values an arena is first sized for; a larger
// body grows it by append, and an arena grown past it is not pooled.
const maxArenaHint = 1 << 17

// rawSample is one sample as a body or a typed request left it.  Sparse
// entries are in arrival order; checkSample sorts them by column.
type rawSample struct {
	dense []float64
	cols  []int
	vals  []float64
	label int
}

// scannedBody is a decoded predict or observe body.
type scannedBody struct {
	model string
	embed bool
	top   rawSample   // the single-sample shorthand {"dense": …} / {"sparse": …}
	recs  []rawSample // the "samples" elements
}

// The keys the grammar knows, one bit each, so the keys an object has
// shown fit in one int.
const (
	keySamples = 1 << iota
	keyModel
	keyEmbed
	keyDense
	keySparse
	keyLabel

	predictKeys = keySamples | keyModel | keyEmbed | keyDense | keySparse
)

// keyBit returns the bit of a key the grammar knows, 0 for any other.
func keyBit(key []byte) int {
	switch string(key) {
	case "samples":
		return keySamples
	case "model":
		return keyModel
	case "embed":
		return keyEmbed
	case "dense":
		return keyDense
	case "sparse":
		return keySparse
	case "label":
		return keyLabel
	}
	return 0
}

// jsonScanner is the grammar shared by the body scanner and PeekPredict:
// whitespace, strings, numbers, literals and objects of known keys.
type jsonScanner struct {
	b   []byte
	pos int
}

func (s *jsonScanner) syntaxErr(what string) error {
	if s.pos >= len(s.b) {
		return &RequestError{Msg: fmt.Sprintf("bad JSON: unexpected end of input at offset %d", s.pos)}
	}
	return &RequestError{Msg: fmt.Sprintf("bad JSON: invalid character %q %s at offset %d", s.b[s.pos], what, s.pos)}
}

func (s *jsonScanner) typeErr(what string) error {
	return &RequestError{Msg: fmt.Sprintf("bad JSON: cannot decode %s at offset %d", what, s.pos)}
}

// badValue refuses the value at pos, null or not the kind that name
// takes, at its first byte.
func (s *jsonScanner) badValue(name, kind string) error {
	switch {
	case s.pos >= len(s.b):
		return s.syntaxErr("")
	case bytes.HasPrefix(s.b[s.pos:], []byte("null")):
		return &RequestError{Msg: fmt.Sprintf("bad JSON: %s is null at offset %d", name, s.pos)}
	}
	return &RequestError{Msg: fmt.Sprintf("bad JSON: %s is not %s at offset %d", name, kind, s.pos)}
}

// ws skips JSON whitespace and returns the next byte (0 at the end).
func (s *jsonScanner) ws() byte {
	for s.pos < len(s.b) {
		switch c := s.b[s.pos]; c {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return c
		}
	}
	return 0
}

// next consumes the ',' or closing byte after a container element and
// reports whether the container continues.
func (s *jsonScanner) next(closing byte) (bool, error) {
	switch s.ws() {
	case ',':
		s.pos++
		return true, nil
	case closing:
		s.pos++
		return false, nil
	}
	return false, s.syntaxErr("after element")
}

// empty consumes the closing byte of a container opened just before and
// reports whether it was there.
func (s *jsonScanner) empty(closing byte) bool {
	if s.ws() == closing {
		s.pos++
		return true
	}
	return false
}

// literal consumes true or false.
func (s *jsonScanner) literal(word string) error {
	if len(s.b)-s.pos < len(word) || string(s.b[s.pos:s.pos+len(word)]) != word {
		for i := 0; i < len(word) && s.pos < len(s.b) && s.b[s.pos] == word[i]; i++ {
			s.pos++
		}
		return s.syntaxErr("in literal")
	}
	s.pos += len(word)
	return nil
}

// str consumes a string token and returns its contents between the
// quotes; plain reports that it holds no escape and no non-ASCII byte,
// so the contents are the decoded value.
func (s *jsonScanner) str() (raw []byte, plain bool, err error) {
	start := s.pos + 1
	plain = true
	for i := start; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			s.pos = i + 1
			return s.b[start:i], plain, nil
		case c == '\\':
			plain = false
			i++
			if i >= len(s.b) {
				s.pos = i
				return nil, false, s.syntaxErr("")
			}
			switch s.b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					i++
					if i >= len(s.b) || !isHex(s.b[i]) {
						s.pos = i
						return nil, false, s.syntaxErr("in \\u escape")
					}
				}
			default:
				s.pos = i
				return nil, false, s.syntaxErr("in string escape")
			}
		case c < 0x20:
			s.pos = i
			return nil, false, s.syntaxErr("in string literal")
		case c >= 0x80:
			plain = false
		}
	}
	s.pos = len(s.b)
	return nil, false, s.syntaxErr("")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// decodeStr returns a string token's value as encoding/json decodes it
// (escapes resolved, invalid UTF-8 replaced), given str's results.  Only
// strings with escapes or non-ASCII bytes take the slow path.
func (s *jsonScanner) decodeStr(raw []byte, plain bool) ([]byte, error) {
	if plain {
		return raw, nil
	}
	// The quoted token ends at pos.
	var v string
	if err := json.Unmarshal(s.b[s.pos-len(raw)-2:s.pos], &v); err != nil {
		return nil, &RequestError{Msg: "bad JSON: " + err.Error()}
	}
	return []byte(v), nil
}

// decimal is a number token's value as number reads it:
// ±mant × 10^exp10 when long is false.
type decimal struct {
	mant  uint64
	exp10 int
	neg   bool
	long  bool // more than 19 significant digits: mant may have wrapped
}

// number consumes a number token in JSON's grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which is narrower
// than what strconv accepts, and returns its decimal value.  The token
// is s.b from the starting pos to the new one.
func (s *jsonScanner) number() (decimal, error) {
	var d decimal
	b, i := s.b, s.pos
	if i < len(b) && b[i] == '-' {
		d.neg = true
		i++
	}
	nd := 0 // significant digits folded into mant
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		start := i
		d.mant, i = digits(b, i, 0)
		nd = i - start
	default:
		s.pos = i
		return d, s.syntaxErr("in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		d.mant, i = digits(b, i, d.mant)
		if i == frac {
			s.pos = i
			return d, s.syntaxErr("after decimal point in numeric literal")
		}
		d.exp10 = frac - i
		if nd == 0 && i-frac > 19 { // 0.000ddd: the zeros fold to nothing
			for frac < i && b[frac] == '0' {
				frac++
			}
		}
		nd += i - frac
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		start, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 1<<20 { // far outside pow10Tab either way
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == start {
			s.pos = i
			return d, s.syntaxErr("in exponent of numeric literal")
		}
		if eneg {
			e = -e
		}
		d.exp10 += e
	}
	d.long = nd > 19
	s.pos = i
	return d, nil
}

// digits folds the run of ASCII digits at b[i:] into m, eight bytes at
// a time while eight remain, and returns m and the end of the run.  Past
// 19 digits m wraps; number marks such values long.
func digits(b []byte, i int, m uint64) (uint64, int) {
	for i+8 <= len(b) {
		v := binary.LittleEndian.Uint64(b[i:])
		x := nonDigits(v)
		if x == 0 {
			m = m*100000000 + eightDigitsValue(v)
			i += 8
			continue
		}
		// The run ends inside v: fold its first n bytes, shifted to the
		// top and padded below with '0's (all '0's when n is 0, as a
		// shift by 64 leaves nothing).
		n := bits.TrailingZeros64(x) / 8
		v = v<<(64-8*n) | 0x3030303030303030>>(8*n)
		return m*pow10u[n&7] + eightDigitsValue(v), i + n
	}
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	return m, i
}

// pow10u holds 10^n for the partial words digits folds.
var pow10u = [8]uint64{1, 10, 100, 1000, 10000, 100000, 1000000, 10000000}

// nonDigits is nonzero in the byte of v (loaded little-endian) where the
// first non-digit sits and zero in every byte before it: a digit's high
// nibble is 3, and still 3 after adding 6.  Bytes past the first
// non-digit may be blurred by a carry.
func nonDigits(v uint64) uint64 {
	return ((v & 0xF0F0F0F0F0F0F0F0) | ((v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4) ^ 0x3333333333333333
}

// eightDigitsValue is the value of eight ASCII digits loaded
// little-endian (the first digit in the low byte): adjacent digits pair
// into bytes, pairs into 16-bit lanes, and one multiply per half joins
// the lanes.
func eightDigitsValue(v uint64) uint64 {
	const mask = 0x000000FF000000FF
	v -= 0x3030303030303030
	v = v*10 + v>>8
	return ((v&mask)*(100+1000000<<32) + (v>>16&mask)*(1+10000<<32)) >> 32
}

// tokString views a token as a string without copying; strconv does not
// retain its argument (its errors carry a copy).
func tokString(tok []byte) string {
	return unsafe.String(unsafe.SliceData(tok), len(tok))
}

// float parses a number token as encoding/json does for a float64 field:
// out-of-range values are a decode error, not ±Inf.  The value is
// bitwise strconv.ParseFloat's; strconv itself parses only the tokens
// value cannot convert.
func (s *jsonScanner) float() (float64, error) {
	start := s.pos
	d, err := s.number()
	if err != nil {
		return 0, err
	}
	if v, ok := d.value(); ok {
		return v, nil
	}
	tok := s.b[start:s.pos]
	v, err := strconv.ParseFloat(tokString(tok), 64)
	if err != nil {
		return 0, s.typeErr("number " + string(tok) + " into a float64")
	}
	return v, nil
}

// pow10f holds the powers of ten float64 represents exactly.
var pow10f = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// value converts d to the nearest float64, ties to even, and reports
// whether it could.  Clinger's fast path takes a mantissa and a power of
// ten that are both exact in float64, so one IEEE multiply or divide
// rounds correctly; everything else within pow10Tab goes to
// Eisel–Lemire.  It declines long mantissas, results that overflow or
// fall below the normal range, and the rare products too close to a
// halfway point to round from 128 bits.
func (d decimal) value() (float64, bool) {
	if d.long {
		return 0, false
	}
	if d.mant < 1<<53 && -22 <= d.exp10 && d.exp10 <= 22 {
		f := float64(d.mant)
		if d.exp10 < 0 {
			f /= pow10f[-d.exp10]
		} else {
			f *= pow10f[d.exp10]
		}
		if d.neg {
			f = -f
		}
		return f, true
	}
	return eiselLemire(d.mant, d.exp10, d.neg)
}

// eiselLemire is the Eisel–Lemire conversion (Lemire, "Number Parsing at
// a Gigabyte per Second", arXiv:2101.11408), following strconv's
// eiselLemire64: multiply the normalized mantissa by a 128-bit
// truncation of 10^exp10, and take the rounded 53-bit result when the
// discarded bits prove the truncation could not change it.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow := &pow10Tab[exp10-pow10Min]
	// Normalize the mantissa; 217706/2^16 approximates log2(10).
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	hi, lo := bits.Mul64(man, pow[0])
	// When the low 9 bits of hi are all ones, a carry from the truncated
	// part of 10^exp10 could reach the result: widen to 192 bits.
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, pow[1])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}
	// Keep 54 bits, then round to 53; an exact halfway case is left to
	// strconv, which can see every digit.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// exp2 of 0 (or wrapped below it) is subnormal; 0x7FF and up is
	// infinite.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	fb := exp2<<52 | mant&(1<<52-1)
	if neg {
		fb |= 1 << 63
	}
	return math.Float64frombits(fb), true
}

// int parses a number token as encoding/json does for an int field.
func (s *jsonScanner) int() (int, error) {
	start := s.pos
	if _, err := s.number(); err != nil {
		return 0, err
	}
	tok := s.b[start:s.pos]
	v, err := strconv.ParseInt(tokString(tok), 10, strconv.IntSize)
	if err != nil {
		return 0, s.typeErr("number " + string(tok) + " into an int")
	}
	return int(v), nil
}

// isNumber reports whether c can start a number.
func isNumber(c byte) bool { return c == '-' || '0' <= c && c <= '9' }

// key consumes an object key and its colon and returns the decoded key.
func (s *jsonScanner) key() ([]byte, error) {
	if s.ws() != '"' {
		return nil, s.syntaxErr("looking for beginning of object key string")
	}
	raw, plain, err := s.str()
	if err != nil {
		return nil, err
	}
	key, err := s.decodeStr(raw, plain)
	if err != nil {
		return nil, err
	}
	if s.ws() != ':' {
		return nil, s.syntaxErr("after object key")
	}
	s.pos++
	return key, nil
}

// object consumes an object whose '{' is next and hands each member's
// value to value with its key's bit.  A key outside allowed, or one the
// object already showed, is refused at its offset.
func (s *jsonScanner) object(allowed int, value func(key int) error) error {
	s.pos++
	if s.empty('}') {
		return nil
	}
	seen := 0
	for {
		s.ws()
		at := s.pos
		key, err := s.key()
		if err != nil {
			return err
		}
		k := keyBit(key) & allowed
		switch {
		case k == 0:
			return &RequestError{Msg: fmt.Sprintf("bad JSON: unknown key %q at offset %d", key, at)}
		case seen&k != 0:
			return &RequestError{Msg: fmt.Sprintf("bad JSON: repeated key %q at offset %d", key, at)}
		}
		seen |= k
		if err := value(k); err != nil {
			return err
		}
		if more, err := s.next('}'); !more {
			return err
		}
	}
}

// body consumes a whole body: one object, walked by object, and nothing
// after it but whitespace.
func (s *jsonScanner) body(allowed int, value func(key int) error) error {
	if s.ws() != '{' {
		if s.pos == len(s.b) {
			return &RequestError{Msg: "bad JSON: empty body"}
		}
		return s.badValue("the body", "a JSON object")
	}
	if err := s.object(allowed, value); err != nil {
		return err
	}
	if s.ws(); s.pos < len(s.b) {
		return &RequestError{Msg: fmt.Sprintf("bad JSON: text after the top-level object at offset %d", s.pos)}
	}
	return nil
}

// model consumes a "model" value, a string.
func (s *jsonScanner) model() (string, error) {
	if s.ws() != '"' {
		return "", s.badValue("model", "a string")
	}
	raw, plain, err := s.str()
	if err != nil {
		return "", err
	}
	v, err := s.decodeStr(raw, plain)
	return string(v), err
}

// embed consumes an "embed" value, true or false.
func (s *jsonScanner) embed() (bool, error) {
	switch s.ws() {
	case 't':
		return true, s.literal("true")
	case 'f':
		return false, s.literal("false")
	}
	return false, s.badValue("embed", "true or false")
}

// bodyScanner decodes predict and observe bodies.  Dense values and
// sparse entries land in shared arenas; each sample's slices view its
// own run of them.  Scanners and their arenas are pooled: a body reuses
// the buffers an answered one left rather than allocating and zeroing
// its own.
type bodyScanner struct {
	jsonScanner
	observe    bool // ObserveRequest: labels, and no model/embed/shorthand
	maxSamples int  // a longer "samples" array is rejected
	arenaHint  int  // initial arena capacity

	dense []float64 // arena of dense values
	cols  []int     // arena of sparse columns
	vals  []float64 // arena of sparse values
	out   scannedBody
}

var scanners = sync.Pool{New: func() any { return new(bodyScanner) }}

// scanPredict decodes a POST /v1/predict body into a pooled scanner's
// out.  The scanner comes back on error too; release it once nothing
// reads the values, which view its arenas.
func scanPredict(body []byte, maxSamples int) (*bodyScanner, error) {
	s := getScanner(body, maxSamples, false)
	return s, s.scan()
}

// scanObserve decodes a POST /v1/observe body, as scanPredict does.
func scanObserve(body []byte, maxSamples int) (*bodyScanner, error) {
	s := getScanner(body, maxSamples, true)
	return s, s.scan()
}

// getScanner takes a scanner from the pool and readies it for body; its
// arenas keep their capacity.
func getScanner(body []byte, maxSamples int, observe bool) *bodyScanner {
	s := scanners.Get().(*bodyScanner)
	*s = bodyScanner{
		jsonScanner: jsonScanner{b: body},
		observe:     observe,
		maxSamples:  maxSamples,
		dense:       s.dense[:0],
		cols:        s.cols[:0],
		vals:        s.vals[:0],
		out:         scannedBody{recs: s.out.recs[:0]},
	}
	return s
}

// release returns s to the pool; nil is a no-op.  Every value the scan
// left views s's arenas, so the caller must be done with them: for a
// predict body, its batch has answered.
func (s *bodyScanner) release() {
	if s == nil {
		return
	}
	clear(s.out.recs)
	if cap(s.dense) > maxArenaHint || cap(s.cols) > maxArenaHint {
		s.dense, s.cols, s.vals = nil, nil, nil
	}
	s.b = nil
	scanners.Put(s)
}

// arena returns a, or a fresh slice of capacity hint when a is empty and
// smaller.
func arena[T any](a []T, hint int) []T {
	if len(a) == 0 && cap(a) < hint {
		return make([]T, 0, hint)
	}
	return a
}

func (s *bodyScanner) scan() error {
	// Every number but the last in an array is followed by a comma, so
	// the comma count bounds the values of any one kind; the cap keeps
	// a comma-heavy body from sizing a large arena.
	s.arenaHint = min(bytes.Count(s.b, []byte{','})+1, maxArenaHint)
	allowed := predictKeys
	if s.observe {
		allowed = keySamples
	}
	return s.body(allowed, func(k int) (err error) {
		switch k {
		case keySamples:
			return s.samplesArray()
		case keyModel:
			s.out.model, err = s.model()
		case keyEmbed:
			s.out.embed, err = s.embed()
		default:
			err = s.sampleField(&s.out.top, k)
		}
		return err
	})
}

// samplesArray decodes "samples" into out.recs.
func (s *bodyScanner) samplesArray() error {
	if s.ws() != '[' {
		return s.badValue("samples", "an array")
	}
	s.pos++
	if s.empty(']') {
		return nil
	}
	for {
		if len(s.out.recs) == s.maxSamples {
			return badRequestf("more than %d samples exceeds the per-request cap", s.maxSamples)
		}
		s.out.recs = append(s.out.recs, rawSample{})
		if err := s.sampleObject(&s.out.recs[len(s.out.recs)-1]); err != nil {
			return err
		}
		if more, err := s.next(']'); !more {
			return err
		}
	}
}

// sampleObject decodes one "samples" element into rec.
func (s *bodyScanner) sampleObject(rec *rawSample) error {
	if s.ws() != '{' {
		return s.badValue("sample", "an object")
	}
	allowed := keyDense | keySparse
	if s.observe {
		allowed |= keyLabel
	}
	return s.object(allowed, func(k int) error {
		if k == keyLabel {
			return s.label(rec)
		}
		return s.sampleField(rec, k)
	})
}

// sampleField decodes the "dense" or "sparse" value into rec.
func (s *bodyScanner) sampleField(rec *rawSample, k int) error {
	if k == keyDense {
		return s.denseArray(rec)
	}
	return s.sparseObject(rec)
}

func (s *bodyScanner) label(rec *rawSample) (err error) {
	if !isNumber(s.ws()) {
		return s.badValue("label", "a number")
	}
	rec.label, err = s.int()
	return err
}

// denseArray decodes a "dense" value into rec.dense, which views the
// values in the arena.
func (s *bodyScanner) denseArray(rec *rawSample) error {
	if s.ws() != '[' {
		return s.badValue("dense", "an array")
	}
	s.pos++
	s.dense = arena(s.dense, s.arenaHint)
	start := len(s.dense)
	if !s.empty(']') {
		for {
			if !isNumber(s.ws()) {
				return s.badValue("dense element", "a number")
			}
			v, err := s.float()
			if err != nil {
				return err
			}
			s.dense = append(s.dense, v)
			more, err := s.next(']')
			if err != nil {
				return err
			}
			if !more {
				break
			}
		}
	}
	if end := len(s.dense); end > start {
		rec.dense = s.dense[start:end:end]
	}
	return nil
}

// sparseObject decodes a "sparse" value into rec's entries, which view
// the arenas.
func (s *bodyScanner) sparseObject(rec *rawSample) error {
	if s.ws() != '{' {
		return s.badValue("sparse", "an object")
	}
	s.pos++
	s.cols = arena(s.cols, s.arenaHint)
	s.vals = arena(s.vals, s.arenaHint)
	start := len(s.cols)
	if !s.empty('}') {
		for {
			key, err := s.key()
			if err != nil {
				return err
			}
			col, perr := strconv.ParseInt(tokString(key), 10, strconv.IntSize)
			if perr != nil {
				return s.typeErr(fmt.Sprintf("sparse key %q into an int", key))
			}
			if !isNumber(s.ws()) {
				return s.badValue("sparse value", "a number")
			}
			v, err := s.float()
			if err != nil {
				return err
			}
			s.cols = append(s.cols, int(col))
			s.vals = append(s.vals, v)
			more, err := s.next('}')
			if err != nil {
				return err
			}
			if !more {
				break
			}
		}
	}
	if end := len(s.cols); end > start {
		rec.cols = s.cols[start:end:end]
		rec.vals = s.vals[start:end:end]
	}
	return nil
}

// sortSparse orders a sample's sparse entries by column, in place.
func sortSparse(cols []int, vals []float64) {
	for t := 1; t < len(cols); t++ {
		if cols[t] <= cols[t-1] {
			sort.Sort(byCol{cols, vals})
			return
		}
	}
}

type byCol struct {
	cols []int
	vals []float64
}

func (b byCol) Len() int           { return len(b.cols) }
func (b byCol) Less(i, j int) bool { return b.cols[i] < b.cols[j] }
func (b byCol) Swap(i, j int) {
	b.cols[i], b.cols[j] = b.cols[j], b.cols[i]
	b.vals[i], b.vals[j] = b.vals[j], b.vals[i]
}

// PeekPredict returns the top-level "model" of a predict body and the
// number of samples a 200 reply must answer, without decoding any
// sample.  The router calls it to pick the tenant and forwards the body
// unchanged.  It walks the top level with the full grammar: the known
// keys, each once, the colons and commas, the "model" string, the
// "embed" literal, and each "samples" element in turn, and nothing but
// whitespace after the object.  Each sample, "dense" and "sparse" value
// it checks at its first byte and then skips by its brackets alone
// (skipFast), so a body malformed only inside such a value passes here
// and the worker's scan refuses it.  Every body the strict grammar
// accepts, PeekPredict accepts with the same model and count.
func PeekPredict(body []byte) (model string, samples int, err error) {
	s := &jsonScanner{b: body}
	err = s.body(predictKeys, func(k int) (err error) {
		switch k {
		case keyModel:
			model, err = s.model()
		case keySamples:
			samples, err = s.countArray()
		case keyEmbed:
			_, err = s.embed()
		case keyDense:
			err = s.skipFast('[', "dense", "an array")
		default:
			err = s.skipFast('{', "sparse", "an object")
		}
		return err
	})
	if err != nil {
		return "", 0, err
	}
	// An empty samples list leaves the single-sample shorthand.
	return model, max(samples, 1), nil
}

// countArray skips a "samples" array and returns its element count.
func (s *jsonScanner) countArray() (int, error) {
	if s.ws() != '[' {
		return 0, s.badValue("samples", "an array")
	}
	s.pos++
	if s.empty(']') {
		return 0, nil
	}
	for n := 1; ; n++ {
		if err := s.skipFast('{', "sample", "an object"); err != nil {
			return 0, err
		}
		if more, err := s.next(']'); !more {
			return n, err
		}
	}
}

// skipFast consumes one object or array, whose first byte must be first
// (else the value is refused as badValue names it).  It skips the value
// by its brackets, the first stage of simdjson (Langdale & Lemire,
// "Parsing Gigabytes of JSON per Second", arXiv:1902.08318): it finds
// the next '"', '[', ']', '{' or '}' eight bytes per step, hands each
// string to str, so escapes and control bytes are judged exactly, and
// counts the brackets down to zero.  Numbers, literals, commas and
// colons between them are never looked at, and a ']' may close a '{'.
// On valid JSON it ends where the value ends; it rejects only a bad
// string or a body that ends first.
func (s *jsonScanner) skipFast(first byte, name, kind string) error {
	if s.ws() != first {
		return s.badValue(name, kind)
	}
	b, i, open := s.b, s.pos, 0
	for {
		for i+8 <= len(b) {
			if m := structural(binary.LittleEndian.Uint64(b[i:])); m != 0 {
				i += bits.TrailingZeros64(m) / 8
				break
			}
			i += 8
		}
		for i < len(b) && !isStructural[b[i]] {
			i++
		}
		if i == len(b) {
			s.pos = i
			return s.syntaxErr("")
		}
		switch b[i] {
		case '"':
			s.pos = i
			if _, _, err := s.str(); err != nil {
				return err
			}
			i = s.pos
		case '[', '{':
			open++
			i++
		default:
			open--
			i++
			if open == 0 {
				s.pos = i
				return nil
			}
		}
	}
}

// structural is nonzero in the byte of v (loaded little-endian) where
// the first '"', '[', ']', '{' or '}' sits and zero in every byte before
// it.  Clearing bit 5 folds '{' onto '[' and '}' onto ']'; each target
// shows as a zero byte of v^target, found by the borrow of subtracting
// one from every byte (bytes past the first zero may be blurred by it).
func structural(v uint64) uint64 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	f := v &^ (0x20 * ones)
	q, o, c := v^('"'*ones), f^('['*ones), f^(']'*ones)
	return ((q-ones)&^q | (o-ones)&^o | (c-ones)&^c) & highs
}

// isStructural marks the bytes structural finds, for the tail shorter
// than a word.
var isStructural = [256]bool{'"': true, '[': true, ']': true, '{': true, '}': true}
