package serve

// This file is the predict/observe body scanner: one pass over the body
// bytes that fills the dispatcher's buffers directly, in place of an
// encoding/json decode into []Sample followed by a copy.  It accepts and
// rejects exactly the bodies json.NewDecoder(r).Decode accepts and
// rejects for PredictRequest and ObserveRequest, and it leaves the same
// values.  Each number is walked once: number checks JSON's grammar and
// folds the digits, eight bytes per step, into a decimal mantissa and
// exponent, which value converts exactly (Clinger's fast path, else
// Eisel–Lemire), so every float is bitwise the one strconv.ParseFloat
// gives encoding/json.  strconv.ParseFloat stays the fallback for the
// tokens value declines (more than 19 significant digits, an exponent
// outside pow10Tab, a halfway case, overflow, subnormals), and
// strconv.ParseInt parses labels and sparse keys as in encoding/json.
// The differential fuzz targets in scan_test.go and
// TestFloatMatchesStrconv hold it to that.
//
// PeekPredict, at the end of the file, is the router's read of a predict
// body.  It walks only the top level with this grammar and skips every
// object or array value by its brackets, eight bytes per step, so the
// body scanner on the worker stays the one validator of what lies inside.
//
// The encoding/json semantics it reproduces, beyond the grammar:
//   - keys match struct fields case-insensitively (Unicode simple
//     folding); unknown keys are skipped;
//   - a duplicate key decodes into what the earlier one left: a later
//     "dense" array overwrites in place and null elements keep the old
//     value, a later "sparse" object merges into the map (a later write
//     to a column wins), and a later "samples" array decodes into the
//     earlier elements, including ones a shorter array cut off;
//   - null leaves strings, bools, ints and sample objects unchanged,
//     resets slices and maps, and is 0 as a float element or map value;
//   - text after the first top-level value is ignored.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// maxNestingDepth is encoding/json's nesting limit; deeper bodies are
// rejected by both decoders.
const maxNestingDepth = 10000

// maxArenaHint caps the values an arena is first sized for; a larger
// body grows it by append, and an arena grown past it is not pooled.
const maxArenaHint = 1 << 17

// rawSample is one sample as a body or a typed request left it.  Sparse
// entries are writes in arrival order; a later write to a column wins
// (sortSparse resolves them).
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
	recs  []rawSample // every "samples" element decoded since the slice was last reset
	live  int         // len(req.Samples): recs[:live] are the request's samples
}

// samples returns the request's samples, resolving the single-sample
// shorthand as buildPending does for a typed request.
func (b *scannedBody) samples() []rawSample {
	if b.live == 0 && (len(b.top.dense) > 0 || len(b.top.cols) > 0) {
		return []rawSample{b.top}
	}
	return b.recs[:b.live]
}

// jsonScanner is the grammar shared by the body scanner and PeekPredict:
// whitespace, strings, numbers, literals and skipping whole values, with
// encoding/json's syntax rules and nesting limit.
type jsonScanner struct {
	b     []byte
	pos   int
	depth int
}

func (s *jsonScanner) syntaxErr(what string) error {
	if s.pos >= len(s.b) {
		return &RequestError{Msg: "bad JSON: unexpected end of input"}
	}
	return &RequestError{Msg: fmt.Sprintf("bad JSON: invalid character %q %s at offset %d", s.b[s.pos], what, s.pos)}
}

func (s *jsonScanner) typeErr(what string) error {
	return &RequestError{Msg: fmt.Sprintf("bad JSON: cannot decode %s at offset %d", what, s.pos)}
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

func (s *jsonScanner) enter() error {
	s.pos++
	s.depth++
	if s.depth > maxNestingDepth {
		return &RequestError{Msg: "bad JSON: exceeded max nesting depth"}
	}
	return nil
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
		s.depth--
		return false, nil
	}
	return false, s.syntaxErr("after element")
}

// empty consumes the closing byte of a container opened just before and
// reports whether it was there.
func (s *jsonScanner) empty(closing byte) bool {
	if s.ws() == closing {
		s.pos++
		s.depth--
		return true
	}
	return false
}

// literal consumes one of true, false, null.
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
		case c >= utf8.RuneSelf:
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

// skip consumes one value of any type, checking its syntax.
func (s *jsonScanner) skip() error {
	switch c := s.ws(); {
	case c == '-' || '0' <= c && c <= '9':
		_, err := s.number()
		return err
	case c == '{':
		if err := s.enter(); err != nil {
			return err
		}
		if s.empty('}') {
			return nil
		}
		for {
			if _, err := s.key(); err != nil {
				return err
			}
			if err := s.skip(); err != nil {
				return err
			}
			if more, err := s.next('}'); !more {
				return err
			}
		}
	case c == '[':
		if err := s.enter(); err != nil {
			return err
		}
		if s.empty(']') {
			return nil
		}
		for {
			if err := s.skip(); err != nil {
				return err
			}
			if more, err := s.next(']'); !more {
				return err
			}
		}
	case c == '"':
		_, _, err := s.str()
		return err
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	default:
		_, err := s.number() // no value starts with c: the grammar error
		return err
	}
}

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

// isNull consumes a null literal if one comes next.
func (s *jsonScanner) isNull() (bool, error) {
	if s.ws() != 'n' {
		return false, nil
	}
	return true, s.literal("null")
}

// fieldIs matches a decoded key against a lower-case ASCII field name
// the way encoding/json matches struct fields: exactly, or equal under
// Unicode simple case folding.
func fieldIs(key []byte, name string) bool {
	i := 0
	for _, want := range []byte(name) {
		if i >= len(key) {
			return false
		}
		if c := key[i]; c < utf8.RuneSelf {
			if c != want && c != want-('a'-'A') {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		if foldRune(r) != foldRune(rune(want)) {
			return false
		}
		i += n
	}
	return i == len(key)
}

// foldRune is encoding/json's fold: the smallest rune of r's fold set.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
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
	nulls []int     // positions of null elements in the current dense array
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
		nulls:       s.nulls[:0],
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
	clear(s.out.recs[:cap(s.out.recs)])
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
	switch s.ws() {
	case '{':
	case 'n':
		return s.literal("null")
	case 0:
		return &RequestError{Msg: "bad JSON: empty body"}
	default:
		if err := s.skip(); err != nil {
			return err
		}
		return &RequestError{Msg: "bad JSON: the body is not a JSON object"}
	}
	// Every number but the last in an array is followed by a comma, so
	// the comma count bounds the values of any one kind; the cap keeps
	// commas in skipped values from sizing a large arena.
	s.arenaHint = min(bytes.Count(s.b, []byte{','})+1, maxArenaHint)
	if err := s.enter(); err != nil {
		return err
	}
	if s.empty('}') {
		return nil
	}
	for {
		key, err := s.key()
		if err != nil {
			return err
		}
		switch {
		case fieldIs(key, "samples"):
			err = s.samplesArray()
		case s.observe:
			err = s.skip()
		case fieldIs(key, "model"):
			err = s.model()
		case fieldIs(key, "embed"):
			err = s.embed()
		default:
			var known bool
			known, err = s.sampleField(&s.out.top, key)
			if err == nil && !known {
				err = s.skip()
			}
		}
		if err != nil {
			return err
		}
		if more, err := s.next('}'); !more {
			return err
		}
	}
}

func (s *bodyScanner) model() error {
	switch s.ws() {
	case 'n':
		return s.literal("null")
	case '"':
		raw, plain, err := s.str()
		if err != nil {
			return err
		}
		v, err := s.decodeStr(raw, plain)
		s.out.model = string(v)
		return err
	}
	if err := s.skip(); err != nil {
		return err
	}
	return s.typeErr("model: not a string")
}

func (s *bodyScanner) embed() error {
	switch s.ws() {
	case 'n':
		return s.literal("null")
	case 't':
		s.out.embed = true
		return s.literal("true")
	case 'f':
		s.out.embed = false
		return s.literal("false")
	}
	if err := s.skip(); err != nil {
		return err
	}
	return s.typeErr("embed: not a bool")
}

// samplesArray decodes "samples" into out.recs: element i decodes into
// whatever an earlier "samples" array left at index i.
func (s *bodyScanner) samplesArray() error {
	if null, err := s.isNull(); null || err != nil {
		s.out.recs, s.out.live = nil, 0
		return err
	}
	if s.ws() != '[' {
		if err := s.skip(); err != nil {
			return err
		}
		return s.typeErr("samples: not an array")
	}
	if err := s.enter(); err != nil {
		return err
	}
	i := 0
	if !s.empty(']') {
		for {
			if i >= s.maxSamples {
				return badRequestf("more than %d samples exceeds the per-request cap", s.maxSamples)
			}
			if i == len(s.out.recs) {
				s.out.recs = append(s.out.recs, rawSample{})
			}
			if err := s.sampleObject(&s.out.recs[i]); err != nil {
				return err
			}
			i++
			more, err := s.next(']')
			if err != nil {
				return err
			}
			if !more {
				break
			}
		}
	}
	s.out.live = i
	if i == 0 {
		s.out.recs = nil
	}
	return nil
}

// sampleObject decodes one "samples" element into rec.
func (s *bodyScanner) sampleObject(rec *rawSample) error {
	switch s.ws() {
	case 'n':
		return s.literal("null")
	case '{':
	default:
		if err := s.skip(); err != nil {
			return err
		}
		return s.typeErr("sample: not an object")
	}
	if err := s.enter(); err != nil {
		return err
	}
	if s.empty('}') {
		return nil
	}
	for {
		key, err := s.key()
		if err != nil {
			return err
		}
		known, err := s.sampleField(rec, key)
		if err == nil && !known {
			if s.observe && fieldIs(key, "label") {
				err = s.label(rec)
			} else {
				err = s.skip()
			}
		}
		if err != nil {
			return err
		}
		if more, err := s.next('}'); !more {
			return err
		}
	}
}

// sampleField decodes the value of key into rec when key names a Sample
// field, and reports whether it did.
func (s *bodyScanner) sampleField(rec *rawSample, key []byte) (bool, error) {
	switch {
	case fieldIs(key, "dense"):
		return true, s.denseArray(rec)
	case fieldIs(key, "sparse"):
		return true, s.sparseObject(rec)
	}
	return false, nil
}

func (s *bodyScanner) label(rec *rawSample) error {
	if null, err := s.isNull(); null || err != nil {
		return err
	}
	if c := s.ws(); c != '-' && (c < '0' || c > '9') {
		if err := s.skip(); err != nil {
			return err
		}
		return s.typeErr("label: not a number")
	}
	v, err := s.int()
	rec.label = v
	return err
}

// denseArray decodes a "dense" value into rec.dense.  The values of a
// first array stay in the arena and rec.dense views them; a later array
// for the same sample is applied in place as encoding/json does.
func (s *bodyScanner) denseArray(rec *rawSample) error {
	if null, err := s.isNull(); null || err != nil {
		rec.dense = nil
		return err
	}
	if s.ws() != '[' {
		if err := s.skip(); err != nil {
			return err
		}
		return s.typeErr("dense: not an array")
	}
	if err := s.enter(); err != nil {
		return err
	}
	s.dense = arena(s.dense, s.arenaHint)
	start := len(s.dense)
	s.nulls = s.nulls[:0]
	if !s.empty(']') {
		for {
			switch c := s.ws(); {
			case c == '-' || '0' <= c && c <= '9':
				v, err := s.float()
				if err != nil {
					return err
				}
				s.dense = append(s.dense, v)
			case c == 'n':
				if err := s.literal("null"); err != nil {
					return err
				}
				s.nulls = append(s.nulls, len(s.dense)-start)
				s.dense = append(s.dense, 0)
			default:
				if err := s.skip(); err != nil {
					return err
				}
				return s.typeErr("dense: element is not a number")
			}
			more, err := s.next(']')
			if err != nil {
				return err
			}
			if !more {
				break
			}
		}
	}
	n := len(s.dense) - start
	switch {
	case n == 0:
		rec.dense = nil
	case cap(rec.dense) == 0:
		rec.dense = s.dense[start : start+n : start+n]
	default:
		rec.dense = overwrite(rec.dense, s.dense[start:], s.nulls)
		s.dense = s.dense[:start]
	}
	return nil
}

// overwrite decodes src into the existing slice dst the way
// encoding/json decodes an array into a non-empty slice: in place,
// growing as needed, keeping dst's old value where src holds a null
// (positions in nulls, ascending), then cut to len(src).
func overwrite(dst, src []float64, nulls []int) []float64 {
	for j, v := range src {
		if j >= len(dst) {
			if j >= cap(dst) {
				dst = slices.Grow(dst, 1) // keeps dst[len:cap]; the rest is zero
			}
			dst = dst[:j+1]
		}
		if len(nulls) > 0 && nulls[0] == j {
			nulls = nulls[1:]
			continue
		}
		dst[j] = v
	}
	return dst[:len(src)]
}

// sparseObject decodes a "sparse" value into rec's writes.  A later
// object for the same sample merges into the earlier one's entries.
func (s *bodyScanner) sparseObject(rec *rawSample) error {
	if null, err := s.isNull(); null || err != nil {
		rec.cols, rec.vals = nil, nil
		return err
	}
	if s.ws() != '{' {
		if err := s.skip(); err != nil {
			return err
		}
		return s.typeErr("sparse: not an object")
	}
	if err := s.enter(); err != nil {
		return err
	}
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
			var v float64
			switch c := s.ws(); {
			case c == '-' || '0' <= c && c <= '9':
				if v, err = s.float(); err != nil {
					return err
				}
			case c == 'n':
				if err := s.literal("null"); err != nil {
					return err
				}
			default:
				if err := s.skip(); err != nil {
					return err
				}
				return s.typeErr("sparse: value is not a number")
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
	n := len(s.cols) - start
	switch {
	case n == 0:
	case len(rec.cols) == 0:
		rec.cols = s.cols[start : start+n : start+n]
		rec.vals = s.vals[start : start+n : start+n]
	default:
		rec.cols = append(rec.cols, s.cols[start:]...)
		rec.vals = append(rec.vals, s.vals[start:]...)
		s.cols, s.vals = s.cols[:start], s.vals[:start]
	}
	return nil
}

// sortSparse orders a sample's sparse writes by column and keeps the
// last write to each column, as a map would, compacting in place.
func sortSparse(cols []int, vals []float64) ([]int, []float64) {
	ordered := true
	for t := 1; t < len(cols); t++ {
		if cols[t] <= cols[t-1] {
			ordered = false
			break
		}
	}
	if ordered {
		return cols, vals
	}
	sort.Stable(byCol{cols, vals})
	k := 0
	for t := range cols {
		if t+1 < len(cols) && cols[t+1] == cols[t] {
			continue // a later write to the same column wins
		}
		cols[k], vals[k] = cols[t], vals[t]
		k++
	}
	return cols[:k], vals[:k]
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
// unchanged.  It walks the top level with the full grammar: keys,
// colons and commas, the "model" string, and each "samples" element in
// turn.  Every object or array value, each sample included, it skips by
// its brackets alone (skipFast), so a body malformed only inside such a
// value passes here and the worker's scan refuses it.  Every key is
// walked, so a duplicate "model" resolves as in encoding/json (the last
// wins).  Whenever encoding/json decodes a body, PeekPredict accepts it
// with the same model and count; every body it rejects encoding/json
// rejects too.
func PeekPredict(body []byte) (model string, samples int, err error) {
	s := &jsonScanner{b: body}
	switch s.ws() {
	case '{':
	case 'n':
		return "", 1, s.literal("null")
	case 0:
		return "", 0, &RequestError{Msg: "bad JSON: empty body"}
	default:
		if err := s.skip(); err != nil {
			return "", 0, err
		}
		return "", 0, &RequestError{Msg: "bad JSON: the body is not a JSON object"}
	}
	if err := s.enter(); err != nil {
		return "", 0, err
	}
	if s.empty('}') {
		return "", 1, nil
	}
	for {
		key, err := s.key()
		if err != nil {
			return "", 0, err
		}
		switch {
		case fieldIs(key, "model"):
			err = s.peekModel(&model)
		case fieldIs(key, "samples"):
			samples, err = s.countArray()
		default:
			err = s.skipFast()
		}
		if err != nil {
			return "", 0, err
		}
		more, err := s.next('}')
		if err != nil {
			return "", 0, err
		}
		if !more {
			// An empty samples list leaves the single-sample shorthand.
			return model, max(samples, 1), nil
		}
	}
}

func (s *jsonScanner) peekModel(model *string) error {
	switch s.ws() {
	case 'n':
		return s.literal("null")
	case '"':
		raw, plain, err := s.str()
		if err != nil {
			return err
		}
		v, err := s.decodeStr(raw, plain)
		*model = string(v)
		return err
	}
	if err := s.skip(); err != nil {
		return err
	}
	return s.typeErr("model: not a string")
}

// countArray skips an array (or null) and returns its element count.
func (s *jsonScanner) countArray() (int, error) {
	switch s.ws() {
	case 'n':
		return 0, s.literal("null")
	case '[':
	default:
		if err := s.skip(); err != nil {
			return 0, err
		}
		return 0, s.typeErr("samples: not an array")
	}
	if err := s.enter(); err != nil {
		return 0, err
	}
	if s.empty(']') {
		return 0, nil
	}
	for n := 1; ; n++ {
		if err := s.skipFast(); err != nil {
			return 0, err
		}
		if more, err := s.next(']'); !more {
			return n, err
		}
	}
}

// skipFast consumes one value.  An object or array it skips by its
// brackets, the first stage of simdjson (Langdale & Lemire, "Parsing
// Gigabytes of JSON per Second", arXiv:1902.08318): it finds the next
// '"', '[', ']', '{' or '}' eight bytes per step, hands each string to
// str, so escapes and control bytes are judged exactly, and counts the
// brackets down to zero.  Numbers, literals, commas and colons between
// them are never looked at, and a ']' may close a '{'.  On valid JSON it
// ends where skip ends; it rejects only a bad string or a body that ends
// first.  Any other value goes through skip's grammar.
func (s *jsonScanner) skipFast() error {
	if c := s.ws(); c != '{' && c != '[' {
		return s.skip()
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
