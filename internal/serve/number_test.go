package serve

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// numberTraps are the tokens at the edges of the number scanner's fast
// paths.  Each class has a checked-in corpus entry for each body fuzz
// target (testdata/fuzz/*/num_*).
var numberTraps = []string{
	// 2^53 ± 1 mantissas: the edge of Clinger's fast path.
	"9007199254740991", "9007199254740992", "9007199254740993",
	"-9007199254740993", "9007199254740991e22", "9007199254740993e22",
	"9007199254740991e-22", "9007199254740993e-22", "900719925474099.3",
	// 19 vs 20 significant digits: the edge of the exact mantissa.
	"1234567890123456789", "12345678901234567890", "9999999999999999999",
	"99999999999999999999", "18446744073709551615", "18446744073709551616",
	"0.1234567890123456789", "0.12345678901234567890", "1.234567890123456789e-5",
	"12345678901234567890e-20", "100000000000000000000000", "1.50000000000000000000",
	// Leading fraction zeros fold to nothing.
	"0.0000000000000000001234567890123456789", "0.000000000000000000000000123",
	"-0.00001", "0.00000000000000000000000000000000000000000000000000",
	// encoding/json's exponent forms.
	"1e-07", "1e-7", "1.5e+21", "1.5E+21", "1E21", "2.5e0", "1e+00",
	// |exp10| at 22 and 23: the edge of the exact powers of ten.
	"1e22", "1e23", "1e-22", "1e-23", "123456789e-22", "123456789e-23",
	"4.35e22", "7e-23", "9007199254740991e23",
	// Table edges: pow10Min and pow10Max and one past each.
	"1e308", "1e309", "-1e309", "1.7976931348623157e308", "1.7976931348623158e308",
	"1.7976931348623159e308", "1e-342", "1e-343", "18446744073709551615e-342",
	"9999999999999999999e-343", "1e-326", "1e-400",
	"1e99999999999999999999", "1e-99999999999999999999", "0e99999999999999999999",
	// Eisel–Lemire halfway declines: exact midpoints between doubles.
	"18014398509481986", "18014398509481990", "9223372036854776832",
	"9223372036854778880", "1152921504606847104",
	// Subnormals and the normal edge.
	"5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324",
	"2.4703282292062328e-324", "2.225073858507201e-308", "2.2250738585072011e-308",
	"2.2250738585072014e-308", "1e-310", "-1e-320",
	// Zeros.
	"0", "-0", "-0.0", "0e-400", "-0e+999", "0.0e0",
	// The values a serve-bulk body is mostly made of.
	"1", "0.5", "0.6046602879796196", "-0.9405090880450124", "0.1", "0.3",
}

// sameAsStrconv checks the scanner's float on one token against
// strconv.ParseFloat: the whole token consumed, the same bits, and an
// error exactly where strconv reports one.
func sameAsStrconv(t *testing.T, tok string) {
	t.Helper()
	want, werr := strconv.ParseFloat(tok, 64)
	s := jsonScanner{b: []byte(tok)}
	got, err := s.float()
	if (werr == nil) != (err == nil) {
		t.Fatalf("%q: strconv err=%v, scanner err=%v", tok, werr, err)
	}
	if err == nil && s.pos != len(tok) {
		t.Fatalf("%q: consumed %d of %d bytes", tok, s.pos, len(tok))
	}
	if err == nil && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: scanner %v (%#x), strconv %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestFloatMatchesStrconv holds every value the scanner produces to
// strconv.ParseFloat's bits: the traps, then millions of shortest-repr,
// fixed-precision and random-digit tokens.
func TestFloatMatchesStrconv(t *testing.T) {
	for _, tok := range numberTraps {
		sameAsStrconv(t, tok)
	}
	// Hundreds of digits: far past the exact mantissa.
	for _, tok := range []string{strings.Repeat("9", 300), strings.Repeat("9", 400),
		"1" + strings.Repeat("0", 400) + "e-400", "0." + strings.Repeat("0", 400) + "1e400"} {
		sameAsStrconv(t, tok)
	}
	for _, tok := range []string{"18014398509481986", "9223372036854776832", "1152921504606847104"} {
		s := jsonScanner{b: []byte(tok)}
		d, err := s.number()
		if _, ok := eiselLemire(d.mant, d.exp10, d.neg); err != nil || d.long || ok {
			t.Fatalf("%q: want an exact halfway case Eisel–Lemire declines (err %v, long %v, ok %v)", tok, err, d.long, ok)
		}
	}
	n := 1 << 19
	if testing.Short() || raceEnabled {
		n = 1 << 14
	}
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	for i := 0; i < n; i++ {
		// Any finite double, shortest repr in encoding/json's two forms.
		f := math.Float64frombits(rng.Uint64())
		if math.IsInf(f, 0) || math.IsNaN(f) {
			continue
		}
		buf = strconv.AppendFloat(buf[:0], f, 'g', -1, 64)
		sameAsStrconv(t, string(buf))
		buf = strconv.AppendFloat(buf[:0], f, 'e', -1, 64)
		sameAsStrconv(t, string(buf))
		// A uniform [0,1) value, as rng.Float64 fills benchmark bodies.
		buf = strconv.AppendFloat(buf[:0], rng.Float64(), 'f', -1, 64)
		sameAsStrconv(t, string(buf))
		// Fixed precision: up to 25 digits, past the exact mantissa.
		buf = strconv.AppendFloat(buf[:0], f, 'e', rng.Intn(25), 64)
		sameAsStrconv(t, string(buf))
		buf = strconv.AppendFloat(buf[:0], rng.NormFloat64()*math.Pow(10, float64(rng.Intn(30)-15)), 'f', rng.Intn(25), 64)
		sameAsStrconv(t, string(buf))
		// Random digits with an exponent anywhere in and around the table.
		buf = strconv.AppendUint(buf[:0], rng.Uint64()>>rng.Intn(64), 10)
		buf = append(buf, 'e')
		buf = strconv.AppendInt(buf, int64(rng.Intn(700)-370), 10)
		sameAsStrconv(t, string(buf))
	}
}

// TestDigits checks the eight-byte digit scan against the bytewise one:
// every byte value at every position of an otherwise all-digit run, with
// the run long enough for the word path and cut short for the tail.
func TestDigits(t *testing.T) {
	for _, run := range []string{"3141592653589793", "31415"} {
		for pos := 0; pos < len(run); pos++ {
			for c := 0; c < 256; c++ {
				b := []byte(run)
				b[pos] = byte(c)
				end := pos
				if '0' <= c && c <= '9' {
					end = len(b)
				}
				want, _ := strconv.ParseUint("0"+string(b[:end]), 10, 64)
				m, i := digits(b, 0, 0)
				if m != want || i != end {
					t.Fatalf("%q: digits = %d, %d; want %d, %d", b, m, i, want, end)
				}
			}
		}
	}
}

// TestPow10Table recomputes pow10Tab with math/big: the top 128 bits of
// 10^e, truncated, as strconv's Eisel–Lemire table holds them.
func TestPow10Table(t *testing.T) {
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for e := pow10Min; e <= pow10Max; e++ {
		v := new(big.Int)
		if e >= 0 {
			v.Exp(big.NewInt(10), big.NewInt(int64(e)), nil)
			if n := v.BitLen(); n <= 128 {
				v.Lsh(v, uint(128-n))
			} else {
				v.Rsh(v, uint(n-128))
			}
		} else {
			// floor(2^k / 10^-e) with k chosen to leave 128 bits.
			d := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(-e)), nil)
			v.Lsh(big.NewInt(1), uint(127+d.BitLen()))
			v.Quo(v, d)
		}
		hi := new(big.Int).Rsh(v, 64).Uint64()
		lo := new(big.Int).And(v, mask).Uint64()
		if got := pow10Tab[e-pow10Min]; got != [2]uint64{hi, lo} {
			t.Fatalf("1e%d: table {%#x, %#x}, math/big {%#x, %#x}", e, got[0], got[1], hi, lo)
		}
	}
}
