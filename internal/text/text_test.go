package text

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"srda/internal/core"
)

// Classic vectors from Porter's 1980 paper and its reference
// implementation's voc/output pairs.
func TestPorterStemKnownVectors(t *testing.T) {
	cases := map[string]string{
		// step 1a
		"caresses": "caress",
		"ponies":   "poni",
		"ties":     "ti",
		"caress":   "caress",
		"cats":     "cat",
		// step 1b
		"feed":      "feed",
		"agreed":    "agre",
		"plastered": "plaster",
		"bled":      "bled",
		"motoring":  "motor",
		"sing":      "sing",
		"conflated": "conflat",
		"troubled":  "troubl",
		"sized":     "size",
		"hopping":   "hop",
		"tanned":    "tan",
		"falling":   "fall",
		"hissing":   "hiss",
		"fizzed":    "fizz",
		"failing":   "fail",
		"filing":    "file",
		// step 1c
		"happy": "happi",
		"sky":   "sky",
		// step 2
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"valenci":        "valenc",
		"hesitanci":      "hesit",
		"digitizer":      "digit",
		"conformabli":    "conform",
		"radicalli":      "radic",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "decis",
		"hopefulness":    "hope",
		"callousness":    "callous",
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		// step 3
		"triplicate":  "triplic",
		"formative":   "form",
		"formalize":   "formal",
		"electriciti": "electr",
		"electrical":  "electr",
		"hopeful":     "hope",
		"goodness":    "good",
		// step 4
		"revival":     "reviv",
		"allowance":   "allow",
		"inference":   "infer",
		"airliner":    "airlin",
		"gyroscopic":  "gyroscop",
		"adjustable":  "adjust",
		"defensible":  "defens",
		"irritant":    "irrit",
		"replacement": "replac",
		"adjustment":  "adjust",
		"dependent":   "depend",
		"adoption":    "adopt",
		"homologou":   "homolog",
		"communism":   "commun",
		"activate":    "activ",
		"angulariti":  "angular",
		"homologous":  "homolog",
		"effective":   "effect",
		"bowdlerize":  "bowdler",
		// step 5
		"probate":  "probat",
		"rate":     "rate",
		"cease":    "ceas",
		"controll": "control",
		"roll":     "roll",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemLeavesShortAndNonAlpha(t *testing.T) {
	for _, w := range []string{"a", "is", "go", "x1y", "don't", ""} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! 2nd-rate tokens_here.")
	want := []string{"hello", "world", "nd", "rate", "tokens", "here"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if out := Tokenize(""); len(out) != 0 {
		t.Fatal("empty input should yield no tokens")
	}
}

func TestIsStopWord(t *testing.T) {
	if !IsStopWord("the") || !IsStopWord("The") {
		t.Fatal("'the' should be a stop word")
	}
	if IsStopWord("laplacian") {
		t.Fatal("'laplacian' should not be a stop word")
	}
}

func miniCorpus() ([]string, []int) {
	docs := []string{
		"the cat sat on the mat and the cat purred",
		"cats and kittens are playing with the cat toys",
		"a fluffy cat chased the kitten around",
		"the stock market fell as investors sold shares",
		"shares and bonds are traded on the stock exchange",
		"investors watched the market and bought stocks",
	}
	labels := []int{0, 0, 0, 1, 1, 1}
	return docs, labels
}

func TestVectorizerBuildsVocabulary(t *testing.T) {
	docs, labels := miniCorpus()
	v, ds, err := NewVectorizer(docs, labels, 2, VectorizerOptions{Stem: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.NumTerms() == 0 {
		t.Fatal("empty vocabulary")
	}
	// stop words are gone
	if _, ok := v.Vocab["the"]; ok {
		t.Fatal("stop word kept")
	}
	// stems unify variants: cat & cats → cat
	if _, ok := v.Vocab["cats"]; ok {
		t.Fatal("unstemmed plural kept")
	}
	if _, ok := v.Vocab["cat"]; !ok {
		t.Fatalf("missing stem 'cat' in %v", v.Terms)
	}
	// rows are unit-norm
	for i := 0; i < ds.NumSamples(); i++ {
		if nrm := ds.Sparse.RowNorm2(i); math.Abs(nrm-1) > 1e-9 {
			t.Fatalf("row %d norm² %v", i, nrm)
		}
	}
}

func TestVectorizerTransformConsistent(t *testing.T) {
	docs, labels := miniCorpus()
	v, ds, err := NewVectorizer(docs, labels, 2, VectorizerOptions{Stem: true, TFIDF: true})
	if err != nil {
		t.Fatal(err)
	}
	again := v.Transform(docs)
	if again.NNZ() != ds.Sparse.NNZ() {
		t.Fatal("Transform differs from fit-time vectorization")
	}
	for i := 0; i < len(docs); i++ {
		ca, va := ds.Sparse.Row(i)
		cb, vb := again.Row(i)
		for k := range ca {
			if ca[k] != cb[k] || math.Abs(va[k]-vb[k]) > 1e-12 {
				t.Fatalf("row %d differs", i)
			}
		}
	}
	// out-of-vocabulary docs vectorize to empty rows without panicking
	oov := v.Transform([]string{"zzz qqq xxx"})
	if cols, _ := oov.Row(0); len(cols) != 0 {
		t.Fatal("OOV doc should be empty")
	}
}

func TestVectorizerDocFreqFilters(t *testing.T) {
	docs, labels := miniCorpus()
	v, _, err := NewVectorizer(docs, labels, 2, VectorizerOptions{MinDocFreq: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range v.Terms {
		if term == "purred" {
			t.Fatal("df=1 term survived MinDocFreq=2")
		}
	}
	// MaxDocRatio drops ubiquitous terms
	v2, _, err := NewVectorizer(docs, labels, 2, VectorizerOptions{KeepStopWords: true, MaxDocRatio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v2.Vocab["the"]; ok {
		t.Fatal("'the' (df=6/6) survived MaxDocRatio=0.5")
	}
}

func TestVectorizerErrors(t *testing.T) {
	if _, _, err := NewVectorizer(nil, nil, 0, VectorizerOptions{}); err == nil {
		t.Fatal("empty corpus accepted")
	}
	if _, _, err := NewVectorizer([]string{"a b"}, []int{0, 1}, 2, VectorizerOptions{}); err == nil {
		t.Fatal("label mismatch accepted")
	}
	if _, _, err := NewVectorizer([]string{"the a of"}, []int{0}, 1, VectorizerOptions{}); err == nil {
		t.Fatal("all-stopword corpus should leave empty vocabulary")
	}
}

func TestEndToEndTextClassification(t *testing.T) {
	// The full paper pipeline in miniature: raw text → stems → TF vectors
	// → sparse SRDA → classification.
	docs, labels := miniCorpus()
	_, ds, err := NewVectorizer(docs, labels, 2, VectorizerOptions{Stem: true, TFIDF: true})
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.FitSparse(ds.Sparse, ds.Labels, 2, core.Options{Alpha: 0.1, LSQRIter: 100})
	if err != nil {
		t.Fatal(err)
	}
	emb := model.TransformSparse(ds.Sparse)
	// training samples must separate by class along the single dimension
	var sign0, sign1 float64
	for i, y := range labels {
		if y == 0 {
			sign0 += emb.At(i, 0)
		} else {
			sign1 += emb.At(i, 0)
		}
	}
	if (sign0 > 0) == (sign1 > 0) {
		t.Fatalf("classes not separated: %v vs %v", sign0, sign1)
	}
}

func TestStemIdempotentOnCommonWords(t *testing.T) {
	// Stemming a stem should usually be stable for this word list.
	words := strings.Fields("run runner running runs easily fairly item items sensational")
	for _, w := range words {
		once := Stem(w)
		twice := Stem(once)
		if Stem(twice) != twice {
			t.Errorf("stem not stable for %q: %q → %q → %q", w, once, twice, Stem(twice))
		}
	}
}

func TestVectorizerSaveLoadRoundTrip(t *testing.T) {
	docs, labels := miniCorpus()
	v, _, err := NewVectorizer(docs, labels, 2, VectorizerOptions{Stem: true, TFIDF: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadVectorizer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := v.Transform(docs)
	b := back.Transform(docs)
	if a.NNZ() != b.NNZ() {
		t.Fatal("loaded vectorizer transforms differently")
	}
	for i := 0; i < len(docs); i++ {
		ca, va := a.Row(i)
		cb, vb := b.Row(i)
		for k := range ca {
			if ca[k] != cb[k] || va[k] != vb[k] {
				t.Fatalf("row %d differs after round trip", i)
			}
		}
	}
	if _, err := LoadVectorizer(bytes.NewBufferString("junk")); err == nil {
		t.Fatal("garbage stream accepted")
	}
}

func TestTokenizePropertyLowerAlpha(t *testing.T) {
	f := func(input string) bool {
		for _, tok := range Tokenize(input) {
			if tok == "" {
				return false
			}
			for _, r := range tok {
				if r < 'a' || r > 'z' {
					// non-ASCII letters are legal (unicode.ToLower)
					if !strings.ContainsRune(tok, r) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStemNeverPanicsProperty(t *testing.T) {
	f := func(input string) bool {
		// Compare with the lowered word: ToLower may lengthen it
		// (U+023E Ⱦ, 2 bytes, lowers to U+2C66 ⱦ, 3 bytes).
		word := strings.ToLower(input)
		out := Stem(word)
		return len(out) <= len(word) || out == word
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
