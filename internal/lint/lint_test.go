package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the quoted regexes from a `// want "..." "..."` comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one `// want` pattern awaiting a diagnostic.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants scans the retained source lines of every corpus file for
// `// want "regex"...` comments.  A want comment expects one diagnostic
// per quoted pattern on its own line, in any order.
func collectWants(t *testing.T, mod *Module) []*expectation {
	t.Helper()
	var wants []*expectation
	for file, lines := range mod.Sources {
		for i, line := range lines {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			ms := wantRe.FindAllStringSubmatch(line[idx+len("// want "):], -1)
			if len(ms) == 0 {
				t.Errorf("%s:%d: want comment with no quoted pattern", file, i+1)
				continue
			}
			for _, m := range ms {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Errorf("%s:%d: bad want pattern %q: %v", file, i+1, m[1], err)
					continue
				}
				wants = append(wants, &expectation{file: file, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// checkWants matches diagnostics against expectations one-to-one: every
// diagnostic must satisfy a pending want on its file:line, and every want
// must be consumed.
func checkWants(t *testing.T, mod *Module, diags []Diagnostic) {
	t.Helper()
	wants := collectWants(t, mod)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.re == nil || w.file != d.File || w.line != d.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.re = nil // consumed
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic %s:%d:%d: %s (%s)",
				relCorpus(mod, d.File), d.Line, d.Col, d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if w.re != nil {
			t.Errorf("no diagnostic matched want %q at %s:%d",
				w.re.String(), relCorpus(mod, w.file), w.line)
		}
	}
}

func relCorpus(mod *Module, file string) string {
	if r, err := filepath.Rel(mod.Root, file); err == nil {
		return r
	}
	return file
}

// loadCorpus loads one testdata/src tree as its own module.
func loadCorpus(t *testing.T, name string) *Module {
	t.Helper()
	mod, err := Load(filepath.Join("testdata", "src", name), "corpus/"+name)
	if err != nil {
		t.Fatalf("loading corpus %s: %v", name, err)
	}
	return mod
}

// TestCorpus runs the full suite over each analyzer's corpus tree and
// matches the diagnostics against the `// want` comments in the sources.
func TestCorpus(t *testing.T) {
	for _, name := range []string{
		"goroutine", "floatcmp", "seededrand", "partwin",
		"hotalloc", "noclock", "errdrop", "rawlog",
		"maprange", "lockcheck", "ctxflow", "graphhot",
		"traceheader", "bodylimit",
	} {
		t.Run(name, func(t *testing.T) {
			mod := loadCorpus(t, name)
			checkWants(t, mod, Run(mod, Analyzers))
		})
	}
}

// TestSuppressCorpus pins down the suppression semantics exactly:
// malformed comments are findings and silence nothing, stacked standalone
// suppressions cover the first code line below the run, a trailing
// suppression covers only its own line, and a well-formed suppression
// whose analyzer never fires on the covered line is reported stale.
// Want comments cannot annotate malformed suppressions (any trailing
// text would become the missing reason), so this corpus is asserted by
// explicit position.
func TestSuppressCorpus(t *testing.T) {
	mod := loadCorpus(t, "suppress")
	diags := Run(mod, Analyzers)
	expected := []struct {
		line     int
		analyzer string
		substr   string
	}{
		{6, "suppress", "needs an analyzer name and a reason"},
		{7, "floatcmp", "compares floating-point values exactly"},
		{9, "suppress", "unknown analyzer nosuch"},
		{10, "floatcmp", "compares floating-point values exactly"},
		{12, "suppress", "floatcmp needs a reason"},
		{13, "floatcmp", "compares floating-point values exactly"},
		{20, "suppress", "stale suppression: hotalloc no longer fires"},
		{28, "floatcmp", "compares floating-point values exactly"},
	}
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d %s %s", d.Line, d.Analyzer, d.Message))
	}
	if len(diags) != len(expected) {
		t.Fatalf("got %d diagnostics, expected %d:\n%s",
			len(diags), len(expected), strings.Join(got, "\n"))
	}
	for i, e := range expected {
		d := diags[i]
		if d.Line != e.line || d.Analyzer != e.analyzer || !strings.Contains(d.Message, e.substr) {
			t.Errorf("diagnostic %d: got %d %s %q, expected line %d %s containing %q",
				i, d.Line, d.Analyzer, d.Message, e.line, e.analyzer, e.substr)
		}
	}
}

// TestAnalyzerRegistry checks the suite wiring the driver depends on.
func TestAnalyzerRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, a := range Analyzers {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing a name, doc, or run function", a.Name)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
		if AnalyzerByName(a.Name) != a {
			t.Errorf("AnalyzerByName(%q) does not round-trip", a.Name)
		}
	}
	if AnalyzerByName("nosuch") != nil {
		t.Error("AnalyzerByName accepts unknown names")
	}
	if len(Analyzers) != 13 {
		t.Errorf("suite has %d analyzers, expected 13", len(Analyzers))
	}
}

// TestLoadCorpusShape checks the loader's package discovery and policy
// classification on the goroutine corpus tree.
func TestLoadCorpusShape(t *testing.T) {
	mod := loadCorpus(t, "goroutine")
	if mod.Path != "corpus/goroutine" {
		t.Errorf("module path = %q", mod.Path)
	}
	for rel, wantName := range map[string]string{
		"work":          "work",
		"internal/pool": "pool",
		"cmd/tool":      "main",
	} {
		p := mod.PackageAt(rel)
		if p == nil {
			t.Fatalf("package at %q not loaded", rel)
		}
		if p.Name != wantName {
			t.Errorf("package at %q named %q, expected %q", rel, p.Name, wantName)
		}
		if p.Types == nil || p.Info == nil {
			t.Errorf("package at %q not type-checked", rel)
		}
	}
	if isKernelPkg(mod.PackageAt("work")) {
		t.Error("work misclassified as a kernel package")
	}
	for _, owner := range []string{
		"internal/pool", "internal/serve", "internal/router", "internal/registry",
		"internal/telemetry",
	} {
		if !underAny(owner, goroutineOwners) {
			t.Errorf("%s not recognized as a goroutine owner", owner)
		}
	}
	if underAny("internal/online", goroutineOwners) {
		t.Error("internal/online recognized as a goroutine owner")
	}
	if !underAny("internal/telemetry", noClockExtraDirs) {
		t.Error("internal/telemetry not under the noclock ban")
	}
	if underAny("internal/mat", goroutineOwners) {
		t.Error("internal/mat recognized as a goroutine owner")
	}
}
