package main

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateTop = flag.Bool("update", false, "rewrite the top golden file")

// TestTopOnceGolden renders the fixture snapshot once and pins the
// fleet-view layout byte for byte: the document fully determines the
// frame, so the same snapshot renders identically everywhere.
func TestTopOnceGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := topMain(&out, &errOut, []string{"-once", filepath.Join("testdata", "top_snapshot.json")}); code != 0 {
		t.Fatalf("top -once = %d, stderr: %s", code, errOut.String())
	}
	golden := filepath.Join("testdata", "top_once.golden")
	if *updateTop {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("top frame drifted from golden:\n--- got ---\n%s--- want ---\n%s", out.Bytes(), want)
	}

	// Byte-determinism: a second render of the same document is identical.
	var again bytes.Buffer
	if code := topMain(&again, &errOut, []string{filepath.Join("testdata", "top_snapshot.json")}); code != 0 {
		t.Fatalf("second render = %d", code)
	}
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Error("two renders of the same snapshot differ")
	}
}

// TestTopLive serves the fixture over HTTP and checks both the single
// fetch (same bytes as the file render) and -watch mode, which clears
// the screen between frames and honors -frames.
func TestTopLive(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "top_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/cluster/snapshot" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(data)
	}))
	defer srv.Close()

	var fromFile, fromURL, errOut bytes.Buffer
	if code := topMain(&fromFile, &errOut, []string{filepath.Join("testdata", "top_snapshot.json")}); code != 0 {
		t.Fatal(errOut.String())
	}
	if code := topMain(&fromURL, &errOut, []string{"-once", srv.URL}); code != 0 {
		t.Fatal(errOut.String())
	}
	if !bytes.Equal(fromFile.Bytes(), fromURL.Bytes()) {
		t.Error("live fetch renders differently from the file source")
	}

	var watched bytes.Buffer
	if code := topMain(&watched, &errOut, []string{"-watch", "-every", "1ms", "-frames", "2", srv.URL}); code != 0 {
		t.Fatalf("top -watch = %d, stderr: %s", code, errOut.String())
	}
	if got := strings.Count(watched.String(), "\x1b[2J"); got != 2 {
		t.Errorf("watch mode cleared the screen %d times, want 2", got)
	}
	if got := strings.Count(watched.String(), "fleet at "); got != 2 {
		t.Errorf("watch mode rendered %d frames, want 2", got)
	}
}

// TestTopErrors pins the exit-code contract: 2 on usage errors, 1 on
// unreadable, invalid, or unreachable sources.
func TestTopErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := topMain(&out, &errOut, nil); code != 2 {
		t.Errorf("no source = %d, want 2", code)
	}
	if code := topMain(&out, &errOut, []string{"testdata/nope.json"}); code != 1 {
		t.Errorf("missing file = %d, want 1", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema": "wrong/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := topMain(&out, &errOut, []string{bad}); code != 1 {
		t.Errorf("wrong schema = %d, want 1", code)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	if code := topMain(&out, &errOut, []string{srv.URL}); code != 1 {
		t.Errorf("HTTP 500 = %d, want 1", code)
	}
}

// TestSubcommandHelp audits every subcommand's -h output for the shared
// contract: a usage line, the flag list, and the exit-code legend — and
// asking for help is not an error.
func TestSubcommandHelp(t *testing.T) {
	subs := map[string]func(w, ew *bytes.Buffer) int{
		"benchdiff":  func(w, ew *bytes.Buffer) int { return benchdiffMain(w, ew, []string{"-h"}) },
		"tracemerge": func(w, ew *bytes.Buffer) int { return tracemergeMain(w, ew, []string{"-h"}) },
		"top":        func(w, ew *bytes.Buffer) int { return topMain(w, ew, []string{"-h"}) },
	}
	for name, run := range subs {
		t.Run(name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(&out, &errOut); code != 0 {
				t.Errorf("%s -h exits %d, want 0", name, code)
			}
			help := errOut.String()
			for _, want := range []string{"usage: srdareport " + name, "flags:", "exit codes: 0"} {
				if !strings.Contains(help, want) {
					t.Errorf("%s -h output missing %q:\n%s", name, want, help)
				}
			}
		})
	}
}

// TestTopLiveReplyBound: a live source streaming an endless reply fails
// with exit 1 once the reply passes serve.MaxReplyBytes, instead of
// buffering it.
func TestTopLiveReplyBound(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		chunk := bytes.Repeat([]byte(" "), 64<<10)
		for {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer srv.Close()
	var out, errOut bytes.Buffer
	if code := topMain(&out, &errOut, []string{srv.URL}); code != 1 || !strings.Contains(errOut.String(), "size limit") {
		t.Errorf("endless reply = %d %q, want 1 naming the size limit", code, errOut.String())
	}
}
