package obs

import (
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestLoggerDeterministicOutput(t *testing.T) {
	clk := &fakeClock{now: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC), step: time.Second}
	var sb strings.Builder
	l := NewLoggerClock(&sb, slog.LevelInfo, false, clk.read)
	l.Info("model loaded", "classes", 3, "dims", 16)
	const want = "time=2026-01-02T03:04:06.000Z level=INFO msg=\"model loaded\" classes=3 dims=16\n"
	if sb.String() != want {
		t.Fatalf("got %q\nwant %q", sb.String(), want)
	}
}

func TestLoggerJSONIncludesAttrs(t *testing.T) {
	clk := &fakeClock{now: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC), step: time.Second}
	var sb strings.Builder
	l := NewLoggerClock(&sb, slog.LevelInfo, true, clk.read)
	l.With("component", "serve").Warn("queue full", "dropped", 7)
	out := sb.String()
	for _, frag := range []string{`"level":"WARN"`, `"msg":"queue full"`, `"component":"serve"`, `"dropped":7`} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %s: %s", frag, out)
		}
	}
}

func TestLoggerSample(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0).UTC(), step: 100 * time.Millisecond}
	var sb strings.Builder
	l := NewLoggerClock(&sb, slog.LevelInfo, false, clk.read)

	emitted := 0
	for i := 0; i < 25; i++ { // clock steps 100ms per call: 2.5s of bursts
		if s := l.Sample("burst", time.Second); s != nil {
			s.Warn("overflow")
			emitted++
		}
	}
	if emitted < 2 || emitted > 4 {
		t.Fatalf("sampled %d lines over 2.5s at 1/s, want 2-4:\n%s", emitted, sb.String())
	}
	if !strings.Contains(sb.String(), "suppressed=") {
		t.Fatalf("no suppressed count surfaced:\n%s", sb.String())
	}
	// Distinct keys sample independently.
	if l.Sample("other", time.Second) == nil {
		t.Fatal("fresh key was suppressed")
	}
}

func TestLoggerNilNoOps(t *testing.T) {
	var l *Logger
	l.Info("nothing")
	l.Error("nothing")
	if l.Level() != slog.LevelInfo {
		t.Fatalf("nil Level = %v", l.Level())
	}
	if l.With("k", "v") != nil || l.Sample("k", time.Second) != nil {
		t.Fatal("nil derivations must stay nil")
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}
