package obs

// Structured logging on log/slog.  Logger is the repository's sole
// sanctioned logging surface outside the command mains: the serving and
// reload paths log through it (the srdalint rawlog analyzer bans raw
// log.Printf / fmt.Fprint-to-stderr elsewhere), which buys rate-limited
// sampling (Sample) for hot paths uniformly, so a queue-overflow storm
// logs once a second with a suppressed count instead of once per
// rejected sample.
//
// The clock is injectable like everywhere else in obs, so log output in
// tests is byte-deterministic.  A nil *Logger is a valid no-op receiver:
// call-sites log unconditionally and pay one nil check when logging is
// off.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"
)

// Logger is a leveled, attribute-carrying logger.  Derive children with
// With; all children share the parent's level and sampler.
type Logger struct {
	h     slog.Handler
	lvl   *slog.LevelVar
	clock Clock
	smp   *sampler
}

// NewLogger creates a text-format logger writing to w at the given
// initial level.
func NewLogger(w io.Writer, level slog.Level) *Logger {
	return newLogger(w, level, false, time.Now)
}

// NewJSONLogger creates a JSON-lines logger writing to w.
func NewJSONLogger(w io.Writer, level slog.Level) *Logger {
	return newLogger(w, level, true, time.Now)
}

// NewLoggerClock creates a logger on an injected clock (json selects the
// wire format); tests use a fake clock for deterministic timestamps.
func NewLoggerClock(w io.Writer, level slog.Level, json bool, clock Clock) *Logger {
	if clock == nil {
		clock = time.Now
	}
	return newLogger(w, level, json, clock)
}

func newLogger(w io.Writer, level slog.Level, json bool, clock Clock) *Logger {
	lvl := new(slog.LevelVar)
	lvl.Set(level)
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	if json {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return &Logger{h: h, lvl: lvl, clock: clock, smp: newSampler()}
}

// ParseLevel maps "debug", "info", "warn", "error" (case-sensitive,
// matching flag conventions) to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", s)
}

// Level returns the current minimum level (LevelInfo on nil).
func (l *Logger) Level() slog.Level {
	if l == nil {
		return slog.LevelInfo
	}
	return l.lvl.Level()
}

// With returns a child logger that adds the given key/value attrs to
// every record.  Nil stays nil.
func (l *Logger) With(args ...any) *Logger {
	if l == nil || len(args) == 0 {
		return l
	}
	return &Logger{h: l.h.WithAttrs(argsToAttrs(args)), lvl: l.lvl, clock: l.clock, smp: l.smp}
}

// Sample returns l when a log line keyed by key is due (at most one per
// period) and nil — a no-op logger — otherwise.  When a due line follows
// suppressed ones, the returned logger carries a "suppressed" attr with
// the count, so bursts stay visible without flooding:
//
//	log.Sample("queue_full", time.Second).Warn("queue full", "dropped", n)
//
// Nil receiver returns nil.
func (l *Logger) Sample(key string, period time.Duration) *Logger {
	if l == nil {
		return nil
	}
	ok, suppressed := l.smp.allow(key, period, l.clock())
	if !ok {
		return nil
	}
	if suppressed > 0 {
		return l.With("suppressed", suppressed)
	}
	return l
}

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, args ...any) { l.log(slog.LevelInfo, msg, args) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, args ...any) { l.log(slog.LevelWarn, msg, args) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, args ...any) { l.log(slog.LevelError, msg, args) }

func (l *Logger) log(level slog.Level, msg string, args []any) {
	if l == nil || !l.h.Enabled(context.Background(), level) {
		return
	}
	r := slog.NewRecord(l.clock(), level, msg, 0)
	r.Add(args...)
	// A handler write failure means the log sink is gone; logging about
	// it would go to the same sink.
	_ = l.h.Handle(context.Background(), r)
}

// argsToAttrs converts alternating key/value args the way slog does.
func argsToAttrs(args []any) []slog.Attr {
	attrs := make([]slog.Attr, 0, (len(args)+1)/2)
	for i := 0; i < len(args); {
		switch k := args[i].(type) {
		case string:
			if i+1 < len(args) {
				attrs = append(attrs, slog.Any(k, args[i+1]))
				i += 2
			} else {
				attrs = append(attrs, slog.String("!BADKEY", k))
				i++
			}
		case slog.Attr:
			attrs = append(attrs, k)
			i++
		default:
			attrs = append(attrs, slog.Any("!BADKEY", k))
			i++
		}
	}
	return attrs
}

// sampler tracks the last-emitted time and suppressed count per key.
type sampler struct {
	mu         sync.Mutex
	last       map[string]time.Time
	suppressed map[string]uint64
}

func newSampler() *sampler {
	return &sampler{last: make(map[string]time.Time), suppressed: make(map[string]uint64)}
}

// allow reports whether a line keyed by key may log at time now, and the
// number of lines suppressed since the last allowed one.
func (s *sampler) allow(key string, period time.Duration, now time.Time) (bool, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	last, seen := s.last[key]
	if seen && now.Sub(last) < period {
		s.suppressed[key]++
		return false, 0
	}
	s.last[key] = now
	n := s.suppressed[key]
	s.suppressed[key] = 0
	return true, n
}
