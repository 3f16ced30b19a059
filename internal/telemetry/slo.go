package telemetry

// Declarative SLOs with multi-window burn-rate alerting (the Google SRE
// workbook recipe): an objective defines an error budget, a burn rate
// says how fast the budget is being spent relative to "exactly spend it
// over the SLO period", and an alert fires when BOTH a short and a long
// window burn faster than the window's threshold — the short window
// makes alerts responsive, the long window keeps a brief blip from
// paging.  Two windows by default: fast (5m/1h, burn 14.4 — budget gone
// in ~2 days) and slow (30m/6h, burn 6 — budget gone in ~5 days).

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"srda/internal/obs"
)

// SLOSchema is the config schema identifier; ValidateSLOConfig rejects
// configs claiming any other version.
const SLOSchema = "srda-slo/v1"

// Objective kinds.
const (
	// KindAvailability burns budget on the 5xx fraction of a counter
	// family with a status-code label.
	KindAvailability = "availability"
	// KindLatencyP99 burns budget on the fraction of recent p99 gauge
	// samples above a latency threshold.
	KindLatencyP99 = "latency_p99"
)

// Objective is one service-level objective.
type Objective struct {
	// Name labels the objective in alerts and metrics.
	Name string `json:"name"`
	// Kind is KindAvailability or KindLatencyP99.
	Kind string `json:"kind"`
	// Metric is the metric family the objective reads: a counter with a
	// status-code label for availability, a latency gauge (seconds) for
	// latency_p99.
	Metric string `json:"metric"`
	// Target is the objective itself in (0, 1), e.g. 0.999; the error
	// budget is 1 − Target.
	Target float64 `json:"target"`
	// ThresholdSeconds is the latency bound for latency_p99 objectives.
	ThresholdSeconds float64 `json:"threshold_seconds,omitempty"`
	// CodeLabel is the status-code label on availability metrics
	// (default "code"); values starting with "5" are errors.
	CodeLabel string `json:"code_label,omitempty"`
	// PendingForSeconds is how long the burn condition must hold before
	// a pending alert fires (default 60).
	PendingForSeconds float64 `json:"pending_for_seconds,omitempty"`
}

// BurnWindow is one multi-window burn-rate rule.
type BurnWindow struct {
	Name         string  `json:"name"`
	ShortSeconds float64 `json:"short_seconds"`
	LongSeconds  float64 `json:"long_seconds"`
	// Burn is the firing threshold: both windows must burn budget at
	// least this many times faster than the sustainable rate.
	Burn float64 `json:"burn"`
}

// SLOConfig is the -slo-config document.
type SLOConfig struct {
	Schema     string       `json:"schema"`
	Objectives []Objective  `json:"objectives"`
	Windows    []BurnWindow `json:"windows,omitempty"`
}

// DefaultBurnWindows returns the standard two-window ladder.
func DefaultBurnWindows() []BurnWindow {
	return []BurnWindow{
		{Name: "fast", ShortSeconds: 300, LongSeconds: 3600, Burn: 14.4},
		{Name: "slow", ShortSeconds: 1800, LongSeconds: 21600, Burn: 6},
	}
}

// ValidateSLOConfig parses and validates an SLO config document,
// holding it to the same contract flight bundles get: unknown fields,
// a wrong schema string, or out-of-range values are errors, and
// defaults (windows, code label, pending-for) are filled in.
func ValidateSLOConfig(data []byte) (*SLOConfig, error) {
	var cfg SLOConfig
	if err := obs.DecodeStrict(data, &cfg); err != nil {
		return nil, fmt.Errorf("telemetry: SLO config is not valid JSON for the schema: %w", err)
	}
	if cfg.Schema != SLOSchema {
		return nil, fmt.Errorf("telemetry: SLO config schema %q, want %q", cfg.Schema, SLOSchema)
	}
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("telemetry: SLO config declares no objectives")
	}
	seen := map[string]bool{}
	for i := range cfg.Objectives {
		o := &cfg.Objectives[i]
		if o.Name == "" {
			return nil, fmt.Errorf("telemetry: objective %d has no name", i)
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("telemetry: duplicate objective %q", o.Name)
		}
		seen[o.Name] = true
		if o.Metric == "" {
			return nil, fmt.Errorf("telemetry: objective %q has no metric", o.Name)
		}
		if !(o.Target > 0 && o.Target < 1) {
			return nil, fmt.Errorf("telemetry: objective %q target %v outside (0, 1)", o.Name, o.Target)
		}
		switch o.Kind {
		case KindAvailability:
			if o.CodeLabel == "" {
				o.CodeLabel = "code"
			}
		case KindLatencyP99:
			if o.ThresholdSeconds <= 0 {
				return nil, fmt.Errorf("telemetry: latency objective %q needs threshold_seconds > 0", o.Name)
			}
		default:
			return nil, fmt.Errorf("telemetry: objective %q has unknown kind %q", o.Name, o.Kind)
		}
		if o.PendingForSeconds <= 0 {
			o.PendingForSeconds = 60
		}
	}
	if len(cfg.Windows) == 0 {
		cfg.Windows = DefaultBurnWindows()
	}
	seen = map[string]bool{}
	for i, w := range cfg.Windows {
		if w.Name == "" {
			return nil, fmt.Errorf("telemetry: window %d has no name", i)
		}
		if seen[w.Name] {
			return nil, fmt.Errorf("telemetry: duplicate window %q", w.Name)
		}
		seen[w.Name] = true
		if w.ShortSeconds <= 0 || w.LongSeconds <= w.ShortSeconds {
			return nil, fmt.Errorf("telemetry: window %q needs 0 < short < long", w.Name)
		}
		if w.Burn <= 0 {
			return nil, fmt.Errorf("telemetry: window %q needs burn > 0", w.Name)
		}
	}
	return &cfg, nil
}

// Alert states.
const (
	StateInactive = "inactive"
	StatePending  = "pending"
	StateFiring   = "firing"
	StateResolved = "resolved"
)

// Alert is the public state of one (objective, window) pair.
type Alert struct {
	Objective   string    `json:"objective"`
	Window      string    `json:"window"`
	State       string    `json:"state"`
	Since       time.Time `json:"since"`              // entered current state
	Burn        float64   `json:"burn"`               // short-window burn at last eval
	LongBurn    float64   `json:"long_burn"`          // long-window burn at last eval
	Threshold   float64   `json:"threshold"`          // window's firing threshold
	FiredAt     time.Time `json:"fired_at,omitempty"` // last transition to firing
	Transitions int       `json:"transitions"`        // lifetime state changes
}

// sloMetrics is the srdaslo_* instrument set.
type sloMetrics struct {
	evals       *obs.Counter
	transitions *obs.CounterVec // objective, window, to
}

// SLOEngine evaluates a config against a Store and runs the alert
// state machine.  Evaluate is explicit-time, so tests drive the whole
// lifecycle under a frozen clock.
type SLOEngine struct {
	cfg    *SLOConfig
	store  *Store
	clock  obs.Clock
	flight *obs.FlightRecorder
	logger *obs.Logger

	mu     sync.Mutex
	alerts map[string]*Alert // "objective/window" -> state
	keys   []string          // sorted, fixed at construction
	mx     *sloMetrics
}

// SLOEngineOptions configures an engine; Registry receives the
// srdaslo_* instruments, Flight the slo_burn trigger.
type SLOEngineOptions struct {
	Clock    obs.Clock
	Registry *obs.Registry
	Flight   *obs.FlightRecorder
	Logger   *obs.Logger
}

// NewSLOEngine builds an engine over a validated config.
func NewSLOEngine(cfg *SLOConfig, store *Store, opts SLOEngineOptions) *SLOEngine {
	e := &SLOEngine{
		cfg:    cfg,
		store:  store,
		clock:  opts.Clock,
		flight: opts.Flight,
		logger: opts.Logger,
		alerts: make(map[string]*Alert),
	}
	if e.clock == nil {
		e.clock = obs.SystemClock()
	}
	for _, o := range cfg.Objectives {
		for _, w := range cfg.Windows {
			key := o.Name + "/" + w.Name
			e.alerts[key] = &Alert{Objective: o.Name, Window: w.Name, State: StateInactive, Threshold: w.Burn}
			e.keys = append(e.keys, key)
		}
	}
	sort.Strings(e.keys)
	if opts.Registry != nil {
		e.mx = &sloMetrics{
			evals: opts.Registry.NewCounter("srdaslo_evaluations_total",
				"SLO evaluation passes."),
			transitions: opts.Registry.NewCounterVec("srdaslo_transitions_total",
				"Alert state-machine transitions.", "objective", "window", "to"),
		}
		opts.Registry.NewGaugeFunc("srdaslo_alerts_firing",
			"Alerts currently firing.", func() int64 { return e.countState(StateFiring) })
		opts.Registry.NewGaugeFunc("srdaslo_alerts_pending",
			"Alerts currently pending.", func() int64 { return e.countState(StatePending) })
		opts.Registry.NewGaugeVecFunc("srdaslo_burn_rate",
			"Short-window burn rate per objective and window.",
			[]string{"objective", "window"}, e.burnSamples)
	}
	return e
}

func (e *SLOEngine) countState(state string) int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var n int64
	//srdalint:ignore maprange counting states; the sum is order-insensitive
	for _, a := range e.alerts {
		if a.State == state {
			n++
		}
	}
	return n
}

func (e *SLOEngine) burnSamples() []obs.GaugeSample {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]obs.GaugeSample, 0, len(e.keys))
	for _, key := range e.keys {
		a := e.alerts[key]
		out = append(out, obs.GaugeSample{Labels: []string{a.Objective, a.Window}, Value: a.Burn})
	}
	return out
}

// Alerts returns every alert sorted by objective then window.
func (e *SLOEngine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.keys))
	for _, key := range e.keys {
		out = append(out, *e.alerts[key])
	}
	return out
}

// Handler serves the alert table as JSON (the /debug/alerts endpoint).
func (e *SLOEngine) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		alerts := e.Alerts()
		if alerts == nil {
			alerts = []Alert{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Alerts []Alert `json:"alerts"`
		}{alerts})
	}
}

// Evaluate runs one pass: compute each objective's burn over every
// window pair at now, then step each alert's state machine.
func (e *SLOEngine) Evaluate(now time.Time) {
	if e == nil {
		return
	}
	if e.mx != nil {
		e.mx.evals.Inc()
	}
	for _, o := range e.cfg.Objectives {
		for _, w := range e.cfg.Windows {
			short := e.burnRate(o, time.Duration(w.ShortSeconds*float64(time.Second)), now)
			long := e.burnRate(o, time.Duration(w.LongSeconds*float64(time.Second)), now)
			e.step(o, w, short, long, now)
		}
	}
}

// burnRate computes how fast the objective's error budget is burning
// over the trailing window: observed bad fraction divided by the
// budget (1 − target).  Burn 1 means "spending the budget exactly at
// the sustainable rate"; 14.4 means the whole budget would be gone in
// 1/14.4 of the SLO period.
func (e *SLOEngine) burnRate(o Objective, window time.Duration, now time.Time) float64 {
	from := now.Add(-window)
	var badFrac float64
	switch o.Kind {
	case KindAvailability:
		var total, bad float64
		for _, si := range e.store.Query(o.Metric) {
			inc := IncreaseOver(si.Points, from, now)
			total += inc
			if code := si.Label(o.CodeLabel); strings.HasPrefix(code, "5") {
				bad += inc
			}
		}
		if total <= 0 {
			return 0 // no traffic burns no budget
		}
		badFrac = bad / total
	case KindLatencyP99:
		// Worst offending series wins: one slow replica is a breach
		// even when the fleet average looks fine.
		for _, si := range e.store.Query(o.Metric) {
			frac, n := FractionOver(si.Points, o.ThresholdSeconds, from, now)
			if n > 0 && frac > badFrac {
				badFrac = frac
			}
		}
	}
	budget := 1 - o.Target
	if budget <= 0 {
		return 0
	}
	burn := badFrac / budget
	if math.IsNaN(burn) || math.IsInf(burn, 0) {
		return 0
	}
	return burn
}

// step advances one alert's state machine.
func (e *SLOEngine) step(o Objective, w BurnWindow, short, long float64, now time.Time) {
	cond := short >= w.Burn && long >= w.Burn
	pendingFor := time.Duration(o.PendingForSeconds * float64(time.Second))

	e.mu.Lock()
	a := e.alerts[o.Name+"/"+w.Name]
	a.Burn, a.LongBurn = short, long
	var fired bool
	switch a.State {
	case StateInactive, StateResolved:
		if cond {
			e.transitionLocked(a, StatePending, now)
		}
	case StatePending:
		if !cond {
			e.transitionLocked(a, StateInactive, now)
		} else if now.Sub(a.Since) >= pendingFor {
			e.transitionLocked(a, StateFiring, now)
			a.FiredAt = now
			fired = true
		}
	case StateFiring:
		if !cond {
			e.transitionLocked(a, StateResolved, now)
		}
	}
	e.mu.Unlock()

	if fired {
		e.logger.Warn("SLO burn-rate alert firing",
			"objective", o.Name, "window", w.Name,
			"burn", fmt.Sprintf("%.2f", short), "threshold", fmt.Sprintf("%.2f", w.Burn))
		e.flight.NoteSLOBurn(short, w.Burn)
	}
}

// transitionLocked moves an alert to a new state; caller holds e.mu.
func (e *SLOEngine) transitionLocked(a *Alert, state string, now time.Time) {
	a.State = state
	a.Since = now
	a.Transitions++
	if e.mx != nil {
		e.mx.transitions.With(a.Objective, a.Window, state).Inc()
	}
}
