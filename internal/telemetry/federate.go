package telemetry

// Federation: the router role scrapes every replica's /metrics through
// the shared text grammar, tags each sample with a replica label,
// ingests the result into one cluster store, and merges the replicas'
// CKMS sketch snapshots into cluster-level quantiles.  The merged view
// is re-exposed two ways: /cluster/metrics (the latest value of every
// federated series as deterministic Prometheus text — families sorted
// by name, samples by canonical key) and /cluster/snapshot (the JSON
// document srdareport top renders: replica status, derived rates and
// the merged quantiles).

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"srda/internal/obs"
)

// Fleet-view metric contract: the worker series the replica table in
// /cluster/snapshot is computed from.  A worker that renames these
// still federates fine — the table just loses the derived columns.
const (
	fleetRequestsMetric = "srdaserve_requests_total"
	fleetP99Metric      = "srdaserve_request_latency_p99"
	fleetQueueMetric    = "srdaserve_queue_depth"
	// ReplicaLabel tags every federated sample with its source replica.
	ReplicaLabel = "replica"
)

// Target is one scrape target: a replica's exposition plus (optionally)
// its quantile-sketch snapshots.
type Target struct {
	// Replica names the target; it becomes the replica label value.
	Replica string
	// Fetch returns the /metrics exposition bytes.
	Fetch func(ctx context.Context) ([]byte, error)
	// Sketches returns the replica's sketch snapshots keyed by metric
	// base name; nil means the target does not export sketches.
	Sketches func(ctx context.Context) (map[string]obs.SketchSnapshot, error)
}

// RegistryTarget adapts in-process registries (the co-located "all"
// role): Fetch renders them directly, no HTTP round trip.
func RegistryTarget(replica string, sketches func() map[string]obs.SketchSnapshot, regs ...*obs.Registry) Target {
	t := Target{
		Replica: replica,
		Fetch: func(context.Context) ([]byte, error) {
			var sb strings.Builder
			for _, reg := range regs {
				if reg != nil {
					reg.WritePrometheus(&sb)
				}
			}
			return []byte(sb.String()), nil
		},
	}
	if sketches != nil {
		t.Sketches = func(context.Context) (map[string]obs.SketchSnapshot, error) {
			return sketches(), nil
		}
	}
	return t
}

// SketchClient fetches sketch snapshots over HTTP; *serve.Client
// satisfies it.
type SketchClient interface {
	Sketches(ctx context.Context) (map[string]obs.SketchSnapshot, error)
}

// MetricsClient fetches a /metrics exposition; *serve.Client satisfies
// it.
type MetricsClient interface {
	Metrics(ctx context.Context) (string, error)
}

// ClientTarget adapts a typed worker client (serve.Client or anything
// implementing the two fetch interfaces) into a scrape target.
func ClientTarget(replica string, mc MetricsClient, sc SketchClient) Target {
	t := Target{
		Replica: replica,
		Fetch: func(ctx context.Context) ([]byte, error) {
			text, err := mc.Metrics(ctx)
			return []byte(text), err
		},
	}
	if sc != nil {
		t.Sketches = sc.Sketches
	}
	return t
}

// replicaScrape is the per-target scrape status.
type replicaScrape struct {
	up         bool
	lastScrape time.Time
	lastErr    string
}

// FederatorOptions configures a Federator.
type FederatorOptions struct {
	// Clock stamps scrapes and snapshot documents; obs.SystemClock()
	// when nil.  Tests inject a frozen clock for byte-determinism.
	Clock obs.Clock
	// PointsPerSeries sizes the cluster store's rings
	// (DefaultPointsPerSeries when 0).
	PointsPerSeries int
	// RateWindow is the trailing window the replica table's request and
	// error rates are computed over (default 60s).
	RateWindow time.Duration
	// Logger receives scrape failures.  Nil disables.
	Logger *obs.Logger
}

// Federator scrapes a fixed target set into one cluster store.
type Federator struct {
	opts  FederatorOptions
	clock obs.Clock
	store *Store

	mu       sync.Mutex
	targets  []Target
	status   map[string]*replicaScrape
	sketches map[string]map[string]obs.SketchSnapshot // replica -> metric -> snapshot
	slo      *SLOEngine
}

// NewFederator builds a federator over the given targets.
func NewFederator(targets []Target, opts FederatorOptions) *Federator {
	clock := opts.Clock
	if clock == nil {
		clock = obs.SystemClock()
	}
	if opts.RateWindow <= 0 {
		opts.RateWindow = time.Minute
	}
	f := &Federator{
		opts:     opts,
		clock:    clock,
		store:    NewStore(opts.PointsPerSeries),
		targets:  append([]Target(nil), targets...),
		status:   make(map[string]*replicaScrape, len(targets)),
		sketches: make(map[string]map[string]obs.SketchSnapshot),
	}
	for _, t := range targets {
		f.status[t.Replica] = &replicaScrape{}
	}
	return f
}

// Store returns the cluster store the federator ingests into — the SLO
// engine in the router role evaluates against it.
func (f *Federator) Store() *Store { return f.store }

// AttachSLO links an engine so /cluster/snapshot includes its alerts
// and Scrape evaluates it after each ingest pass.
func (f *Federator) AttachSLO(e *SLOEngine) {
	f.mu.Lock()
	f.slo = e
	f.mu.Unlock()
}

// Scrape pulls every target once at now: fetch, parse, tag with the
// replica label, ingest; then fetch sketch snapshots; then (with an
// attached SLO engine) evaluate alerts against the updated store.  A
// failing target marks its replica down and keeps its stale series —
// gaps, not zeros.
func (f *Federator) Scrape(ctx context.Context, now time.Time) {
	f.mu.Lock()
	targets := append([]Target(nil), f.targets...)
	slo := f.slo
	f.mu.Unlock()

	for _, t := range targets {
		err := f.scrapeOne(ctx, t, now)
		f.mu.Lock()
		st := f.status[t.Replica]
		st.lastScrape = now
		if err != nil {
			st.up = false
			st.lastErr = err.Error()
		} else {
			st.up = true
			st.lastErr = ""
		}
		f.mu.Unlock()
		if err != nil {
			f.opts.Logger.Warn("federation scrape failed", "replica", t.Replica, "err", err.Error())
		}
	}
	slo.Evaluate(now)
}

func (f *Federator) scrapeOne(ctx context.Context, t Target, now time.Time) error {
	data, err := t.Fetch(ctx)
	if err != nil {
		return fmt.Errorf("fetching metrics: %w", err)
	}
	fams, err := obs.ParsePrometheus(data)
	if err != nil {
		return fmt.Errorf("parsing metrics: %w", err)
	}
	tagged := make([]obs.PromFamily, len(fams))
	for i, fam := range fams {
		tagged[i] = obs.PromFamily{Name: fam.Name, Help: fam.Help, Type: fam.Type}
		tagged[i].Samples = make([]obs.PromSample, len(fam.Samples))
		for j, smp := range fam.Samples {
			labels := make([]obs.PromLabel, 0, len(smp.Labels)+1)
			for _, l := range smp.Labels {
				// A scraped series may already carry a replica label (the
				// router's own srdaroute_* set does); rename it the way
				// Prometheus federation does so the target tag never
				// collides into a duplicate label name.
				if l.Name == ReplicaLabel {
					l.Name = "exported_" + ReplicaLabel
				}
				labels = append(labels, l)
			}
			labels = append(labels, obs.PromLabel{Name: ReplicaLabel, Value: t.Replica})
			tagged[i].Samples[j] = obs.PromSample{Name: smp.Name, Labels: labels, Value: smp.Value}
		}
	}
	f.store.Ingest(now, tagged)

	if t.Sketches != nil {
		snaps, err := t.Sketches(ctx)
		if err != nil {
			return fmt.Errorf("fetching sketches: %w", err)
		}
		f.mu.Lock()
		f.sketches[t.Replica] = snaps
		f.mu.Unlock()
	}
	return nil
}

// mergedSketches merges the latest per-replica snapshots per metric,
// metric names sorted.
func (f *Federator) mergedSketches() []ClusterQuantile {
	f.mu.Lock()
	byMetric := make(map[string][]obs.SketchSnapshot)
	for _, replica := range sortedKeys(f.sketches) {
		//srdalint:ignore maprange building another map; output order comes from the sortedKeys pass below
		for metric, snap := range f.sketches[replica] {
			byMetric[metric] = append(byMetric[metric], snap)
		}
	}
	f.mu.Unlock()
	out := make([]ClusterQuantile, 0, len(byMetric))
	for _, metric := range sortedKeys(byMetric) {
		merged := obs.MergeSketches(byMetric[metric]...)
		if merged.Count() == 0 {
			continue
		}
		out = append(out, ClusterQuantile{
			Metric: metric,
			Count:  merged.Count(),
			P50:    nanToZero(merged.Query(0.5)),
			P95:    nanToZero(merged.Query(0.95)),
			P99:    nanToZero(merged.Query(0.99)),
		})
	}
	return out
}

// WriteClusterMetrics renders the latest value of every federated
// series under its family's TYPE line (a histogram's _bucket, _sum and
// _count samples under the one base name) — families sorted by name,
// samples by canonical key, so two
// routers scraping the same fleet at the same frozen instant produce
// identical bytes (the golden test's contract).
func (f *Federator) WriteClusterMetrics(w io.Writer) {
	type famOut struct {
		typ   string
		lines []string
	}
	fams := make(map[string]*famOut)
	for _, si := range f.store.Snapshot() {
		latest, ok := si.Latest()
		if !ok {
			continue
		}
		fo, ok := fams[si.family]
		if !ok {
			fo = &famOut{typ: si.Type}
			fams[si.family] = fo
		}
		fo.lines = append(fo.lines, si.Key+" "+formatValue(latest.V))
	}
	for _, name := range sortedKeys(fams) {
		fo := fams[name]
		fmt.Fprintf(w, "# TYPE %s %s\n", name, fo.typ)
		sort.Strings(fo.lines)
		for _, line := range fo.lines {
			fmt.Fprintln(w, line)
		}
	}
}

// MetricsHandler serves /cluster/metrics.
func (f *Federator) MetricsHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", obs.PromContentType)
		f.WriteClusterMetrics(w)
	}
}

// formatValue renders a sample value deterministically; integral
// values drop the fraction the way obs's own writer does.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func nanToZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
