package telemetry

// The /cluster/snapshot document: one JSON object describing the fleet
// at a scrape instant — per-replica status and derived rates, merged
// cluster quantiles, and the SLO alert table.  srdareport top renders
// it; anything else (dashboards, scripts) can consume it too, which is
// why it carries a schema tag like the flight bundles do.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"srda/internal/obs"
)

// ClusterSchema is the snapshot schema identifier.
const ClusterSchema = "srda-cluster/v1"

// ReplicaStatus is one row of the fleet table.
type ReplicaStatus struct {
	Replica     string    `json:"replica"`
	Up          bool      `json:"up"`
	LastScrape  time.Time `json:"last_scrape"`
	Error       string    `json:"error,omitempty"`
	RequestRate float64   `json:"request_rate"` // req/s over the rate window
	ErrorRate   float64   `json:"error_rate"`   // 5xx/s over the rate window
	P99Seconds  float64   `json:"p99_seconds"`
	QueueDepth  float64   `json:"queue_depth"`
}

// ClusterQuantile is one merged cluster-level sketch.
type ClusterQuantile struct {
	Metric string  `json:"metric"`
	Count  int     `json:"count"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
}

// ClusterSnapshot is the /cluster/snapshot document.
type ClusterSnapshot struct {
	Schema    string            `json:"schema"`
	Time      time.Time         `json:"time"`
	Replicas  []ReplicaStatus   `json:"replicas"`
	Quantiles []ClusterQuantile `json:"quantiles"`
	Alerts    []Alert           `json:"alerts"`
	Series    int               `json:"series"`
}

// Snapshot assembles the cluster document at now.  Rates are computed
// over the federator's RateWindow ending at now; gauge columns take
// each series' latest point.
func (f *Federator) Snapshot(now time.Time) ClusterSnapshot {
	f.mu.Lock()
	replicas := sortedKeys(f.status)
	status := make(map[string]replicaScrape, len(replicas))
	//srdalint:ignore maprange copying into another map; row order comes from the sorted replica list
	for name, st := range f.status {
		status[name] = *st
	}
	slo := f.slo
	f.mu.Unlock()

	from := now.Add(-f.opts.RateWindow)
	rows := make([]ReplicaStatus, 0, len(replicas))
	byReplica := make(map[string]*ReplicaStatus, len(replicas))
	for _, name := range replicas {
		st := status[name]
		rows = append(rows, ReplicaStatus{
			Replica:    name,
			Up:         st.up,
			LastScrape: st.lastScrape,
			Error:      st.lastErr,
		})
		byReplica[name] = &rows[len(rows)-1]
	}
	for _, si := range f.store.Query(fleetRequestsMetric) {
		row, ok := byReplica[si.Label(ReplicaLabel)]
		if !ok {
			continue
		}
		rate := RateOver(si.Points, from, now)
		row.RequestRate += rate
		if strings.HasPrefix(si.Label("code"), "5") {
			row.ErrorRate += rate
		}
	}
	for _, si := range f.store.Query(fleetP99Metric) {
		if row, ok := byReplica[si.Label(ReplicaLabel)]; ok {
			if p, haveP := si.Latest(); haveP {
				row.P99Seconds = nanToZero(p.V)
			}
		}
	}
	for _, si := range f.store.Query(fleetQueueMetric) {
		if row, ok := byReplica[si.Label(ReplicaLabel)]; ok {
			if p, haveP := si.Latest(); haveP {
				row.QueueDepth = nanToZero(p.V)
			}
		}
	}

	snap := ClusterSnapshot{
		Schema:    ClusterSchema,
		Time:      now.UTC(),
		Replicas:  rows,
		Quantiles: f.mergedSketches(),
		Alerts:    slo.Alerts(),
		Series:    f.store.SeriesCount(),
	}
	if snap.Quantiles == nil {
		snap.Quantiles = []ClusterQuantile{}
	}
	if snap.Alerts == nil {
		snap.Alerts = []Alert{}
	}
	return snap
}

// ValidateClusterSnapshot parses data as exactly one ClusterSnapshot
// document and checks the schema — the contract srdareport top holds
// server replies to.  A field the schema does not declare, or anything
// after the document, is an error.
func ValidateClusterSnapshot(data []byte) (*ClusterSnapshot, error) {
	var snap ClusterSnapshot
	if err := obs.DecodeStrict(data, &snap); err != nil {
		return nil, fmt.Errorf("telemetry: cluster snapshot is not valid JSON for the schema: %w", err)
	}
	if snap.Schema != ClusterSchema {
		return nil, &SchemaError{Got: snap.Schema, Want: ClusterSchema}
	}
	return &snap, nil
}

// SchemaError reports a snapshot document with the wrong schema tag.
type SchemaError struct{ Got, Want string }

func (e *SchemaError) Error() string {
	return "telemetry: cluster snapshot schema " + strconv.Quote(e.Got) + ", want " + strconv.Quote(e.Want)
}

// SnapshotHandler serves /cluster/snapshot.
func (f *Federator) SnapshotHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(f.Snapshot(f.clock()))
	}
}
