package telemetry

import (
	"context"
	"testing"
	"time"

	"srda/internal/obs"
)

var t0 = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

func at(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }

func pts(pairs ...float64) []Point {
	out := make([]Point, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, Point{T: at(int(pairs[i])), V: pairs[i+1]})
	}
	return out
}

func TestStoreRingBounds(t *testing.T) {
	st := NewStore(4)
	fam := []obs.PromFamily{{Name: "m", Type: "counter", Samples: []obs.PromSample{{Name: "m", Value: 0}}}}
	for i := 0; i < 10; i++ {
		fam[0].Samples[0].Value = float64(i)
		st.Ingest(at(i), fam)
	}
	snap := st.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("series count = %d", len(snap))
	}
	got := snap[0].Points
	if len(got) != 4 {
		t.Fatalf("ring retained %d points, want 4", len(got))
	}
	// Oldest-first, the last 4 ingested.
	for i, p := range got {
		if want := float64(6 + i); p.V != want {
			t.Errorf("point %d = %v, want %v", i, p.V, want)
		}
	}
}

// TestRegistryTargetScrape: a federator scraping a RegistryTarget
// renders the registry, parses it back through the shared grammar, and
// ingests one replica-tagged point per series.
func TestRegistryTargetScrape(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.NewCounter("srdatest_total", "Test counter.")
	vec := reg.NewCounterVec("srdatest_by_code", "By code.", "code")
	c.Add(3)
	vec.With("200").Add(2)
	vec.With("503").Inc()

	f := NewFederator([]Target{RegistryTarget("w0", nil, reg)}, FederatorOptions{PointsPerSeries: 8})
	f.Scrape(context.Background(), at(0))
	c.Add(1)
	f.Scrape(context.Background(), at(15))
	st := f.Store()
	if n := st.SeriesCount(); n != 3 {
		t.Fatalf("series = %d, want 3", n)
	}
	q := st.Query("srdatest_by_code")
	if len(q) != 2 {
		t.Fatalf("by_code series = %d", len(q))
	}
	// Query is sorted by canonical key: code="200" before code="503".
	if q[0].Label("code") != "200" || q[1].Label("code") != "503" || q[0].Label(ReplicaLabel) != "w0" {
		t.Errorf("query order: %q, %q", q[0].Key, q[1].Key)
	}
	total := st.Query("srdatest_total")
	if len(total) != 1 || len(total[0].Points) != 2 {
		t.Fatalf("total series = %+v", total)
	}
	if inc := IncreaseOver(total[0].Points, at(0), at(15)); inc != 1 {
		t.Errorf("increase = %v, want 1", inc)
	}
}

func TestIncreaseOver(t *testing.T) {
	cases := []struct {
		name     string
		points   []Point
		from, to int
		want     float64
	}{
		{"simple", pts(0, 10, 10, 14, 20, 20), 0, 20, 10},
		{"baseline before window", pts(0, 10, 10, 14, 20, 20), 5, 20, 10},
		{"window excludes tail", pts(0, 10, 10, 14, 20, 20), 0, 10, 4},
		{"counter reset", pts(0, 10, 10, 2, 20, 5), 0, 20, 3},
		{"no points in window", pts(0, 10), 10, 20, 0},
		{"empty", nil, 0, 20, 0},
		{"single point no baseline", pts(15, 7), 10, 20, 0},
	}
	for _, c := range cases {
		if got := IncreaseOver(c.points, at(c.from), at(c.to)); got != c.want {
			t.Errorf("%s: increase = %v, want %v", c.name, got, c.want)
		}
	}
	if r := RateOver(pts(0, 0, 10, 20), at(0), at(10)); r != 2 {
		t.Errorf("rate = %v, want 2", r)
	}
}

func TestFractionOver(t *testing.T) {
	p := pts(1, 0.1, 2, 0.9, 3, 0.9, 4, 0.2)
	frac, n := FractionOver(p, 0.5, at(0), at(4))
	if n != 4 || frac != 0.5 {
		t.Errorf("frac = %v over %d points, want 0.5 over 4", frac, n)
	}
	frac, n = FractionOver(p, 0.5, at(2), at(4))
	if n != 2 || frac != 0.5 {
		t.Errorf("windowed frac = %v over %d, want 0.5 over 2", frac, n)
	}
	if _, n := FractionOver(p, 0.5, at(10), at(20)); n != 0 {
		t.Errorf("empty window counted %d points", n)
	}
}

// TestStartPoller: fn sees every tick in order, and closing stop ends
// the loop with ticks still open, as a time.Ticker's channel stays.
func TestStartPoller(t *testing.T) {
	ticks, stop := make(chan time.Time), make(chan struct{})
	var got []time.Time
	done := StartPoller(ticks, stop, func(now time.Time) { got = append(got, now) })
	ticks <- at(1)
	ticks <- at(2)
	close(stop)
	<-done
	if len(got) != 2 || !got[0].Equal(at(1)) || !got[1].Equal(at(2)) {
		t.Errorf("poller saw %v", got)
	}
}
