// Package registry is the multi-tenant model store behind the sharded
// serving tier: one process holding many named, versioned SRDA models.
// "Millions of users" means many models, not just many requests — the
// paper's linear-time training makes per-tenant refits cheap, and this
// package is where those refits land.
//
// Each name carries a monotonically increasing version history.  Publish
// installs a new version atomically (readers mid-predict keep the model
// pointer they loaded, exactly like the single-model hot-reload path it
// generalizes); Rollback re-publishes the previous version under a fresh
// version number, so the version counter — and the model_seq gauge built
// on it — never moves backwards.  A byte budget bounds resident model
// memory: publishing past it evicts the least-recently-used names
// (never the one being published).
//
// The registry is safe for concurrent use; Get on the predict hot path
// takes only a read lock plus one atomic store for LRU accounting.
package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"srda/internal/core"
	"srda/internal/obs"
)

// DefaultName is the name a worker serves when a request names no
// model, and the name its co-located streaming trainer publishes to.
const DefaultName = "default"

// keepVersions bounds the per-name history retained for Rollback: the
// live version and its predecessor.
const keepVersions = 2

// Options tunes a registry.  The zero value means: no byte budget,
// models keep their own Workers setting.
type Options struct {
	// MaxBytes caps the estimated resident bytes of all live versions;
	// 0 means unlimited.  Publishing past the budget evicts
	// least-recently-used names until the new total fits (the name being
	// published is never evicted, even if it alone exceeds the budget).
	MaxBytes int64
	// Workers is stamped onto every published model's Workers knob so
	// batch projection sharding follows the server's worker budget
	// (0 leaves models untouched).
	Workers int
	// Logger receives publish/evict/rollback outcomes.  Nil disables
	// logging.
	Logger *obs.Logger
}

// Snapshot is one immutable published version, the unit Get hands to the
// predict path.  Fields are never mutated after publish.
type Snapshot struct {
	// Name is the model's registry name (the tenant key the router
	// hashes).
	Name string
	// Model is the trained, centroided model.
	Model *core.Model
	// Version is the per-name monotonic publish counter (1 for the first
	// publish; rollbacks also advance it).
	Version uint64
	// Bytes is the estimated resident size charged against the budget.
	Bytes int64
	// LoadedAt records when this version was published.
	LoadedAt time.Time
}

// entry is one name's version history plus its LRU accounting.
type entry struct {
	versions []*Snapshot // oldest first; last is live
	lastUsed atomic.Uint64
}

func (e *entry) live() *Snapshot { return e.versions[len(e.versions)-1] }

// Registry is the concurrent model store.  Construct with New.
type Registry struct {
	mu     sync.RWMutex
	opts   Options
	models map[string]*entry
	bytes  int64 // sum of live-version bytes across all names
	clock  atomic.Uint64
	mx     *Metrics
}

// New creates an empty registry with its own metrics instruments.
func New(opts Options) *Registry {
	return &Registry{
		opts:   opts,
		models: make(map[string]*entry),
		mx:     newMetrics(),
	}
}

// Metrics returns the registry's obs instrument set; the serving layer
// appends its exposition to /metrics.
func (r *Registry) Metrics() *obs.Registry { return r.mx.reg }

// EstimateBytes approximates a model's resident size: the projection
// matrix, intercepts, and centroids dominate, all float64.
func EstimateBytes(m *core.Model) int64 {
	if m == nil {
		return 0
	}
	n := int64(len(m.B))
	if m.W != nil {
		n += int64(len(m.W.Data))
	}
	if m.Centroids != nil {
		// The projection path also caches Wᵀ, so W is resident twice.
		n += int64(len(m.Centroids.Data))
		if m.W != nil {
			n += int64(len(m.W.Data))
		}
	}
	return n * 8
}

// Publish installs m as the next version of name and returns its
// snapshot.  The model must carry class centroids (i.e. come from
// Fit/FitCSR or a file they saved): the registry exists to serve, and a
// centroid-less model cannot classify.
func (r *Registry) Publish(name string, m *core.Model) (*Snapshot, error) {
	if name == "" {
		return nil, fmt.Errorf("registry: empty model name")
	}
	if m == nil {
		return nil, fmt.Errorf("registry: nil model for %q", name)
	}
	if m.Centroids == nil {
		return nil, fmt.Errorf("registry: model %q carries no class centroids; retrain with srda.Fit/FitCSR or srdatrain", name)
	}
	if r.opts.Workers > 0 {
		m.Workers = r.opts.Workers
	}
	snap := &Snapshot{
		Name:     name,
		Model:    m,
		Bytes:    EstimateBytes(m),
		LoadedAt: time.Now(),
	}
	r.mu.Lock()
	e := r.models[name]
	if e == nil {
		e = &entry{}
		r.models[name] = e
	} else {
		r.bytes -= e.live().Bytes
	}
	snap.Version = 1
	if len(e.versions) > 0 {
		snap.Version = e.live().Version + 1
	}
	e.versions = append(e.versions, snap)
	if over := len(e.versions) - keepVersions; over > 0 {
		e.versions = append([]*Snapshot(nil), e.versions[over:]...)
	}
	r.bytes += snap.Bytes
	e.lastUsed.Store(r.clock.Add(1))
	evicted := r.evictLocked(name)
	r.mu.Unlock()

	r.mx.publishes.With(name).Inc()
	r.updateGauges()
	r.opts.Logger.Info("model published", "model", name,
		"version", snap.Version, "bytes", snap.Bytes)
	for _, ev := range evicted {
		r.mx.evictions.Inc()
		r.opts.Logger.Warn("model evicted over byte budget", "model", ev,
			"budget_bytes", r.opts.MaxBytes)
	}
	return snap, nil
}

// evictLocked drops least-recently-used names (never keep) until the
// budget holds, returning the evicted names.  Caller holds r.mu.
func (r *Registry) evictLocked(keep string) []string {
	if r.opts.MaxBytes <= 0 {
		return nil
	}
	var evicted []string
	for r.bytes > r.opts.MaxBytes {
		victim := ""
		var oldest uint64
		//srdalint:ignore maprange min-by-(lastUsed, name) selection reads every entry; the name tie-break makes the pick order-free
		for name, e := range r.models {
			if name == keep {
				continue
			}
			if u := e.lastUsed.Load(); victim == "" || u < oldest || (u == oldest && name < victim) {
				victim, oldest = name, u
			}
		}
		if victim == "" {
			return evicted // only keep remains; it may exceed the budget alone
		}
		r.bytes -= r.models[victim].live().Bytes
		delete(r.models, victim)
		evicted = append(evicted, victim)
	}
	return evicted
}

// Get returns the live version of name.  It is the predict hot path:
// a read lock, one map lookup, and an atomic LRU stamp.
func (r *Registry) Get(name string) (*Snapshot, bool) {
	r.mu.RLock()
	e := r.models[name]
	var snap *Snapshot
	if e != nil {
		snap = e.live()
	}
	r.mu.RUnlock()
	if e == nil {
		r.mx.misses.With(name).Inc()
		return nil, false
	}
	e.lastUsed.Store(r.clock.Add(1))
	r.mx.hits.With(name).Inc()
	return snap, true
}

// Rollback re-publishes the previous version of name under a fresh
// version number, so the per-name counter stays monotonic and the swap
// rides the same atomic path as Publish.  In-flight batches finish on
// whichever version they loaded.
func (r *Registry) Rollback(name string) (*Snapshot, error) {
	r.mu.Lock()
	e := r.models[name]
	if e == nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: unknown model %q", name)
	}
	if len(e.versions) < 2 {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: model %q has no previous version to roll back to", name)
	}
	prev := e.versions[len(e.versions)-2]
	cur := e.live()
	snap := &Snapshot{
		Name:     name,
		Model:    prev.Model,
		Version:  cur.Version + 1,
		Bytes:    prev.Bytes,
		LoadedAt: time.Now(),
	}
	r.bytes += snap.Bytes - cur.Bytes
	e.versions = append(e.versions, snap)
	if over := len(e.versions) - keepVersions; over > 0 {
		e.versions = append([]*Snapshot(nil), e.versions[over:]...)
	}
	e.lastUsed.Store(r.clock.Add(1))
	r.mu.Unlock()

	r.mx.rollbacks.With(name).Inc()
	r.updateGauges()
	r.opts.Logger.Info("model rolled back", "model", name, "version", snap.Version)
	return snap, nil
}

// Len returns the number of live names.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}

// Bytes returns the estimated resident bytes of all live versions.
func (r *Registry) Bytes() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.bytes
}

// List returns the live snapshot of every name, sorted by name.
func (r *Registry) List() []*Snapshot {
	r.mu.RLock()
	out := make([]*Snapshot, 0, len(r.models))
	//srdalint:ignore maprange collect-then-sort: the slice is sorted by name immediately below
	for _, e := range r.models {
		out = append(out, e.live())
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// updateGauges refreshes the models/bytes gauges after a mutation.
func (r *Registry) updateGauges() {
	r.mu.RLock()
	n, b := len(r.models), r.bytes
	r.mu.RUnlock()
	r.mx.models.Set(int64(n))
	r.mx.bytes.Set(b)
}

// LoadDir publishes every regular file in dir as a model named after its
// base filename (extension stripped): tenant-a.srda becomes "tenant-a".
// It returns the published names, sorted.  A file that fails to load or
// publish aborts the walk with its error.
func (r *Registry) LoadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("registry: reading model dir: %w", err)
	}
	var names []string
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		name := strings.TrimSuffix(de.Name(), filepath.Ext(de.Name()))
		if name == "" {
			continue
		}
		m, err := core.LoadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			return nil, fmt.Errorf("registry: loading %s: %w", de.Name(), err)
		}
		if _, err := r.Publish(name, m); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
