// Command perfbench is the repository benchmark.  It builds each workload's
// inputs from a seed, drives the srda program through its public
// constructors for a fixed time, checks every answer, and prints one JSON
// line with the operations attempted and failed and the metrics named in
// BENCHMARK.json.
//
//	perfbench --workload fit-sparse --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
// run is split into an untraced half and a traced half, then probes the
// layers at the workload's shape, and prints the per-layer metrics; the
// spans are written to <workdir>/trace-<workload>-<seed>.json.  See
// README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"srda/internal/router"
)

// decl names one printed metric and its unit; BENCHMARK.json declares the
// same names and units.
type decl struct{ name, unit string }

// endToEnd lists what a user of the system sees.  Every untraced run
// prints all of them (README.md gives each one's meaning per workload).
var endToEnd = []decl{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"samples_per_s", "1/s"},
	{"observe_per_s", "1/s"},
	{"holdout_error_pct", "%"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the traced run's layer metrics.  A layer that a
// workload never calls reads 0 on that workload.
var perLayer = []decl{
	{"regress.lsqr_ms", "ms"},
	{"solver.lsqr_iters", "count"},
	{"sparse.x_passes", "count"},
	{"sparse.matvec_us", "us"},
	{"sparse.matvec_t_us", "us"},
	{"sparse.gbytes_per_s_computed", "GB/s"},
	{"core.responses_ms", "ms"},
	{"core.centroids_ms", "ms"},
	{"core.fit_gflops", "GFLOP/s"},
	{"core.fitstats_ms", "ms"},
	{"core.predict_batch_us", "us"},
	{"mat.gram_ms", "ms"},
	{"mat.gram_gflops", "GFLOP/s"},
	{"decomp.cholesky_ms", "ms"},
	{"decomp.cholesky_gflops", "GFLOP/s"},
	{"pool.speedup", "x"},
	{"serve.json_encode_us", "us"},
	{"serve.json_decode_us", "us"},
	{"serve.body_kb", "KiB"},
	{"serve.http_worker_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.predict_us", "us"},
	{"serve.batch_size_mean", "count"},
	{"serve.queue_rejects", "count"},
	{"router.http_hop_us", "us"},
	{"router.local_us", "us"},
	{"router.self_us", "us"},
	{"router.sheds", "count"},
	{"online.observe_us", "us"},
	{"online.refit_ms", "ms"},
	{"online.refits", "count"},
	{"registry.publish_us", "us"},
	{"loadgen.lag_p90_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	values map[string]float64
	notes  []string // why ops failed, printed to stderr
}

func newResult() *result {
	return &result{Correct: true, values: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// op counts one attempted operation or end-of-run check; a non-empty
// reason marks it failed.
func (r *result) op(reason string) {
	r.Attempted++
	if reason == "" {
		return
	}
	r.Failed++
	r.Correct = false
	if len(r.notes) < 20 {
		r.notes = append(r.notes, reason)
	}
}

// expect counts one operation that failed with reason unless ok.
func (r *result) expect(ok bool, reason string) {
	if ok {
		reason = ""
	}
	r.op(reason)
}

// finish fills Metrics with the declared set for the mode.  A missing
// end-to-end value is a benchmark bug; a missing layer value means the
// workload never calls that layer, and reads 0.
func (r *result) finish(trace bool) error {
	decls, zeroOK := endToEnd, false
	if trace {
		decls, zeroOK = perLayer, true
	}
	r.Metrics = make(map[string]metric, len(decls))
	for _, d := range decls {
		v, ok := r.values[d.name]
		if !ok && !zeroOK {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if r.Attempted == 0 {
		return errors.New("no operation was attempted")
	}
	return nil
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	outDir   string // span dumps
	inputDir string // generated input files, removed after the run
	// wrapBackend, when set, decorates the router's worker backend on the
	// serving workloads; the fault-injection test flips a class with it.
	wrapBackend func(router.Backend) router.Backend
}

// workloads maps each name in BENCHMARK.json to the function that runs it.
var workloads = map[string]func(cfg config, res *result) error{
	"fit-sparse":   runFitSparse,
	"fit-dense":    runFitDense,
	"serve-bulk":   runServeBulk,
	"serve-online": runServeOnline,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fit-sparse, fit-dense, serve-bulk or serve-online")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measured time of the run")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	workDir := fs.String("workdir", ".bench_build", "directory for generated input files and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		outDir:   *workDir,
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintf(stderr, "perfbench: failed: %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runWorkload runs one workload with its inputs in a fresh directory
// under cfg.outDir, which it removes afterwards.
func runWorkload(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "inputs-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }() // generated inputs; nothing to keep
	cfg.inputDir = dir
	res := newResult()
	if err := workloads[cfg.workload](cfg, res); err != nil {
		return nil, err
	}
	if err := res.finish(cfg.trace); err != nil {
		return nil, err
	}
	return res, nil
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg config) string {
	return filepath.Join(cfg.outDir, "trace-"+cfg.workload+"-"+strconv.FormatInt(cfg.seed, 10)+".json")
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// releaseInputs returns the memory freed since input generation to the
// OS, so peak_rss_mb does not count the generator's working memory.
func releaseInputs() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetHWM restarts the kernel's resident-set high-water mark (VmHWM).
func resetHWM() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// watchRSS records the resident-set high-water mark of successive windows
// of length every, until the returned stop is called.  peak_rss_mb is the
// median window, so the collector's timing in one window does not decide
// it.
func watchRSS(every time.Duration) (stop func() ([]float64, error)) {
	done := make(chan struct{})
	var (
		mb  []float64
		err = resetHWM()
		wg  sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for err == nil {
			select {
			case <-done:
				return
			case <-tick.C:
				var v float64
				if v, err = peakRSSMiB(); err == nil {
					mb = append(mb, v)
					err = resetHWM()
				}
			}
		}
	}()
	return func() ([]float64, error) {
		close(done)
		wg.Wait()
		if err == nil && len(mb) == 0 {
			err = errors.New("measured phase shorter than one memory window")
		}
		return mb, err
	}
}

// timeIt returns fn's wall time in seconds.
func timeIt(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// overheadPct compares the traced half's median op time with the
// untraced half's.
func overheadPct(untraced, traced []float64) float64 {
	return 100 * (median(traced) - median(untraced)) / median(untraced)
}
