// Command srdabench regenerates the tables and figures of "Training
// Linear Discriminant Analysis in Linear Time" (Cai, He, Han — ICDE 2008)
// on the synthetic paper-shaped datasets shipped with this repository.
//
// Usage:
//
//	srdabench -exp table3                # one experiment
//	srdabench -exp all                   # everything
//	srdabench -exp fig5 -scale paper     # full paper-sized datasets (slow)
//	srdabench -exp table9 -csv           # machine-readable output
//	srdabench -exp ablation-solver       # beyond-the-paper ablations
//
// Experiments: table1 table2 table3 table4 table5 table6 table7 table8
// table9 table10 fig1 fig2 fig3 fig4 fig5 ablation-solver
// ablation-lsqr-iters ablation-centering ablation-incremental
// ablation-outofcore ablation-scaling ablation-rsvd extended all.
//
// -scale small (default) shrinks every dataset so the whole suite runs in
// minutes on a laptop; -scale paper uses the paper's exact (m, n, c)
// shapes.  Error-rate and timing *shapes* (who wins, by what factor,
// where LDA destabilizes or runs out of memory) are the reproduction
// targets; see EXPERIMENTS.md for the recorded side-by-side.
//
// Observability: -report out.json writes a structured run report with one
// phase per experiment (validate or summarize it with srdareport);
// -profile p writes p.cpu.pprof and p.heap.pprof; -trace t.out writes a
// runtime/trace.  -json-out bench.json skips the experiments and instead
// times the fixed-shape micro-benchmarks (PredictBatch, ParGemm, FitLSQR),
// writing a schema-validated bench report that `srdareport benchdiff`
// compares across commits (`make bench-record` pins one as BENCH_<k>.json).
// See doc/OBSERVABILITY.md.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"srda"
	"srda/internal/obs"
)

type scaleSpec struct {
	pie       srda.PIEConfig
	pieSizes  []int
	isolet    srda.IsoletConfig
	isoSizes  []int
	mnist     srda.MNISTConfig
	mniSizes  []int
	news      srda.NewsConfig
	newsFracs []float64
	// newsMemLimit scales the paper's 2 GB wall down with the dataset so
	// the Table IX/X "—" cells appear at the same relative sizes.
	newsMemLimit float64
}

func scales(seed int64) map[string]scaleSpec {
	return map[string]scaleSpec{
		"small": {
			pie:          srda.PIEConfig{Classes: 20, PerClass: 40, Side: 16, Seed: seed},
			pieSizes:     []int{3, 5, 8, 12, 16, 20},
			isolet:       srda.IsoletConfig{Classes: 12, PerClass: 60, Dim: 160, Seed: seed + 1},
			isoSizes:     []int{5, 8, 12, 18, 25, 35},
			mnist:        srda.MNISTConfig{Classes: 10, PerClass: 100, Side: 16, Seed: seed + 2},
			mniSizes:     []int{8, 12, 20, 30, 40, 50},
			news:         srda.NewsConfig{Classes: 8, Docs: 1600, Vocab: 4000, AvgLen: 60, Seed: seed + 3},
			newsFracs:    []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.50},
			newsMemLimit: 16 << 20,
		},
		"paper": {
			pie:          srda.PIEConfig{Seed: seed}, // 68×170, 32×32
			pieSizes:     []int{10, 20, 30, 40, 50, 60},
			isolet:       srda.IsoletConfig{Seed: seed + 1}, // 26×240, 617
			isoSizes:     []int{20, 30, 50, 70, 90, 110},
			mnist:        srda.MNISTConfig{Seed: seed + 2}, // 10×400, 28×28
			mniSizes:     []int{30, 50, 70, 100, 130, 170},
			news:         srda.NewsConfig{Seed: seed + 3}, // 20×18941, 26214
			newsFracs:    []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.50},
			newsMemLimit: 2 << 30,
		},
	}
}

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id (table1..table10, fig1..fig5, ablation-*, all)")
		scale     = flag.String("scale", "small", "dataset scale: small or paper")
		splits    = flag.Int("splits", 5, "random train/test splits per cell (paper uses 20)")
		seed      = flag.Int64("seed", 2008, "RNG seed")
		csv       = flag.Bool("csv", false, "emit CSV instead of formatted tables")
		algos     = flag.String("algos", "", "comma-separated algorithm subset for the table/figure grids (e.g. \"SRDA,IDR/QR\"); empty = all four")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "parallelism for SRDA fits (kernel sharding and LSQR column groups); results are bitwise identical at any setting")
		report    = flag.String("report", "", "write a structured JSON run report (one phase per experiment) to this path")
		profile   = flag.String("profile", "", "write CPU and heap profiles to <prefix>.cpu.pprof and <prefix>.heap.pprof")
		tracePath = flag.String("trace", "", "write a runtime/trace to this path")
		jsonOut   = flag.String("json-out", "", "run the fixed-shape micro-benchmarks instead of -exp and write the bench report here")
	)
	flag.Parse()

	if *jsonOut != "" {
		if err := runMicroBench(*jsonOut, *workers); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	spec, ok := scales(*seed)[*scale]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scale %q (want small or paper)\n", *scale)
		os.Exit(2)
	}
	b := bench{spec: spec, splits: *splits, seed: *seed, csv: *csv, scale: *scale, workers: *workers}
	if *algos != "" {
		for _, name := range strings.Split(*algos, ",") {
			b.algos = append(b.algos, srda.Algorithm(strings.TrimSpace(name)))
		}
	}

	order := []string{
		"table1", "table2",
		"table3", "table4", "table5", "table6", "table7", "table8",
		"table9", "table10",
		"fig1", "fig2", "fig3", "fig4", "fig5",
		"ablation-solver", "ablation-lsqr-iters", "ablation-centering",
		"ablation-incremental", "ablation-outofcore",
		"ablation-scaling", "ablation-rsvd", "ablation-labelnoise", "extended",
	}
	run := map[string]func() error{
		"table1":               b.table1,
		"table2":               b.table2,
		"table3":               func() error { return b.denseGrid("pie", false) },
		"table4":               func() error { return b.denseGrid("pie", true) },
		"table5":               func() error { return b.denseGrid("isolet", false) },
		"table6":               func() error { return b.denseGrid("isolet", true) },
		"table7":               func() error { return b.denseGrid("mnist", false) },
		"table8":               func() error { return b.denseGrid("mnist", true) },
		"table9":               func() error { return b.newsGrid(false) },
		"table10":              func() error { return b.newsGrid(true) },
		"fig1":                 func() error { return b.figure("pie") },
		"fig2":                 func() error { return b.figure("isolet") },
		"fig3":                 func() error { return b.figure("mnist") },
		"fig4":                 func() error { return b.figure("news") },
		"fig5":                 b.fig5,
		"ablation-solver":      b.ablationSolver,
		"ablation-lsqr-iters":  b.ablationLSQRIters,
		"ablation-centering":   b.ablationCentering,
		"ablation-incremental": b.ablationIncremental,
		"ablation-outofcore":   b.ablationOutOfCore,
		"ablation-scaling":     b.ablationScaling,
		"ablation-rsvd":        b.ablationRSVD,
		"ablation-labelnoise":  b.ablationLabelNoise,
		"extended":             b.extendedComparison,
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = order
	}
	// Validate every id up front so we never exit mid-run with profiling
	// still active and an unflushed trace.
	for _, id := range ids {
		if _, ok := run[id]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(2)
		}
	}
	if err := runExperiments(ids, run, benchObs{
		scale: *scale, splits: *splits, seed: *seed,
		report: *report, profile: *profile, trace: *tracePath,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// benchObs bundles the observability flags plus the run parameters echoed
// into the report's data map.
type benchObs struct {
	scale           string
	splits          int
	seed            int64
	report, profile string
	trace           string
}

// runExperiments executes the selected experiments in order, timing each
// as one report phase, with profiling/tracing active across the whole run.
func runExperiments(ids []string, run map[string]func() error, o benchObs) (err error) {
	stopProfiles, err := obs.StartProfiles(o.profile, o.trace)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()

	begin := time.Now()
	phases := make([]obs.Phase, 0, len(ids))
	for _, id := range ids {
		fmt.Printf("==== %s (scale=%s, splits=%d) ====\n", id, o.scale, o.splits)
		start := time.Now()
		if err := run[id](); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		elapsed := time.Since(start)
		phases = append(phases, obs.Phase{Name: id, Seconds: elapsed.Seconds()})
		fmt.Printf("---- %s done in %s ----\n\n", id, elapsed.Round(time.Millisecond))
	}
	if o.report == "" {
		return nil
	}
	rep := obs.Report{
		Tool:         "srdabench",
		Phases:       phases,
		TotalSeconds: time.Since(begin).Seconds(),
		Data: map[string]float64{
			"experiments": float64(len(ids)),
			"splits":      float64(o.splits),
			"seed":        float64(o.seed),
		},
	}
	if err := rep.WriteFile(o.report); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", o.report)
	return nil
}

type bench struct {
	spec    scaleSpec
	splits  int
	seed    int64
	csv     bool
	scale   string
	workers int
	algos   []srda.Algorithm
	cache   map[string]*srda.Dataset
}

// algorithms returns the grid's algorithm set (the paper's four unless
// -algos narrowed it).
func (b *bench) algorithms() []srda.Algorithm {
	if len(b.algos) > 0 {
		return b.algos
	}
	return srda.AllAlgorithms
}

func (b *bench) dataset(name string) *srda.Dataset {
	if b.cache == nil {
		b.cache = map[string]*srda.Dataset{}
	}
	if ds, ok := b.cache[name]; ok {
		return ds
	}
	var ds *srda.Dataset
	switch name {
	case "pie":
		ds = srda.PIELike(b.spec.pie)
	case "isolet":
		ds = srda.IsoletLike(b.spec.isolet)
	case "mnist":
		ds = srda.MNISTLike(b.spec.mnist)
	case "news":
		ds = srda.NewsLike(b.spec.news)
	default:
		panic("unknown dataset " + name)
	}
	b.cache[name] = ds
	return ds
}

func (b *bench) runner() srda.Runner {
	return srda.Runner{Splits: b.splits, Seed: b.seed, Alpha: 1, LSQRIter: 15, Workers: b.workers}
}

// table1 prints the complexity model for every dataset shape.
func (b *bench) table1() error {
	fmt.Println("Table I — operation counts (flam) and memory of LDA vs SRDA")
	shapes := []struct {
		name string
		p    srda.ComplexityProblem
	}{
		{"PIE (p=60)", srda.ComplexityProblem{M: 60 * 68, N: 1024, C: 68, K: 20, S: 1024}},
		{"Isolet (p=110)", srda.ComplexityProblem{M: 110 * 26, N: 617, C: 26, K: 20, S: 617}},
		{"MNIST (p=170)", srda.ComplexityProblem{M: 1700, N: 784, C: 10, K: 20, S: 784}},
		{"20News (50%)", srda.ComplexityProblem{M: 9470, N: 26214, C: 20, K: 15, S: 80}},
	}
	for _, sh := range shapes {
		fmt.Printf("\n%s: m=%d n=%d c=%d k=%d s=%.0f\n", sh.name, sh.p.M, sh.p.N, sh.p.C, sh.p.K, sh.p.S)
		fmt.Printf("  %-26s %14s %14s\n", "algorithm", "flam", "memory")
		for _, row := range srda.ComplexityTable(sh.p) {
			fmt.Printf("  %-26s %14.3g %13.3gB\n", row.Algorithm, row.Flam, row.Bytes())
		}
		fmt.Printf("  modeled LDA/SRDA speedup: %.2fx (paper's bound: ≤ ~9x)\n", srda.ComplexitySpeedup(sh.p))
	}
	return nil
}

// table2 prints the dataset statistics.
func (b *bench) table2() error {
	fmt.Println("Table II — statistics of the data sets")
	fmt.Printf("%-14s %8s %8s %6s %10s %10s\n", "dataset", "size(m)", "dim(n)", "c", "avg nnz(s)", "density")
	for _, name := range []string{"pie", "isolet", "mnist", "news"} {
		s := b.dataset(name).Describe()
		fmt.Printf("%-14s %8d %8d %6d %10.1f %10.4f\n",
			s.Name, s.Size, s.Dim, s.Classes, s.AvgNNZ, s.SparseRatio)
	}
	return nil
}

func (b *bench) gridFor(name string) (*srda.Grid, error) {
	r := b.runner()
	switch name {
	case "pie":
		return r.RunPerClassGrid(b.dataset("pie"), b.algorithms(), b.spec.pieSizes)
	case "isolet":
		return r.RunPerClassGrid(b.dataset("isolet"), b.algorithms(), b.spec.isoSizes)
	case "mnist":
		return r.RunPerClassGrid(b.dataset("mnist"), b.algorithms(), b.spec.mniSizes)
	case "news":
		r.MemoryLimitBytes = b.spec.newsMemLimit
		return r.RunFractionGrid(b.dataset("news"), b.algorithms(), b.spec.newsFracs)
	}
	return nil, fmt.Errorf("unknown dataset %q", name)
}

// gridCache avoids recomputing a dataset's grid when both its error and
// time tables (or its figure) are requested in one invocation.
var gridCache = map[string]*srda.Grid{}

// benchGridKey names a grid cache entry by everything that affects it.
func benchGridKey(b *bench, name string) string {
	return fmt.Sprintf("%s/%s/%d/%d/%v", name, b.scale, b.splits, b.seed, b.algorithms())
}

func (b *bench) grid(name string) (*srda.Grid, error) {
	key := benchGridKey(b, name)
	if g, ok := gridCache[key]; ok {
		return g, nil
	}
	g, err := b.gridFor(name)
	if err != nil {
		return nil, err
	}
	gridCache[key] = g
	return g, nil
}

func (b *bench) denseGrid(name string, times bool) error {
	g, err := b.grid(name)
	if err != nil {
		return err
	}
	if b.csv {
		fmt.Print(g.CSV())
		return nil
	}
	if times {
		fmt.Print(g.RenderTimeTable())
	} else {
		fmt.Print(g.RenderErrorTable())
	}
	return nil
}

func (b *bench) newsGrid(times bool) error { return b.denseGrid("news", times) }

func (b *bench) figure(name string) error {
	g, err := b.grid(name)
	if err != nil {
		return err
	}
	if b.csv {
		fmt.Print(g.CSV())
		return nil
	}
	fmt.Print(g.RenderFigure(false))
	fmt.Println()
	fmt.Print(g.RenderFigure(true))
	return nil
}

// fig5 sweeps α/(1+α) on the eight panels of Figure 5.
func (b *bench) fig5() error {
	ratios := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	r := b.runner()
	// Clamp grid indices so shrunken test specs still map to panels.
	pickInt := func(sizes []int, i int) int {
		if i >= len(sizes) {
			i = len(sizes) - 1
		}
		return sizes[i]
	}
	panels := []struct {
		ds       string
		perClass int
		frac     float64
	}{
		{"pie", pickInt(b.spec.pieSizes, 0), 0},
		{"pie", pickInt(b.spec.pieSizes, 2), 0},
		{"isolet", pickInt(b.spec.isoSizes, 2), 0},
		{"isolet", pickInt(b.spec.isoSizes, 4), 0},
		{"mnist", pickInt(b.spec.mniSizes, 0), 0},
		{"mnist", pickInt(b.spec.mniSizes, 3), 0},
		{"news", 0, b.spec.newsFracs[0]},
		{"news", 0, b.spec.newsFracs[1]},
	}
	for i, p := range panels {
		if p.ds == "news" {
			r.MemoryLimitBytes = b.spec.newsMemLimit
		} else {
			r.MemoryLimitBytes = 0
		}
		sweep, err := r.AlphaSweep(b.dataset(p.ds), p.perClass, p.frac, ratios)
		if err != nil {
			return fmt.Errorf("panel %c: %w", 'a'+i, err)
		}
		fmt.Printf("(%c) ", 'a'+i)
		if b.csv {
			fmt.Println()
			fmt.Print(sweep.CSV())
		} else {
			fmt.Print(sweep.RenderSweep())
			fmt.Println()
		}
	}
	return nil
}

// ablationSolver compares SRDA's three solver strategies across problem
// shapes, locating the primal/dual crossover the complexity model
// predicts at m ≈ n.
func (b *bench) ablationSolver() error {
	fmt.Println("Ablation — SRDA solver strategies (training seconds, same fit)")
	fmt.Printf("%-22s %10s %10s %10s\n", "shape", "primal", "dual", "lsqr")
	for _, sh := range []struct{ m, n int }{
		{200, 800}, {400, 400}, {800, 200}, {1600, 100},
	} {
		ds := srda.PIELike(srda.PIEConfig{
			Classes: 10, PerClass: sh.m / 10, Side: isqrt(sh.n), Seed: b.seed,
		})
		x, labels := ds.Dense, ds.Labels
		var secs [3]float64
		for i, solver := range []srda.Solver{srda.SolverPrimal, srda.SolverDual, srda.SolverLSQR} {
			start := time.Now()
			if _, err := srda.Fit(x, labels, ds.NumClasses, srda.Options{
				Alpha: 1, Solver: solver, LSQRIter: 30, Workers: b.workers,
			}); err != nil {
				return err
			}
			secs[i] = time.Since(start).Seconds()
		}
		fmt.Printf("m=%-6d n=%-11d %10.4f %10.4f %10.4f\n", sh.m, isqrt(sh.n)*isqrt(sh.n), secs[0], secs[1], secs[2])
	}
	fmt.Println("expected: primal wins for n << m, dual for n >> m (eq. 20 vs 21)")
	return nil
}

// ablationLSQRIters shows error as a function of the LSQR iteration cap —
// the paper's claim that 15–20 iterations suffice.
func (b *bench) ablationLSQRIters() error {
	fmt.Println("Ablation — LSQR iteration cap vs test error (sparse SRDA)")
	ds := b.dataset("news")
	r := b.runner()
	fmt.Printf("%-8s %12s %12s\n", "iters", "error (%)", "time (s)")
	for _, k := range []int{2, 5, 10, 15, 20, 30} {
		r.LSQRIter = k
		g, err := r.RunFractionGrid(ds, []srda.Algorithm{srda.AlgoSRDA}, []float64{b.spec.newsFracs[1]})
		if err != nil {
			return err
		}
		c := g.Cells[0][0]
		fmt.Printf("%-8d %12.2f %12.4f\n", k, c.MeanErr, c.MeanTime)
	}
	fmt.Println("expected: error flattens by k≈15 (the paper's setting)")
	return nil
}

// ablationCentering quantifies the paper's intercept-absorption trick:
// explicit centering densifies sparse data; the trick keeps it sparse.
func (b *bench) ablationCentering() error {
	ds := b.dataset("news")
	s := ds.Describe()
	sparseBytes := 8 * float64(ds.NumSamples()) * s.AvgNNZ
	denseBytes := 8 * float64(ds.NumSamples()) * float64(ds.NumFeatures())
	fmt.Println("Ablation — intercept absorption vs explicit centering (memory)")
	fmt.Printf("dataset: %s, m=%d n=%d avg-nnz=%.1f\n", s.Name, s.Size, s.Dim, s.AvgNNZ)
	fmt.Printf("  sparse + intercept trick : %10.3g bytes (CSR values)\n", sparseBytes)
	fmt.Printf("  explicitly centered      : %10.3g bytes (fully dense)\n", denseBytes)
	fmt.Printf("  blowup                   : %10.1fx\n", denseBytes/sparseBytes)
	fmt.Println(strings.TrimSpace(`
The trick is exact, not an approximation: appending a constant-1 feature
and ridge-regressing fits the same aᵀx+b objective as centering (paper
§III-B), which the regress package's tests verify against the explicit
construction.`))
	return nil
}

// isqrt returns the integer square root used to pick image sides.
func isqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

// ablationIncremental compares streaming absorption against batch
// refits: the sufficient statistics absorb each sample in O(n²) and
// solve once at the end, while the batch side refits from scratch at
// every refresh.
func (b *bench) ablationIncremental() error {
	fmt.Println("Ablation — streaming SRDA vs batch refits (total seconds to process a stream)")
	ds := srda.PIELike(srda.PIEConfig{Classes: 8, PerClass: 60, Side: 14, Seed: b.seed})
	// interleave classes so every prefix of the stream covers all of them
	perm := rand.New(rand.NewSource(b.seed)).Perm(ds.NumSamples())
	shuffled := ds.Subset(perm)
	x, labels := shuffled.Dense, shuffled.Labels
	n := ds.NumFeatures()
	opt := srda.Options{Alpha: 1, Solver: srda.SolverPrimal, Workers: b.workers}
	// streaming: one Absorb per sample + one final FitStats
	stream := func(m int) error {
		stats, err := srda.NewSuffStats(n, ds.NumClasses)
		if err != nil {
			return err
		}
		for i := 0; i < m; i++ {
			if err := stats.Absorb(x.RowView(i), labels[i]); err != nil {
				return err
			}
		}
		_, err = srda.FitStats(stats, opt)
		return err
	}
	refit := func(upTo int) error {
		_, err := srda.Fit(x.Slice(0, upTo, 0, n).Clone(), labels[:upTo], ds.NumClasses, opt)
		return err
	}
	// One untimed fit of each kind, so the first row does not pay the
	// process's first fit (pool start, first touch of the Gram matrix).
	if err := stream(60); err != nil {
		return err
	}
	if err := refit(60); err != nil {
		return err
	}
	fmt.Printf("%-10s %14s %14s %12s\n", "stream m", "streaming", "batch-refit", "speedup")
	for _, m := range []int{60, 120, 240, 480} {
		start := time.Now()
		if err := stream(m); err != nil {
			return err
		}
		streamSec := time.Since(start).Seconds()

		// batch: refit from scratch every 20 arrivals (a generous refresh
		// cadence for the batch side)
		start = time.Now()
		for upTo := 20; upTo <= m; upTo += 20 {
			if err := refit(upTo); err != nil {
				return err
			}
		}
		batchSec := time.Since(start).Seconds()
		fmt.Printf("%-10d %14.4f %14.4f %11.1fx\n", m, streamSec, batchSec, batchSec/streamSec)
	}
	fmt.Println("expected: streaming advantage grows linearly with stream length")
	return nil
}

// ablationOutOfCore verifies the paper's disk-I/O claim end to end: train
// from a file-backed CSR and compare against the in-memory result.
func (b *bench) ablationOutOfCore() error {
	fmt.Println("Ablation — out-of-core SRDA (file-backed CSR vs in-memory)")
	ds := b.dataset("news")
	dir, err := os.MkdirTemp("", "srda-ooc")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }() // best-effort temp cleanup
	path := dir + "/corpus.csr"
	if err := ds.Sparse.WriteFile(path); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	d, err := srda.OpenDiskCSR(path)
	if err != nil {
		return err
	}
	defer func() { _ = d.Close() }() // read-only; nothing to flush

	opt := srda.Options{Alpha: 1, LSQRIter: 15, Workers: b.workers}
	start := time.Now()
	ooc, err := srda.FitDiskCSR(d, ds.Labels, ds.NumClasses, opt)
	if err != nil {
		return err
	}
	oocSec := time.Since(start).Seconds()
	start = time.Now()
	mem, err := srda.FitCSR(ds.Sparse, ds.Labels, ds.NumClasses, opt)
	if err != nil {
		return err
	}
	memSec := time.Since(start).Seconds()

	var worst float64
	for i := 0; i < ooc.W.Rows; i++ {
		for j := 0; j < ooc.W.Cols; j++ {
			if diff := ooc.W.At(i, j) - mem.W.At(i, j); diff > worst {
				worst = diff
			} else if -diff > worst {
				worst = -diff
			}
		}
	}
	fmt.Printf("file: %.1f MB on disk; resident row pointers: %.2f MB\n",
		float64(fi.Size())/(1<<20), float64(8*(ds.NumSamples()+1))/(1<<20))
	fmt.Printf("train: %.3f s out-of-core vs %.3f s in-memory (%.1fx I/O overhead)\n",
		oocSec, memSec, oocSec/memSec)
	fmt.Printf("max |ΔW| between the two models: %.3g (exact same algorithm)\n", worst)
	return nil
}

// ablationScaling measures the headline claim directly: sparse-LSQR SRDA
// training time as the corpus doubles.  Linear time means each doubling
// of m roughly doubles the wall clock.
func (b *bench) ablationScaling() error {
	fmt.Println("Ablation — linear-time scaling of sparse SRDA (LSQR, k=15)")
	fmt.Printf("%-10s %10s %14s %10s\n", "docs m", "nnz", "train (s)", "×prev")
	prev := 0.0
	for _, docs := range []int{1000, 2000, 4000, 8000} {
		ds := srda.NewsLike(srda.NewsConfig{
			Classes: 8, Docs: docs, Vocab: 4000, AvgLen: 60,
			TopicWords: 400, TopicBoost: 10, Seed: b.seed,
		})
		start := time.Now()
		if _, err := srda.FitCSR(ds.Sparse, ds.Labels, ds.NumClasses,
			srda.Options{Alpha: 1, LSQRIter: 15, Workers: b.workers}); err != nil {
			return err
		}
		sec := time.Since(start).Seconds()
		ratio := "—"
		if prev > 0 {
			ratio = fmt.Sprintf("%.2f", sec/prev)
		}
		fmt.Printf("%-10d %10d %14.4f %10s\n", docs, ds.Sparse.NNZ(), sec, ratio)
		prev = sec
	}
	fmt.Println("expected: ×prev ≈ 2 per doubling (O(k·c·m·s) total cost)")
	return nil
}

// extendedComparison runs the full small-sample LDA family — beyond the
// paper's four columns — on one face-recognition setting.
func (b *bench) extendedComparison() error {
	fmt.Println("Extended comparison — the small-sample LDA family on pie-like data")
	ds := srda.PIELike(srda.PIEConfig{Classes: 15, PerClass: 30, Side: 16, Seed: b.seed})
	perClass := 5 // small-sample regime so NLDA's null space exists
	rng := rand.New(rand.NewSource(b.seed))
	type resultRow struct {
		name string
		errs []float64
		secs float64
	}
	rows := []*resultRow{
		{name: "LDA"}, {name: "RLDA"}, {name: "OLDA"}, {name: "NLDA"}, {name: "MMC"},
		{name: "Fisherfaces"}, {name: "IDR/QR"}, {name: "SRDA"}, {name: "KSRDA-lin"},
	}
	for split := 0; split < b.splits; split++ {
		train, test, err := ds.SplitPerClass(rng, perClass)
		if err != nil {
			return err
		}
		evalEmb := func(row *resultRow, sec float64, embTrain, embTest *srda.Dense) error {
			nc, err := srda.FitNearestCentroid(embTrain, train.Labels, train.NumClasses)
			if err != nil {
				return err
			}
			row.errs = append(row.errs, 100*srda.ErrorRate(nc.Predict(embTest), test.Labels))
			row.secs += sec
			return nil
		}
		type transformer interface {
			Transform(*srda.Dense) *srda.Dense
		}
		fitLDA := func(row *resultRow, fit func() (transformer, error)) error {
			start := time.Now()
			model, err := fit()
			sec := time.Since(start).Seconds()
			if err != nil {
				return fmt.Errorf("%s: %w", row.name, err)
			}
			return evalEmb(row, sec, model.Transform(train.Dense), model.Transform(test.Dense))
		}
		steps := []func() error{
			func() error {
				return fitLDA(rows[0], func() (transformer, error) {
					return srda.FitLDA(train.Dense, train.Labels, train.NumClasses, srda.LDAOptions{})
				})
			},
			func() error {
				return fitLDA(rows[1], func() (transformer, error) {
					return srda.FitLDA(train.Dense, train.Labels, train.NumClasses, srda.LDAOptions{Alpha: 1})
				})
			},
			func() error {
				return fitLDA(rows[2], func() (transformer, error) {
					return srda.FitOrthogonalLDA(train.Dense, train.Labels, train.NumClasses, srda.LDAOptions{Alpha: 1})
				})
			},
			func() error {
				return fitLDA(rows[3], func() (transformer, error) {
					return srda.FitNullSpaceLDA(train.Dense, train.Labels, train.NumClasses, srda.LDAOptions{})
				})
			},
			func() error {
				return fitLDA(rows[4], func() (transformer, error) {
					return srda.FitMMC(train.Dense, train.Labels, train.NumClasses, srda.LDAOptions{})
				})
			},
			func() error {
				return fitLDA(rows[5], func() (transformer, error) {
					return srda.FitFisherfaces(train.Dense, train.Labels, train.NumClasses, srda.FisherfacesOptions{Alpha: 1})
				})
			},
			func() error {
				return fitLDA(rows[6], func() (transformer, error) {
					return srda.FitIDRQR(train.Dense, train.Labels, train.NumClasses, srda.IDRQROptions{})
				})
			},
			func() error {
				start := time.Now()
				model, err := srda.Fit(train.Dense, train.Labels, train.NumClasses,
					srda.Options{Alpha: 1, Whiten: true, Workers: b.workers})
				sec := time.Since(start).Seconds()
				if err != nil {
					return err
				}
				return evalEmb(rows[7], sec, model.TransformDense(train.Dense), model.TransformDense(test.Dense))
			},
			func() error {
				start := time.Now()
				// linear kernel: the kernelized path must track linear SRDA
				model, err := srda.FitKSRDAWhitened(train.Dense, train.Labels, train.NumClasses,
					srda.KSRDAOptions{Alpha: 1, Kernel: srda.LinearKernel{}})
				sec := time.Since(start).Seconds()
				if err != nil {
					return err
				}
				return evalEmb(rows[8], sec, model.Transform(train.Dense), model.Transform(test.Dense))
			},
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return err
			}
		}
	}
	fmt.Printf("%d classes × %d train/class, %d splits\n", ds.NumClasses, perClass, b.splits)
	fmt.Printf("%-14s %12s %12s\n", "method", "error (%)", "train (s)")
	for _, row := range rows {
		var mean float64
		for _, e := range row.errs {
			mean += e
		}
		mean /= float64(len(row.errs))
		fmt.Printf("%-14s %12.1f %12.4f\n", row.name, mean, row.secs/float64(len(row.errs)))
	}
	return nil
}

// ablationRSVD compares the paper's exact cross-product SVD against the
// randomized range-finder on the LDA baseline's bottleneck step.
func (b *bench) ablationRSVD() error {
	fmt.Println("Ablation — exact (cross-product) vs randomized SVD on the LDA bottleneck")
	fmt.Printf("%-16s %12s %12s %14s\n", "shape", "exact (s)", "rand (s)", "max σ rel-err")
	for _, sh := range []struct{ m, side int }{{400, 16}, {800, 24}, {1600, 24}} {
		ds := srda.PIELike(srda.PIEConfig{
			Classes: 16, PerClass: sh.m / 16, Side: sh.side, Seed: b.seed,
		})
		x := ds.Dense.Clone()
		x.CenterRows()
		start := time.Now()
		exact, err := srda.ExactSVD(x)
		if err != nil {
			return err
		}
		exactSec := time.Since(start).Seconds()
		k := 20
		start = time.Now()
		rnd, err := srda.RandomizedSVD(x, k, 8, 2, b.seed)
		if err != nil {
			return err
		}
		rndSec := time.Since(start).Seconds()
		var worst float64
		for j := 0; j < k && j < rnd.Rank() && j < exact.Rank(); j++ {
			rel := (exact.Sigma[j] - rnd.Sigma[j]) / exact.Sigma[j]
			if rel < 0 {
				rel = -rel
			}
			if rel > worst {
				worst = rel
			}
		}
		fmt.Printf("m=%-5d n=%-8d %12.4f %12.4f %14.2e\n",
			sh.m, sh.side*sh.side, exactSec, rndSec, worst)
	}
	fmt.Println("expected: randomized wins as min(m,n) grows, with tiny top-k error")
	return nil
}

// ablationLabelNoise studies regularization under annotation noise: SRDA
// test error as training labels are flipped, for weak and strong α.
func (b *bench) ablationLabelNoise() error {
	fmt.Println("Ablation — SRDA robustness to training-label noise")
	ds := srda.PIELike(srda.PIEConfig{Classes: 12, PerClass: 40, Side: 16, Seed: b.seed})
	rng := rand.New(rand.NewSource(b.seed))
	train, test, err := ds.SplitPerClass(rng, 15)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %14s %14s\n", "flip frac", "α=0.01 err(%)", "α=10 err(%)")
	for _, frac := range []float64{0, 0.1, 0.2, 0.3} {
		noisy, _ := srda.CorruptLabels(train, rand.New(rand.NewSource(b.seed+int64(frac*100))), frac)
		var errs [2]float64
		for i, alpha := range []float64{0.01, 10} {
			model, err := srda.Fit(noisy.Dense, noisy.Labels, noisy.NumClasses,
				srda.Options{Alpha: alpha, Whiten: true, Workers: b.workers})
			if err != nil {
				return err
			}
			// evaluate against the CLEAN test labels
			errs[i] = 100 * srda.ErrorRate(model.PredictDense(test.Dense), test.Labels)
		}
		fmt.Printf("%-12.1f %14.1f %14.1f\n", frac, errs[0], errs[1])
	}
	fmt.Println("expected: stronger regularization degrades more gracefully as noise grows")
	return nil
}
