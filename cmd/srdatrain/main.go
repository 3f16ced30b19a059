// Command srdatrain trains, evaluates, and applies SRDA models on
// libsvm-format data files.
//
// Train a model and report held-out accuracy:
//
//	srdatrain -train corpus.svm -test heldout.svm -alpha 1 -model out.srda
//
// Apply a saved model (prints one predicted label per input line):
//
//	srdatrain -model out.srda -predict new.svm
//
// With only -train, the tool reports training error.  -solver selects
// auto|primal|dual|lsqr (auto follows the paper's protocol), -knn K
// switches the classifier from nearest-centroid to k-NN.
//
// Observability: -report out.json writes a structured run report with
// per-phase wall times and per-response LSQR iteration counts and residual
// norms (validate or summarize it with srdareport); -profile p writes
// p.cpu.pprof and p.heap.pprof; -trace t.out writes a runtime/trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"srda"
	"srda/internal/obs"
)

// config carries every flag; run takes it whole so tests can drive the
// tool without reparsing flags.
type config struct {
	trainPath  string
	testPath   string
	predict    string
	modelPath  string
	alpha      float64
	solverName string
	iters      int
	knn        int
	features   int
	workers    int
	disk       bool
	perClass   bool
	reportPath string
	profile    string
	tracePath  string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.trainPath, "train", "", "libsvm-format training data")
	flag.StringVar(&cfg.testPath, "test", "", "libsvm-format held-out data")
	flag.StringVar(&cfg.predict, "predict", "", "libsvm-format data to classify with -model")
	flag.StringVar(&cfg.modelPath, "model", "", "model file to write (with -train) or read (with -predict)")
	flag.Float64Var(&cfg.alpha, "alpha", 1, "ridge regularizer α")
	flag.StringVar(&cfg.solverName, "solver", "auto", "solver: auto, primal, dual, lsqr")
	flag.IntVar(&cfg.iters, "lsqr-iters", 30, "LSQR iteration cap")
	flag.IntVar(&cfg.knn, "knn", 0, "classify with k-NN instead of nearest centroid (0 = centroid)")
	flag.IntVar(&cfg.features, "features", 0, "dimensionality (0 = infer from data)")
	flag.BoolVar(&cfg.disk, "disk", false, "train out of core: spool the training matrix to a temp file and stream it")
	flag.BoolVar(&cfg.perClass, "per-class", false, "print per-class precision/recall/F1 for evaluated sets")
	flag.StringVar(&cfg.reportPath, "report", "", "write a structured JSON run report (phase timings, LSQR telemetry) to this path")
	flag.StringVar(&cfg.profile, "profile", "", "write CPU and heap profiles to <prefix>.cpu.pprof and <prefix>.heap.pprof")
	flag.StringVar(&cfg.tracePath, "trace", "", "write a runtime/trace to this path")
	flag.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "training parallelism (kernel sharding and LSQR column groups); the fitted model is bitwise identical at any setting")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "srdatrain:", err)
		os.Exit(1)
	}
}

func run(cfg config) (err error) {
	stopProfiles, err := obs.StartProfiles(cfg.profile, cfg.tracePath)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()

	if cfg.predict != "" {
		return runPredict(cfg.predict, cfg.modelPath, cfg.features)
	}
	if cfg.trainPath == "" {
		return fmt.Errorf("need -train (or -predict with -model); see -h")
	}

	var sv srda.Solver
	switch cfg.solverName {
	case "auto":
		sv = srda.SolverAuto
	case "primal":
		sv = srda.SolverPrimal
	case "dual":
		sv = srda.SolverDual
	case "lsqr":
		sv = srda.SolverLSQR
	default:
		return fmt.Errorf("unknown solver %q", cfg.solverName)
	}

	begin := time.Now()
	tr := srda.NewTracer(0)
	_, root := tr.StartRoot(context.Background(), "srdatrain")
	sp := root.StartChild("load")
	train, err := loadFile(cfg.trainPath, cfg.features)
	sp.End()
	if err != nil {
		return err
	}
	fmt.Printf("train: %d samples, %d features, %d classes, %.1f avg nnz\n",
		train.NumSamples(), train.NumFeatures(), train.NumClasses, train.AvgNNZ())

	opt := srda.Options{Alpha: cfg.alpha, Solver: sv, LSQRIter: cfg.iters, Workers: cfg.workers, Whiten: true, Span: root}
	start := time.Now()
	var model *srda.Model
	if cfg.disk {
		model, err = trainOutOfCore(train, opt)
	} else {
		model, err = srda.FitCSR(train.Sparse, train.Labels, train.NumClasses, opt)
	}
	if err != nil {
		return err
	}
	fmt.Printf("trained in %s (%d LSQR iterations, %d embedding dims)\n",
		time.Since(start).Round(time.Millisecond), model.Iters, model.Dim())

	data := map[string]float64{
		"samples":  float64(train.NumSamples()),
		"features": float64(train.NumFeatures()),
		"classes":  float64(train.NumClasses),
	}
	evalSpan := root.StartChild("eval")
	embTrain := model.TransformSparse(train.Sparse)
	evalSet := func(name string, ds *srda.Dataset) (float64, error) {
		emb := model.TransformSparse(ds.Sparse)
		var pred []int
		if cfg.knn > 0 {
			clf, err := srda.FitKNN(embTrain, train.Labels, train.NumClasses, cfg.knn)
			if err != nil {
				return 0, err
			}
			pred = clf.Predict(emb)
		} else {
			clf, err := srda.FitNearestCentroid(embTrain, train.Labels, train.NumClasses)
			if err != nil {
				return 0, err
			}
			pred = clf.Predict(emb)
		}
		rate := srda.ErrorRate(pred, ds.Labels)
		fmt.Printf("%s error: %.2f%% (%d samples)\n", name, 100*rate, ds.NumSamples())
		if cfg.perClass {
			metrics, err := srda.ComputeMetrics(pred, ds.Labels, train.NumClasses)
			if err != nil {
				return 0, err
			}
			fmt.Print(metrics.String())
		}
		return rate, nil
	}
	rate, err := evalSet("training", train)
	if err != nil {
		evalSpan.End()
		return err
	}
	data["train_error"] = rate
	if cfg.testPath != "" {
		test, err := loadFile(cfg.testPath, 0)
		if err != nil {
			evalSpan.End()
			return err
		}
		rate, err := evalSet("test", test.AlignFeatures(train.NumFeatures()))
		if err != nil {
			evalSpan.End()
			return err
		}
		data["test_error"] = rate
	}
	evalSpan.End()
	root.End()

	if cfg.modelPath != "" {
		// Atomic temp-file + rename: a crash mid-save can never leave a
		// truncated model for srdaserve's hot reload to pick up.
		if err := srda.SaveModelFile(model, cfg.modelPath); err != nil {
			return err
		}
		fmt.Printf("model written to %s\n", cfg.modelPath)
	}
	if cfg.reportPath != "" {
		if err := writeReport(cfg.reportPath, tr.Snapshot(), root.SpanID(), model, data, time.Since(begin).Seconds()); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", cfg.reportPath)
	}
	return nil
}

// writeReport assembles the structured run report: phase wall times from
// the root span's direct children plus the model's solver telemetry.
func writeReport(path string, spans []obs.SpanRecord, root obs.SpanID, model *srda.Model, data map[string]float64, total float64) error {
	rep := obs.Report{Tool: "srdatrain", TotalSeconds: total, Data: data}
	rep.AddSpans(spans, root)
	rep.Solver = &obs.SolverStats{
		Strategy:   model.Stats.Strategy.String(),
		TotalIters: model.Stats.Iters,
		IterCounts: model.Stats.IterCounts,
		Residuals:  model.Stats.Residuals,
	}
	return rep.WriteFile(path)
}

func runPredict(predictPath, modelPath string, features int) error {
	if modelPath == "" {
		return fmt.Errorf("-predict requires -model")
	}
	model, err := srda.LoadModelFile(modelPath)
	if err != nil {
		return err
	}
	ds, err := loadFile(predictPath, features)
	if err != nil {
		return err
	}
	ds = ds.AlignFeatures(model.W.Rows)
	if model.Centroids == nil {
		return fmt.Errorf("model %s carries no class centroids; retrain with this tool", modelPath)
	}
	pred := model.PredictSparse(ds.Sparse)
	for _, p := range pred {
		fmt.Println(p)
	}
	fmt.Fprintf(os.Stderr, "error against file labels: %.2f%%\n", 100*srda.ErrorRate(pred, ds.Labels))
	return nil
}

func loadFile(path string, features int) (*srda.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only; nothing to flush
	return srda.ReadLibSVM(f, features)
}

// trainOutOfCore spools the training matrix to a temporary DiskCSR file
// and trains by streaming it — the paper's §III-C2 disk-I/O mode.  The
// whitening post-step is applied from the in-memory embedding of the
// (already loaded) training data, so results match the in-memory path.
func trainOutOfCore(train *srda.Dataset, opt srda.Options) (*srda.Model, error) {
	dir, err := os.MkdirTemp("", "srdatrain")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }() // best-effort temp cleanup
	path := dir + "/train.csr"
	if err := train.Sparse.WriteFile(path); err != nil {
		return nil, err
	}
	d, err := srda.OpenDiskCSR(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = d.Close() }() // read-only; nothing to flush
	model, err := srda.FitDiskCSR(d, train.Labels, train.NumClasses, opt)
	if err != nil {
		return nil, err
	}
	if opt.Whiten {
		if err := model.WhitenWithin(model.TransformSparse(train.Sparse), train.Labels); err != nil {
			return nil, err
		}
	}
	if err := model.SetCentroids(model.TransformSparse(train.Sparse), train.Labels); err != nil {
		return nil, err
	}
	return model, nil
}
