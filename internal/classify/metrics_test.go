package classify

import (
	"math"
	"strings"
	"testing"
)

func TestComputeMetricsPerfect(t *testing.T) {
	pred := []int{0, 1, 2, 0, 1, 2}
	m, err := ComputeMetrics(pred, pred, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy != 1 || m.MacroF1 != 1 || m.MacroPrecision != 1 || m.MacroRecall != 1 {
		t.Fatalf("perfect predictions scored %+v", m)
	}
	for k := 0; k < 3; k++ {
		if m.Support[k] != 2 {
			t.Fatalf("support %v", m.Support)
		}
	}
}

func TestComputeMetricsKnownCase(t *testing.T) {
	// truth:  0 0 0 0 1 1
	// pred:   0 0 1 1 1 0
	truth := []int{0, 0, 0, 0, 1, 1}
	pred := []int{0, 0, 1, 1, 1, 0}
	m, err := ComputeMetrics(pred, truth, 2)
	if err != nil {
		t.Fatal(err)
	}
	// class 0: tp=2 fp=1 fn=2 → precision 2/3, recall 1/2
	if math.Abs(m.Precision[0]-2.0/3) > 1e-12 || math.Abs(m.Recall[0]-0.5) > 1e-12 {
		t.Fatalf("class 0: p=%v r=%v", m.Precision[0], m.Recall[0])
	}
	// class 1: tp=1 fp=2 fn=1 → precision 1/3, recall 1/2
	if math.Abs(m.Precision[1]-1.0/3) > 1e-12 || math.Abs(m.Recall[1]-0.5) > 1e-12 {
		t.Fatalf("class 1: p=%v r=%v", m.Precision[1], m.Recall[1])
	}
	if math.Abs(m.Accuracy-0.5) > 1e-12 {
		t.Fatalf("accuracy %v", m.Accuracy)
	}
	if !strings.Contains(m.String(), "macro") {
		t.Fatal("report missing macro row")
	}
}

func TestComputeMetricsNeverPredictedClass(t *testing.T) {
	truth := []int{0, 1, 2}
	pred := []int{0, 1, 0} // class 2 never predicted
	m, err := ComputeMetrics(pred, truth, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Precision[2] != 0 || m.F1[2] != 0 {
		t.Fatalf("unpredicted class should score 0, got p=%v f1=%v", m.Precision[2], m.F1[2])
	}
	if math.IsNaN(m.MacroF1) {
		t.Fatal("macro F1 must not be NaN")
	}
}

func TestComputeMetricsValidation(t *testing.T) {
	if _, err := ComputeMetrics([]int{0}, []int{0, 1}, 2); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := ComputeMetrics(nil, nil, 2); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := ComputeMetrics([]int{5}, []int{0}, 2); err == nil {
		t.Fatal("out-of-range prediction accepted")
	}
}

func TestTopKAccuracy(t *testing.T) {
	ranked := [][]int{
		{0, 1, 2},
		{1, 0, 2},
		{2, 1, 0},
	}
	truth := []int{0, 0, 0}
	if got, _ := TopKAccuracy(ranked, truth, 1); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("top-1 %v", got)
	}
	if got, _ := TopKAccuracy(ranked, truth, 2); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("top-2 %v", got)
	}
	if got, _ := TopKAccuracy(ranked, truth, 3); got != 1 {
		t.Fatalf("top-3 %v", got)
	}
	if _, err := TopKAccuracy(nil, nil, 1); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestBalancedErrorHandlesImbalance(t *testing.T) {
	// 9 of class 0 (all right), 1 of class 1 (wrong): plain error 10%,
	// balanced error 50%.
	truth := []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	pred := []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	be, err := BalancedError(pred, truth, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(be-0.5) > 1e-12 {
		t.Fatalf("balanced error %v want 0.5", be)
	}
	if e := ErrorRate(pred, truth); math.Abs(e-0.1) > 1e-12 {
		t.Fatalf("plain error %v want 0.1", e)
	}
}

func TestMCCBounds(t *testing.T) {
	perfect := []int{0, 1, 2, 0, 1, 2}
	if got, _ := MCC(perfect, perfect, 3); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect MCC %v", got)
	}
	// constant predictions: undefined → 0
	truth := []int{0, 1, 0, 1}
	pred := []int{0, 0, 0, 0}
	if got, _ := MCC(pred, truth, 2); got != 0 {
		t.Fatalf("degenerate MCC %v", got)
	}
	// anti-perfect binary: −1
	anti := []int{1, 0, 1, 0}
	if got, _ := MCC(anti, truth, 2); math.Abs(got+1) > 1e-12 {
		t.Fatalf("anti MCC %v", got)
	}
	if _, err := MCC(nil, nil, 2); err == nil {
		t.Fatal("empty accepted")
	}
}
