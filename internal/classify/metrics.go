package classify

import (
	"fmt"
	"math"
	"strings"
)

// Metrics summarizes multi-class classification quality beyond the raw
// error rate the paper reports: per-class precision/recall/F1 and their
// macro averages, computed from a confusion matrix.
type Metrics struct {
	// Accuracy is 1 − error rate.
	Accuracy float64
	// Precision, Recall and F1 are per-class (length c); a class never
	// predicted has precision NaN-free 0 by convention.
	Precision, Recall, F1 []float64
	// MacroPrecision, MacroRecall and MacroF1 average over classes.
	MacroPrecision, MacroRecall, MacroF1 float64
	// Support counts true samples per class.
	Support []int
}

// ComputeMetrics evaluates predictions against ground truth.
func ComputeMetrics(pred, truth []int, numClasses int) (*Metrics, error) {
	if len(pred) != len(truth) {
		return nil, fmt.Errorf("classify: %d predictions for %d labels", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return nil, fmt.Errorf("classify: empty prediction set")
	}
	cm := make([][]int, numClasses)
	for i := range cm {
		cm[i] = make([]int, numClasses)
	}
	correct := 0
	for i := range pred {
		if pred[i] < 0 || pred[i] >= numClasses || truth[i] < 0 || truth[i] >= numClasses {
			return nil, fmt.Errorf("classify: label out of range at %d", i)
		}
		cm[truth[i]][pred[i]]++
		if pred[i] == truth[i] {
			correct++
		}
	}
	m := &Metrics{
		Accuracy:  float64(correct) / float64(len(pred)),
		Precision: make([]float64, numClasses),
		Recall:    make([]float64, numClasses),
		F1:        make([]float64, numClasses),
		Support:   make([]int, numClasses),
	}
	for k := 0; k < numClasses; k++ {
		var tp, fp, fn int
		for j := 0; j < numClasses; j++ {
			if j == k {
				tp = cm[k][k]
				continue
			}
			fn += cm[k][j]
			fp += cm[j][k]
		}
		m.Support[k] = tp + fn
		if tp+fp > 0 {
			m.Precision[k] = float64(tp) / float64(tp+fp)
		}
		if tp+fn > 0 {
			m.Recall[k] = float64(tp) / float64(tp+fn)
		}
		if m.Precision[k]+m.Recall[k] > 0 {
			m.F1[k] = 2 * m.Precision[k] * m.Recall[k] / (m.Precision[k] + m.Recall[k])
		}
		m.MacroPrecision += m.Precision[k]
		m.MacroRecall += m.Recall[k]
		m.MacroF1 += m.F1[k]
	}
	m.MacroPrecision /= float64(numClasses)
	m.MacroRecall /= float64(numClasses)
	m.MacroF1 /= float64(numClasses)
	return m, nil
}

// String renders a classification report.
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "accuracy %.4f\n", m.Accuracy)
	fmt.Fprintf(&b, "%6s %10s %10s %10s %8s\n", "class", "precision", "recall", "f1", "support")
	for k := range m.Precision {
		fmt.Fprintf(&b, "%6d %10.4f %10.4f %10.4f %8d\n",
			k, m.Precision[k], m.Recall[k], m.F1[k], m.Support[k])
	}
	fmt.Fprintf(&b, "%6s %10.4f %10.4f %10.4f\n", "macro", m.MacroPrecision, m.MacroRecall, m.MacroF1)
	return b.String()
}

// TopKAccuracy scores ranked predictions: sample i counts as correct when
// truth[i] appears among the first k entries of ranked[i].  Embedding
// methods produce natural rankings by centroid distance.
func TopKAccuracy(ranked [][]int, truth []int, k int) (float64, error) {
	if len(ranked) != len(truth) {
		return 0, fmt.Errorf("classify: %d rankings for %d labels", len(ranked), len(truth))
	}
	if len(ranked) == 0 {
		return 0, fmt.Errorf("classify: empty ranking set")
	}
	hits := 0
	for i, r := range ranked {
		top := r
		if len(top) > k {
			top = top[:k]
		}
		for _, cand := range top {
			if cand == truth[i] {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(len(ranked)), nil
}

// BalancedError averages per-class error rates, insensitive to class
// imbalance (1 − macro recall).
func BalancedError(pred, truth []int, numClasses int) (float64, error) {
	m, err := ComputeMetrics(pred, truth, numClasses)
	if err != nil {
		return 0, err
	}
	return 1 - m.MacroRecall, nil
}

// MCC computes the multi-class Matthews correlation coefficient from
// predictions (the R_k statistic), a single-number summary robust to
// imbalance; returns 0 when undefined.
func MCC(pred, truth []int, numClasses int) (float64, error) {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0, fmt.Errorf("classify: bad input sizes")
	}
	cm := make([][]float64, numClasses)
	for i := range cm {
		cm[i] = make([]float64, numClasses)
	}
	for i := range pred {
		if pred[i] < 0 || pred[i] >= numClasses || truth[i] < 0 || truth[i] >= numClasses {
			return 0, fmt.Errorf("classify: label out of range at %d", i)
		}
		cm[truth[i]][pred[i]]++
	}
	n := float64(len(pred))
	var traceC, sumTP float64
	rowSum := make([]float64, numClasses)
	colSum := make([]float64, numClasses)
	for i := 0; i < numClasses; i++ {
		traceC += cm[i][i]
		for j := 0; j < numClasses; j++ {
			rowSum[i] += cm[i][j]
			colSum[j] += cm[i][j]
		}
	}
	var dotRC, rr, cc float64
	for i := 0; i < numClasses; i++ {
		dotRC += rowSum[i] * colSum[i]
		rr += rowSum[i] * rowSum[i]
		cc += colSum[i] * colSum[i]
	}
	sumTP = traceC
	num := sumTP*n - dotRC
	den := math.Sqrt(n*n-rr) * math.Sqrt(n*n-cc)
	if den == 0 { //srdalint:ignore floatcmp exact zero denominator is the degenerate MCC case
		return 0, nil
	}
	return num / den, nil
}
