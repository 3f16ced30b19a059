package online

import (
	"math"

	"srda/internal/core"
	"srda/internal/mat"
)

// driftWindow tracks the class-conditional means of the most recent
// window of training samples and compares them against reference means
// snapshotted at the last refit.  The score is
//
//	max over classes c present in both:  ‖winMean_c − refMean_c‖₂ / (‖refMean_c‖₂ + 1)
//
// — a relative mean-shift with a +1 floor so near-zero reference means
// don't blow the ratio up.  Everything is O(window·n) memory and O(n)
// per pushed sample; the score itself is O(c·n) and computed only when a
// trigger check needs it.
//
// Not safe for concurrent use: the trainer guards it with its own mutex.
type driftWindow struct {
	n, c, capacity int

	// Ring of retained samples: rows holds capacity rows of n features,
	// labels the matching class; next is the overwrite cursor.
	rows   *mat.Dense
	labels []int
	size   int
	next   int

	// Windowed per-class sums/counts, maintained incrementally.
	winSums   *mat.Dense
	winCounts []int

	// Reference class means from the last refit; refCounts[k] > 0 marks
	// class k as comparable.
	refMeans  *mat.Dense
	refCounts []int
}

func newDriftWindow(numFeatures, numClasses, window int) *driftWindow {
	return &driftWindow{
		n:         numFeatures,
		c:         numClasses,
		capacity:  window,
		rows:      mat.NewDense(window, numFeatures),
		labels:    make([]int, window),
		winSums:   mat.NewDense(numClasses, numFeatures),
		winCounts: make([]int, numClasses),
		refMeans:  mat.NewDense(numClasses, numFeatures),
		refCounts: make([]int, numClasses),
	}
}

// push adds a dense sample to the window, evicting the oldest when full.
func (d *driftWindow) push(x []float64, label int) {
	slot := d.rows.RowView(d.next)
	if d.size == d.capacity {
		old := d.labels[d.next]
		sums := d.winSums.RowView(old)
		for j, v := range slot {
			sums[j] -= v
		}
		d.winCounts[old]--
	} else {
		d.size++
	}
	copy(slot, x)
	d.labels[d.next] = label
	sums := d.winSums.RowView(label)
	for j, v := range slot {
		sums[j] += v
	}
	d.winCounts[label]++
	d.next = (d.next + 1) % d.capacity
}

// setReference snapshots the cumulative class means of stats as the new
// drift baseline; classes still empty stay incomparable.
func (d *driftWindow) setReference(stats *core.SuffStats) {
	counts := stats.ClassCounts()
	for k := 0; k < d.c; k++ {
		d.refCounts[k] = counts[k]
		if counts[k] > 0 {
			stats.ClassMean(k, d.refMeans.RowView(k))
		}
	}
}

// score computes the current drift score; 0 when no class is comparable.
func (d *driftWindow) score() float64 {
	worst := 0.0
	for k := 0; k < d.c; k++ {
		if d.winCounts[k] == 0 || d.refCounts[k] == 0 {
			continue
		}
		inv := 1 / float64(d.winCounts[k])
		sums := d.winSums.RowView(k)
		ref := d.refMeans.RowView(k)
		var shift2, refNorm2 float64
		for j := 0; j < d.n; j++ {
			diff := sums[j]*inv - ref[j]
			shift2 += diff * diff
			refNorm2 += ref[j] * ref[j]
		}
		s := math.Sqrt(shift2) / (math.Sqrt(refNorm2) + 1)
		if s > worst {
			worst = s
		}
	}
	return worst
}
