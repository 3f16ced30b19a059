package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"srda/internal/mat"
	"srda/internal/sparse"
)

// WriteLibSVM serializes the dataset in the standard libsvm/svmlight text
// format: one sample per line, "label idx:value idx:value ..." with
// 1-based feature indices.  Zero entries of dense datasets are omitted.
func (d *Dataset) WriteLibSVM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < d.NumSamples(); i++ {
		if _, err := fmt.Fprintf(bw, "%d", d.Labels[i]); err != nil {
			return err
		}
		if d.Sparse != nil {
			cols, vals := d.Sparse.Row(i)
			for t, j := range cols {
				if _, err := fmt.Fprintf(bw, " %d:%.9g", j+1, vals[t]); err != nil {
					return err
				}
			}
		} else {
			row := d.Dense.RowView(i)
			for j, v := range row {
				if v == 0 { //srdalint:ignore floatcmp exact zeros are the entries the sparse encoding omits
					continue
				}
				if _, err := fmt.Fprintf(bw, " %d:%.9g", j+1, v); err != nil {
					return err
				}
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadLibSVM parses a libsvm-format stream into a sparse dataset.
// numFeatures <= 0 infers the dimensionality from the largest index seen;
// labels must be non-negative integers and numClasses is inferred as
// max(label)+1.
func ReadLibSVM(r io.Reader, numFeatures int) (*Dataset, error) {
	type row struct {
		label int
		cols  []int
		vals  []float64
	}
	var rows []row
	maxFeat, maxLabel := 0, 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		label, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad label %q", lineNo, fields[0])
		}
		if label < 0 {
			return nil, fmt.Errorf("dataset: line %d: negative label %d", lineNo, label)
		}
		if label > maxLabel {
			maxLabel = label
		}
		rw := row{label: label}
		for _, f := range fields[1:] {
			colon := strings.IndexByte(f, ':')
			if colon < 0 {
				return nil, fmt.Errorf("dataset: line %d: bad feature %q", lineNo, f)
			}
			idx, err := strconv.Atoi(f[:colon])
			if err != nil || idx < 1 {
				return nil, fmt.Errorf("dataset: line %d: bad feature index %q", lineNo, f[:colon])
			}
			val, err := strconv.ParseFloat(f[colon+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad feature value %q", lineNo, f[colon+1:])
			}
			// The training kernels assume finite input; a NaN or ±Inf here
			// would otherwise train silently into a NaN model.
			if math.IsNaN(val) || math.IsInf(val, 0) {
				return nil, fmt.Errorf("dataset: line %d: non-finite feature value %q", lineNo, f[colon+1:])
			}
			if idx > maxFeat {
				maxFeat = idx
			}
			rw.cols = append(rw.cols, idx-1)
			rw.vals = append(rw.vals, val)
		}
		rows = append(rows, rw)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if numFeatures <= 0 {
		numFeatures = maxFeat
	} else if maxFeat > numFeatures {
		return nil, fmt.Errorf("dataset: feature index %d exceeds declared dimensionality %d", maxFeat, numFeatures)
	}
	bld := sparse.NewBuilder(len(rows), numFeatures)
	labels := make([]int, len(rows))
	for i, rw := range rows {
		labels[i] = rw.label
		for t, j := range rw.cols {
			bld.Add(i, j, rw.vals[t])
		}
	}
	return &Dataset{
		Name:       "libsvm",
		Sparse:     bld.Build(),
		Labels:     labels,
		NumClasses: maxLabel + 1,
	}, nil
}

// ToDense converts a sparse dataset to dense storage (a no-op copy for
// already-dense data).  This is the memory expansion classical LDA incurs.
func (d *Dataset) ToDense() *Dataset {
	out := &Dataset{Name: d.Name, Labels: append([]int(nil), d.Labels...), NumClasses: d.NumClasses}
	if d.Sparse != nil {
		out.Dense = d.Sparse.ToDense()
	} else {
		out.Dense = d.Dense.Clone()
	}
	return out
}

// DenseView returns the dense design matrix, densifying on demand.
func (d *Dataset) DenseView() *mat.Dense {
	if d.Dense != nil {
		return d.Dense
	}
	return d.Sparse.ToDense()
}

// AlignFeatures returns a dataset whose dimensionality is exactly n:
// columns beyond n are dropped (features unseen at training time carry no
// model weight anyway) and a smaller dimensionality is padded with
// implicit zeros.  Labels are shared with the receiver.
func (d *Dataset) AlignFeatures(n int) *Dataset {
	if d.NumFeatures() == n {
		return d
	}
	out := &Dataset{Name: d.Name, Labels: d.Labels, NumClasses: d.NumClasses}
	if d.Sparse != nil {
		bld := sparse.NewBuilder(d.Sparse.Rows, n)
		for i := 0; i < d.Sparse.Rows; i++ {
			cols, vals := d.Sparse.Row(i)
			for t, j := range cols {
				if j < n {
					bld.Add(i, j, vals[t])
				}
			}
		}
		out.Sparse = bld.Build()
		return out
	}
	out.Dense = mat.NewDense(d.Dense.Rows, n)
	w := n
	if d.Dense.Cols < w {
		w = d.Dense.Cols
	}
	for i := 0; i < d.Dense.Rows; i++ {
		copy(out.Dense.RowView(i), d.Dense.RowView(i)[:w])
	}
	return out
}
