package sparse

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// DiskCSR is a CSR matrix stored in a file and streamed during
// matrix-vector products, realizing the paper's §III-C2 observation that
// "even [if] the data matrix is too large to be fit into the memory,
// SRDA can still be applied with some reasonable disk I/O" — each LSQR
// iteration only needs one sequential pass over the row data for A·v and
// one for Aᵀ·v.  Only the row-pointer array (8 bytes per row) is held in
// memory.
//
// File layout (little-endian):
//
//	magic   "SRDACSR1" (8 bytes)
//	rows    int64
//	cols    int64
//	nnz     int64
//	rowptr  (rows+1)·int64
//	colidx  nnz·int64
//	values  nnz·float64
type DiskCSR struct {
	Rows, Cols int
	rowPtr     []int64
	f          *os.File
	colOff     int64 // file offset of the column-index region
	valOff     int64 // file offset of the value region
}

const diskMagic = "SRDACSR1"

// WriteFile serializes the matrix into the DiskCSR file format.
func (a *CSR) WriteFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// A buffered write can look successful until Close flushes it to a
	// full disk; surface that error instead of losing the matrix silently.
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := w.WriteString(diskMagic); err != nil {
		return err
	}
	for _, v := range []int64{int64(a.Rows), int64(a.Cols), int64(a.NNZ())} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, p := range a.RowPtr {
		if err := binary.Write(w, binary.LittleEndian, int64(p)); err != nil {
			return err
		}
	}
	for _, c := range a.ColIdx {
		if err := binary.Write(w, binary.LittleEndian, int64(c)); err != nil {
			return err
		}
	}
	for _, v := range a.Val {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return w.Flush()
}

// ErrDiskCSRCorrupt is wrapped by every error that reports a DiskCSR
// file whose bytes break the format, as opposed to an I/O failure: a bad
// magic, a header that disagrees with the file size, row pointers that
// are not monotone from 0 to nnz, or a column index outside [0, cols)
// (or not increasing within its row, for Load).
const ErrDiskCSRCorrupt = diskError("sparse: corrupt DiskCSR file")

// errColRange is the streaming form of ErrDiskCSRCorrupt: a constant, so
// the per-entry check allocates nothing.
const errColRange = diskError("sparse: corrupt DiskCSR file: column index out of range")

// diskError is a constant error type, so the package's errors need no
// initialization at start-up.
type diskError string

func (e diskError) Error() string { return string(e) }

// Is matches every diskError to ErrDiskCSRCorrupt under errors.Is.
func (e diskError) Is(target error) bool { return target == ErrDiskCSRCorrupt }

// diskHeaderLen is the byte length of the magic and the three counts.
const diskHeaderLen = int64(len(diskMagic)) + 3*8

// OpenDiskCSR opens a file written by WriteFile, loading only the row
// pointers.  The header must account for the file size exactly and the
// row pointers must climb from 0 to nnz, so no count read from the file
// can size an allocation beyond the file itself.  The caller owns Close.
func OpenDiskCSR(path string) (*DiskCSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	d, err := openDiskCSR(f)
	if err != nil {
		_ = f.Close() // error path: the open failure is the error to report
		return nil, fmt.Errorf("sparse: %s: %w", path, err)
	}
	return d, nil
}

func openDiskCSR(f *os.File) (*DiskCSR, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < diskHeaderLen {
		return nil, fmt.Errorf("%w: %d-byte file is shorter than the header", ErrDiskCSRCorrupt, size)
	}
	r := bufio.NewReader(f)
	var hdr [diskHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("sparse: reading header: %w", err)
	}
	if string(hdr[:len(diskMagic)]) != diskMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrDiskCSRCorrupt)
	}
	le := binary.LittleEndian
	rows := int64(le.Uint64(hdr[8:]))
	cols := int64(le.Uint64(hdr[16:]))
	nnz := int64(le.Uint64(hdr[24:]))
	// Bound each count by the file before multiplying, so the size sum
	// cannot overflow.
	body := size - diskHeaderLen
	if rows < 0 || cols < 0 || nnz < 0 || rows >= body/8 || nnz > body/16 ||
		(rows+1)*8+nnz*16 != body {
		return nil, fmt.Errorf("%w: header (%d rows, %d cols, %d nnz) does not match the %d-byte file", ErrDiskCSRCorrupt, rows, cols, nnz, size)
	}
	rowPtr := make([]int64, rows+1)
	if err := binary.Read(r, le, rowPtr); err != nil {
		return nil, fmt.Errorf("sparse: reading row pointers: %w", err)
	}
	if rowPtr[0] != 0 || rowPtr[rows] != nnz {
		return nil, fmt.Errorf("%w: row pointers run from %d to %d, want 0 to nnz %d", ErrDiskCSRCorrupt, rowPtr[0], rowPtr[rows], nnz)
	}
	for i := int64(0); i < rows; i++ {
		if rowPtr[i+1] < rowPtr[i] {
			//srdalint:ignore hotalloc error exit: runs at most once, then the open fails
			return nil, fmt.Errorf("%w: row pointer %d decreases", ErrDiskCSRCorrupt, i+1)
		}
	}
	headerLen := diskHeaderLen + (rows+1)*8
	return &DiskCSR{
		Rows:   int(rows),
		Cols:   int(cols),
		rowPtr: rowPtr,
		f:      f,
		colOff: headerLen,
		valOff: headerLen + nnz*8,
	}, nil
}

// Close releases the underlying file.
func (d *DiskCSR) Close() error { return d.f.Close() }

// NNZ returns the number of stored entries.
func (d *DiskCSR) NNZ() int { return int(d.rowPtr[d.Rows]) }

// streamer walks the colidx and value regions sequentially in lockstep.
type streamer struct {
	ncols int64 // column indices must fall in [0, ncols)
	cols  *bufio.Reader
	vals  *bufio.Reader
	cbuf  [8]byte
	vbuf  [8]byte
}

func (d *DiskCSR) newStreamer() *streamer {
	return &streamer{
		ncols: int64(d.Cols),
		cols:  bufio.NewReaderSize(io.NewSectionReader(d.f, d.colOff, int64(d.NNZ())*8), 1<<18),
		vals:  bufio.NewReaderSize(io.NewSectionReader(d.f, d.valOff, int64(d.NNZ())*8), 1<<18),
	}
}

func (s *streamer) next() (col int, val float64, err error) {
	if _, err = io.ReadFull(s.cols, s.cbuf[:]); err != nil {
		return 0, 0, err
	}
	if _, err = io.ReadFull(s.vals, s.vbuf[:]); err != nil {
		return 0, 0, err
	}
	c := int64(binary.LittleEndian.Uint64(s.cbuf[:]))
	if c < 0 || c >= s.ncols {
		return 0, 0, errColRange
	}
	v := binary.LittleEndian.Uint64(s.vbuf[:])
	return int(c), math.Float64frombits(v), nil
}

// MulVec computes y = A·x with one sequential pass over the file.
func (d *DiskCSR) MulVec(x, dst []float64) ([]float64, error) {
	if len(x) != d.Cols {
		return nil, fmt.Errorf("sparse: MulVec length mismatch")
	}
	if dst == nil {
		dst = make([]float64, d.Rows)
	}
	st := d.newStreamer()
	for i := 0; i < d.Rows; i++ {
		var s float64
		for k := d.rowPtr[i]; k < d.rowPtr[i+1]; k++ {
			col, val, err := st.next()
			if err != nil {
				//srdalint:ignore hotalloc error exit: runs at most once, then the kernel returns
				return nil, fmt.Errorf("sparse: streaming row %d: %w", i, err)
			}
			s += val * x[col]
		}
		dst[i] = s
	}
	return dst, nil
}

// MulTVec computes y = Aᵀ·x with one sequential pass over the file.
func (d *DiskCSR) MulTVec(x, dst []float64) ([]float64, error) {
	if len(x) != d.Rows {
		return nil, fmt.Errorf("sparse: MulTVec length mismatch")
	}
	if dst == nil {
		dst = make([]float64, d.Cols)
	} else {
		for j := range dst {
			dst[j] = 0
		}
	}
	st := d.newStreamer()
	for i := 0; i < d.Rows; i++ {
		xi := x[i]
		for k := d.rowPtr[i]; k < d.rowPtr[i+1]; k++ {
			col, val, err := st.next()
			if err != nil {
				//srdalint:ignore hotalloc error exit: runs at most once, then the kernel returns
				return nil, fmt.Errorf("sparse: streaming row %d: %w", i, err)
			}
			dst[col] += val * xi
		}
	}
	return dst, nil
}

// Load reads the whole matrix into memory (for tests and small files),
// checking that column indices increase within each row as CSR requires.
func (d *DiskCSR) Load() (*CSR, error) {
	nnz := d.NNZ()
	out := &CSR{
		Rows:   d.Rows,
		Cols:   d.Cols,
		RowPtr: make([]int, d.Rows+1),
		ColIdx: make([]int, nnz),
		Val:    make([]float64, nnz),
	}
	for i := range d.rowPtr {
		out.RowPtr[i] = int(d.rowPtr[i])
	}
	st := d.newStreamer()
	for i := 0; i < d.Rows; i++ {
		for k := out.RowPtr[i]; k < out.RowPtr[i+1]; k++ {
			col, val, err := st.next()
			if err != nil {
				//srdalint:ignore hotalloc error exit: runs at most once, then Load returns
				return nil, fmt.Errorf("sparse: loading row %d: %w", i, err)
			}
			if k > out.RowPtr[i] && col <= out.ColIdx[k-1] {
				//srdalint:ignore hotalloc error exit: runs at most once, then Load returns
				return nil, fmt.Errorf("%w: row %d column indices not increasing", ErrDiskCSRCorrupt, i)
			}
			out.ColIdx[k] = col
			out.Val[k] = val
		}
	}
	return out, nil
}
