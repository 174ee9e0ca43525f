// Package matrix provides dense matrices, vectors and the small linear
// algebra toolkit the rest of the repository is built on: basic arithmetic,
// LU/QR/Cholesky decompositions, a cyclic-Jacobi symmetric eigensolver and
// random orthogonal matrices.
//
// The package is deliberately self-contained (standard library only) and
// sized for the workloads of this repository: data matrices with up to a
// few million cells and square matrices up to a few hundred columns for
// the covariance-based attacks.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrShape is returned (wrapped) whenever operand dimensions are
// incompatible with the requested operation.
var ErrShape = errors.New("matrix: dimension mismatch")

// ErrSingular is returned by solvers when the system matrix is singular to
// working precision.
var ErrSingular = errors.New("matrix: singular matrix")

// Dense is a row-major dense matrix of float64 values.
//
// The zero value is an empty 0x0 matrix. All methods treat receivers as
// immutable unless the method name says otherwise (e.g. SetAt, ScaleInPlace).
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// NewDense returns an r x c matrix backed by data. If data is nil a zeroed
// backing slice is allocated; otherwise data must have length r*c and is
// used directly (not copied).
func NewDense(r, c int, data []float64) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", r, c))
	}
	if data == nil {
		data = make([]float64, r*c)
	}
	if len(data) != r*c {
		panic(fmt.Sprintf("matrix: backing slice length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// GrowRows returns a row-major buffer of cols-wide rows that holds buf's
// rows and has room for more, up to limit rows: at most 512 KiB of whole
// rows when buf is empty, four times buf's rows otherwise, sized so the
// last step lands on limit. A reader that grows its buffer only once it
// is full keeps memory within about four times the rows it has received,
// however many a header declared, and allocates about 4/3 of the final
// buffer in all. Doubling from 512 KiB would allocate up to 2.4 times
// it, which a fresh process pays for in page faults: about 3 ms on the
// first decode of a 2.56 MB frame on a 2-vCPU VM.
func GrowRows(buf []float64, cols, limit int) []float64 {
	const start, factor = 512 << 10, 4
	rows := min(limit, factor*(len(buf)/cols))
	if len(buf) == 0 {
		for rows = limit; rows > 1 && rows*cols*8 > start; {
			rows = (rows + factor - 1) / factor
		}
	}
	grown := make([]float64, rows*cols)
	copy(grown, buf)
	return grown
}

// FromRows builds a matrix from a slice of equally sized rows. The rows are
// copied. It panics if the rows are ragged.
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0, nil)
	}
	c := len(rows[0])
	m := NewDense(r, c, nil)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("matrix: ragged row %d: len %d, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Diagonal returns a square matrix with d on the main diagonal.
func Diagonal(d []float64) *Dense {
	n := len(d)
	m := NewDense(n, n, nil)
	for i, v := range d {
		m.data[i*n+i] = v
	}
	return m
}

// Dims returns the number of rows and columns.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// SetAt sets the element at row i, column j to v.
func (m *Dense) SetAt(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of bounds for %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of bounds for %dx%d", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RawRow returns row i as a slice aliasing the matrix storage. Mutating the
// returned slice mutates the matrix. Prefer Row unless the aliasing is
// deliberate (hot loops in clustering use it).
func (m *Dense) RawRow(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of bounds for %dx%d", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Raw returns the row-major backing slice, aliasing the matrix storage
// (len == Rows()*Cols()). Mutating it mutates the matrix. It exists for
// bulk code paths — columnar kernels and the binary wire codec — that
// stream the whole matrix without per-row slicing; prefer RawRow/Row
// everywhere else.
func (m *Dense) Raw() []float64 { return m.data }

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: column %d out of bounds for %dx%d", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetCol overwrites column j with v, which must have length Rows().
func (m *Dense) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("matrix: SetCol length %d, want %d", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// SetRow overwrites row i with v, which must have length Cols().
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("matrix: SetRow length %d, want %d", len(v), m.cols))
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], v)
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	data := make([]float64, len(m.data))
	copy(data, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: data}
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows, nil)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns the matrix product a*b.
func Mul(a, b *Dense) (*Dense, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := NewDense(a.rows, b.cols, nil)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*b.cols : (i+1)*b.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MustMul is Mul but panics on shape mismatch; for use where shapes are
// statically known to agree.
func MustMul(a, b *Dense) *Dense {
	out, err := Mul(a, b)
	if err != nil {
		panic(err)
	}
	return out
}

// MulVec returns the matrix-vector product m*v.
func (m *Dense) MulVec(v []float64) ([]float64, error) {
	if len(v) != m.cols {
		return nil, fmt.Errorf("%w: %dx%d * vec(%d)", ErrShape, m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// Add returns a+b.
func Add(a, b *Dense) (*Dense, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("%w: %dx%d + %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out, nil
}

// Sub returns a-b.
func Sub(a, b *Dense) (*Dense, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("%w: %dx%d - %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out, nil
}

// Scale returns s*m as a new matrix.
func (m *Dense) Scale(s float64) *Dense {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// ScaleInPlace multiplies every element of m by s.
func (m *Dense) ScaleInPlace(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// Equal reports whether a and b have identical dimensions and elements.
func Equal(a, b *Dense) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if v != b.data[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports whether a and b have identical dimensions and all
// elements within tol of each other. NaNs are never equal.
func EqualApprox(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol || math.IsNaN(v) != math.IsNaN(b.data[i]) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b, or an error on shape mismatch.
func MaxAbsDiff(a, b *Dense) (float64, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return 0, fmt.Errorf("%w: %dx%d vs %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	var max float64
	for i, v := range a.data {
		if d := math.Abs(v - b.data[i]); d > max {
			max = d
		}
	}
	return max, nil
}

// FrobeniusNorm returns sqrt(sum of squared elements).
func (m *Dense) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// HasNaN reports whether any element is NaN or infinite.
func (m *Dense) HasNaN() bool {
	for _, v := range m.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// SubMatrix returns a copy of the block [r0,r1) x [c0,c1).
func (m *Dense) SubMatrix(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("matrix: SubMatrix [%d:%d,%d:%d] out of bounds for %dx%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := NewDense(r1-r0, c1-c0, nil)
	for i := r0; i < r1; i++ {
		copy(out.data[(i-r0)*out.cols:(i-r0+1)*out.cols], m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return out
}

// SelectCols returns a copy of m keeping only the given columns, in order.
func (m *Dense) SelectCols(cols []int) *Dense {
	out := NewDense(m.rows, len(cols), nil)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, j := range cols {
			if j < 0 || j >= m.cols {
				panic(fmt.Sprintf("matrix: SelectCols column %d out of bounds for %dx%d", j, m.rows, m.cols))
			}
			orow[k] = row[j]
		}
	}
	return out
}

// SelectRows returns a copy of m keeping only the given rows, in order.
func (m *Dense) SelectRows(rows []int) *Dense {
	out := NewDense(len(rows), m.cols, nil)
	for k, i := range rows {
		if i < 0 || i >= m.rows {
			panic(fmt.Sprintf("matrix: SelectRows row %d out of bounds for %dx%d", i, m.rows, m.cols))
		}
		copy(out.data[k*m.cols:(k+1)*m.cols], m.data[i*m.cols:(i+1)*m.cols])
	}
	return out
}

// AppendRows returns a new matrix with the rows of b appended below a.
func AppendRows(a, b *Dense) (*Dense, error) {
	if a.cols != b.cols {
		return nil, fmt.Errorf("%w: append %dx%d below %dx%d", ErrShape, b.rows, b.cols, a.rows, a.cols)
	}
	out := NewDense(a.rows+b.rows, a.cols, nil)
	copy(out.data, a.data)
	copy(out.data[len(a.data):], b.data)
	return out, nil
}

// String renders the matrix with aligned columns, useful in tests and CLIs.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%10.4f", m.data[i*m.cols+j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
