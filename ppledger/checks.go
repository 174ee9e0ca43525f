package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"

	"ppclust/internal/codec"
	"ppclust/internal/core"
	"ppclust/internal/matrix"
	"ppclust/internal/stats"
)

// Output-check tolerances. Distances must survive protection (Corollary
// 1) to within distTol relative; the PST is rechecked with pstTol of
// headroom for the driver's own summation order.
const (
	distTol    = 1e-9
	pstTol     = 1e-9
	distPairs  = 100
	defaultRho = 0.3 // the daemon's rho1 = rho2 when the request names none
)

// check runs the workload's output checks on the kept responses of a
// phase. It returns the number of samples that failed a check and the
// first failure.
func (d *deployment) check(p phase, seed int64) (failed int, first error) {
	norm := map[int]*matrix.Dense{}
	for _, s := range p.samples {
		if s.err != nil {
			continue
		}
		var err error
		switch {
		case s.kept == nil:
			continue
		case s.op == opProtect && d.wl.wire == codec.FormatName:
			if !bytes.Equal(s.kept, d.owners[s.owner].release) {
				err = errors.New("stream release differs from the set-up fit release of the same body")
			}
		case s.op == opFit && d.wl.wire == codec.FormatName:
			z, ok := norm[s.owner]
			if !ok {
				z = zscore(d.owners[s.owner].in.body.m)
				norm[s.owner] = z
			}
			err = checkRelease(z, s.kept, rand.New(rand.NewSource(seed+int64(s.owner))))
		case s.op == opProtect || s.op == opFit:
			err = checkCSVRelease(s.kept, d.wl.rows, d.wl.cols)
		case s.op == opRead:
			err = checkReadBack(s.kept, d.owners[s.owner].in.reads[s.dataset].m)
		case s.op == opCluster:
			err = checkAssignments(s.kept, d.wl.rows)
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("%s check (owner %d): %w", s.op, s.owner, err)
			}
		}
	}
	return failed, first
}

// zscore standardizes each column with its mean and sample standard
// deviation: the daemon's default normalization, recomputed independently.
func zscore(m *matrix.Dense) *matrix.Dense {
	rows, cols := m.Dims()
	out := matrix.NewDense(rows, cols, nil)
	for j := 0; j < cols; j++ {
		col := m.Col(j)
		mean, sd := stats.Mean(col), math.Sqrt(stats.Variance(col, stats.Sample))
		for i, v := range col {
			out.SetAt(i, j, (v-mean)/sd)
		}
	}
	return out
}

// checkRelease verifies a binary fit release against the z-scored body:
// distances between sampled row pairs are preserved (Corollary 1) and
// every round-robin pair meets its PST, Var(Ai − Ai') >= rho.
func checkRelease(z *matrix.Dense, raw []byte, rng *rand.Rand) error {
	rel, err := decodeBinary(raw)
	if err != nil {
		return err
	}
	if r, c := rel.Dims(); r != z.Rows() || c != z.Cols() {
		return fmt.Errorf("release is %dx%d, body is %dx%d", r, c, z.Rows(), z.Cols())
	}
	for range distPairs {
		a, b := rng.Intn(z.Rows()), rng.Intn(z.Rows())
		if a == b {
			continue
		}
		want, got := dist(z.RawRow(a), z.RawRow(b)), dist(rel.RawRow(a), rel.RawRow(b))
		if math.Abs(got-want) > distTol*want {
			return fmt.Errorf("rows %d,%d: distance %.17g, want %.17g", a, b, got, want)
		}
	}
	for _, p := range core.RoundRobinPairs(z.Cols()) {
		for _, c := range []int{p.I, p.J} {
			diff := make([]float64, z.Rows())
			for i := range diff {
				diff[i] = z.At(i, c) - rel.At(i, c)
			}
			if v := stats.Variance(diff, stats.Sample); v < defaultRho*(1-pstTol) {
				return fmt.Errorf("pair (%d,%d): Var(A%d - A%d') = %.6g below rho %g", p.I, p.J, c, c, v, defaultRho)
			}
		}
	}
	return nil
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func decodeBinary(raw []byte) (*matrix.Dense, error) {
	rd := codec.NewReader(bytes.NewReader(raw))
	var rows [][]float64
	for {
		row, err := rd.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil, errors.New("empty release")
	}
	return matrix.FromRows(rows), nil
}

// decodeCSV parses a header row plus numeric records.
func decodeCSV(raw []byte) ([][]float64, error) {
	recs, err := csv.NewReader(bytes.NewReader(raw)).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, errors.New("no header row")
	}
	out := make([][]float64, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		row := make([]float64, len(rec))
		for j, f := range rec {
			if row[j], err = strconv.ParseFloat(f, 64); err != nil {
				return nil, err
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// checkCSVRelease verifies a release's shape and that every value is
// finite.
func checkCSVRelease(raw []byte, rows, cols int) error {
	got, err := decodeCSV(raw)
	if err != nil {
		return err
	}
	if len(got) != rows {
		return fmt.Errorf("release has %d rows, want %d", len(got), rows)
	}
	for i, row := range got {
		if len(row) != cols {
			return fmt.Errorf("release row %d has %d values, want %d", i, len(row), cols)
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("release row %d holds %v", i, v)
			}
		}
	}
	return nil
}

// checkReadBack verifies that a dataset read back equals the uploaded
// values exactly.
func checkReadBack(raw []byte, want *matrix.Dense) error {
	got, err := decodeCSV(raw)
	if err != nil {
		return err
	}
	if len(got) != want.Rows() {
		return fmt.Errorf("read %d rows, uploaded %d", len(got), want.Rows())
	}
	for i, row := range got {
		w := want.RawRow(i)
		if len(row) != len(w) {
			return fmt.Errorf("row %d has %d values, uploaded %d", i, len(row), len(w))
		}
		for j := range row {
			if row[j] != w[j] {
				return fmt.Errorf("row %d column %d reads %v, uploaded %v", i, j, row[j], w[j])
			}
		}
	}
	return nil
}

// checkAssignments verifies a cluster result: one label per row, each in
// [0, k).
func checkAssignments(raw []byte, rows int) error {
	var res struct {
		Result struct {
			Assignments []int `json:"assignments"`
		} `json:"result"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		return err
	}
	a := res.Result.Assignments
	if len(a) != rows {
		return fmt.Errorf("%d assignments for %d rows", len(a), rows)
	}
	for i, l := range a {
		if l < 0 || l >= clusterK {
			return fmt.Errorf("row %d assigned to cluster %d, want [0,%d)", i, l, clusterK)
		}
	}
	return nil
}
