package service

// Row ingestion plumbing shared by the dataset, key and federation
// services: a transport (or embedding program) feeds rows through a
// RowSource; the services chunk them into matrices.

import (
	"errors"
	"fmt"
	"io"

	"ppclust/internal/matrix"
)

// RowSource is a stream of numeric rows. cmd/ppclustd's CSV/NDJSON
// readers satisfy it; an embedding program can hand the services an
// in-memory implementation (see SliceRows).
type RowSource interface {
	// Names returns the column names once the first row has been read.
	Names() []string
	// Read returns the next row, or io.EOF at the end of the stream.
	Read() ([]float64, error)
}

// SliceRows adapts an in-memory slice of rows to a RowSource — the
// embedded-use counterpart of a CSV body.
type SliceRows struct {
	Columns []string
	Rows    [][]float64
	next    int
}

// Names implements RowSource.
func (s *SliceRows) Names() []string { return s.Columns }

// Read implements RowSource.
func (s *SliceRows) Read() ([]float64, error) {
	if s.next >= len(s.Rows) {
		return nil, io.EOF
	}
	row := s.Rows[s.next]
	s.next++
	return row, nil
}

// frameSource is a RowSource that also hands over whole decoded frames,
// as the binary codec's reader does.
type frameSource interface {
	ReadBatch() (*matrix.Dense, []int, error)
}

// ReadAll drains a RowSource into a dense matrix, accumulating directly
// into the flat backing slice so the largest requests are held in memory
// once, not twice. A source of whole frames is read frame by frame: a
// single frame becomes the matrix as decoded, and several are copied once
// into a buffer of exactly their total size.
func ReadAll(src RowSource) (*matrix.Dense, error) {
	if fs, ok := src.(frameSource); ok {
		return readFrames(fs)
	}
	var flat []float64
	var cols, rows int
	for {
		row, err := src.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, Invalid(err)
		}
		if rows == 0 {
			cols = len(row)
		}
		flat = append(flat, row...)
		rows++
	}
	if rows == 0 {
		return nil, Invalid(fmt.Errorf("empty dataset"))
	}
	return matrix.NewDense(rows, cols, flat), nil
}

func readFrames(src frameSource) (*matrix.Dense, error) {
	var frames []*matrix.Dense
	rows := 0
	for {
		b, _, err := src.ReadBatch()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, Invalid(err)
		}
		frames = append(frames, b)
		rows += b.Rows()
	}
	switch len(frames) {
	case 0:
		return nil, Invalid(fmt.Errorf("empty dataset"))
	case 1:
		return frames[0], nil
	}
	flat := make([]float64, 0, rows*frames[0].Cols())
	for _, b := range frames {
		flat = append(flat, b.Raw()...)
	}
	return matrix.NewDense(rows, frames[0].Cols(), flat), nil
}

// ReadBatch reads up to limit rows. It returns (nil, io.EOF) on a clean
// end of stream and (batch, io.EOF) when the final batch is short. Read
// errors other than io.EOF are classified as invalid input.
func ReadBatch(src RowSource, limit int) (*matrix.Dense, error) {
	var rows [][]float64
	for len(rows) < limit {
		row, err := src.Read()
		if errors.Is(err, io.EOF) {
			if len(rows) == 0 {
				return nil, io.EOF
			}
			return matrix.FromRows(rows), io.EOF
		}
		if err != nil {
			return nil, Invalid(err)
		}
		rows = append(rows, row)
	}
	return matrix.FromRows(rows), nil
}
