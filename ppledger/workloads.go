package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"ppclust/internal/codec"
	"ppclust/internal/dataset"
	"ppclust/internal/matrix"
)

// opKind names one client operation. Every operation is one closed-loop
// step: the client sends the next only after this one has completed.
type opKind string

const (
	// opProtect is a stream-mode protect under the owner's frozen key.
	opProtect opKind = "protect"
	// opFit is a fit-mode protect: it fits and stores a fresh key.
	opFit opKind = "fit"
	// opUpload stores a new dataset for the owner.
	opUpload opKind = "upload"
	// opDelete deletes the owner's oldest upload.
	opDelete opKind = "delete"
	// opRead streams the rows of a dataset created at set-up.
	opRead opKind = "read"
	// opCluster runs a k-means job on a set-up dataset: submit, poll
	// every 5 ms, fetch the result.
	opCluster opKind = "cluster"
)

// workload is one traffic mix against one deployment shape.
type workload struct {
	name string

	nodes   int // daemons; more than one forms a ring behind delay proxies
	clients int // closed-loop clients (capped at nproc)
	owners  int

	// fileStores gives each daemon a file keyring and a data directory;
	// otherwise both stores are in memory.
	fileStores bool
	// wire is the row format of every body: codec.FormatName or "csv".
	wire string
	// cycle is the operation sequence; op i runs cycle[(i+i/owners)%len]
	// for owner i%owners, so every owner meets every slot of the cycle.
	cycle []opKind

	rows, cols int // shape of each owner's protect/upload body
	// readSets is the number of set-up datasets per owner that reads and
	// cluster jobs touch (they never race a delete).
	readSets int
	// keepEvery keeps every n-th response of each owner for the output
	// checks (see keeps).
	keepEvery int64

	// tail is the fixed percentile tail_ms reports over all operations,
	// opTail the fixed per-operation tail percentiles of the ledger. Each
	// is the highest that left at least ten samples beyond it
	// (tailPercentile) in every 30 s run at the commit that introduced
	// the benchmark, stepping down one where it left barely ten, so that
	// a slower run still has ten. They stay fixed so runs remain
	// comparable.
	tail   float64
	opTail map[opKind]float64
}

var workloads = []*workload{
	{
		name:  "stream-bin",
		nodes: 1, clients: 2, owners: 2,
		fileStores: true,
		wire:       codec.FormatName,
		cycle:      []opKind{opProtect},
		rows:       20000, cols: 16,
		keepEvery: 250,
		tail:      99,
		opTail:    map[opKind]float64{opProtect: 99},
	},
	{
		name:  "fit-wide",
		nodes: 1, clients: 1, owners: 4,
		wire:  codec.FormatName,
		cycle: []opKind{opFit},
		rows:  2000, cols: 32,
		keepEvery: 20,
		tail:      95,
		opTail:    map[opKind]float64{opFit: 95},
	},
	{
		name:  "ring-mixed",
		nodes: 3, clients: 2, owners: 6,
		fileStores: true,
		wire:       "csv",
		cycle: []opKind{
			opUpload, opRead, opProtect, opDelete, opRead, opCluster,
			opUpload, opProtect, opRead, opDelete, opFit, opProtect,
		},
		rows: 2000, cols: 5,
		readSets: 2,
		// Coprime with the cycle's length and the read sets, so each
		// owner's kept operations step through every slot and dataset.
		keepEvery: 11,
		tail:      99,
		opTail: map[opKind]float64{
			opProtect: 95, opRead: 95, opUpload: 95, opFit: 90, opCluster: 90,
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opAt returns operation i's kind and owner index.
func (wl *workload) opAt(i int64) (opKind, int) {
	n := int64(wl.owners)
	return wl.cycle[(i+i/n)%int64(len(wl.cycle))], int(i % n)
}

// datasetAt returns the set-up dataset operation i reads or clusters.
func (wl *workload) datasetAt(i int64) int {
	return int(i/int64(wl.owners)) % max(wl.readSets, 1)
}

// keeps reports whether operation i's response is kept for the output
// checks: the first and every keepEvery-th operation of each owner, so
// every owner's responses are checked whatever the owner count.
func (wl *workload) keeps(i int64) bool {
	return (i/int64(wl.owners))%wl.keepEvery == 0
}

// readWorkingSet is the bytes of every set-up dataset that reads and
// cluster jobs touch; each ring node's block cache gets half of it.
func (wl *workload) readWorkingSet() int64 {
	return int64(wl.owners * wl.readSets * wl.rows * wl.cols * 8)
}

// table is one generated dataset: its values and its wire encoding.
type table struct {
	names []string
	m     *matrix.Dense
	raw   []byte
}

// ownerInputs are the generated bodies of one owner.
type ownerInputs struct {
	body  table   // the protect, fit and upload body
	reads []table // datasets uploaded at set-up for reads and jobs
}

// generate builds every owner's inputs from seed: the same seed always
// yields the same bytes. The daemons receive only these bytes.
func (wl *workload) generate(seed int64) ([]ownerInputs, error) {
	in := make([]ownerInputs, wl.owners)
	for o := range in {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(o)))
		var err error
		if in[o].body, err = wl.table(rng); err != nil {
			return nil, err
		}
		for range wl.readSets {
			t, err := wl.table(rng)
			if err != nil {
				return nil, err
			}
			in[o].reads = append(in[o].reads, t)
		}
	}
	return in, nil
}

func (wl *workload) table(rng *rand.Rand) (table, error) {
	var ds *dataset.Dataset
	var err error
	if wl.wire == "csv" {
		// Patients are the paper's hospital scenario; the mixed workload
		// speaks CSV, as a spreadsheet-fed owner would.
		ds, err = dataset.SyntheticPatients(wl.rows, 3, rng)
		if err == nil && ds.Cols() != wl.cols {
			err = fmt.Errorf("patients have %d columns, workload expects %d", ds.Cols(), wl.cols)
		}
	} else {
		ds, err = dataset.WellSeparatedBlobs(wl.rows, 4, wl.cols, 6, rng)
	}
	if err != nil {
		return table{}, err
	}
	ds = ds.DropIDs()
	ds.Labels = nil
	t := table{names: ds.Names, m: ds.Data}
	var buf bytes.Buffer
	if wl.wire == "csv" {
		err = dataset.WriteCSV(&buf, ds)
	} else {
		w := codec.NewWriter(&buf)
		if err = w.WriteHeader(ds.Names, false); err == nil {
			if err = w.WriteBatch(ds.Data, nil); err == nil {
				err = w.Close()
			}
		}
	}
	if err != nil {
		return table{}, err
	}
	t.raw = buf.Bytes()
	return t, nil
}

// contentType is the Content-Type of a body in the workload's wire format.
func (wl *workload) contentType() string {
	if wl.wire == "csv" {
		return "text/csv"
	}
	return codec.ContentType
}
