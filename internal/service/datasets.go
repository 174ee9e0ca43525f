package service

// DatasetService: named, owner-scoped uploads — the inputs and outputs of
// every async workload.

import (
	"context"
	"fmt"
	"math"
	"time"

	"ppclust/internal/datastore"
	"ppclust/internal/keyring"
	"ppclust/internal/matrix"
	"ppclust/internal/obs"
)

// DatasetService manages the dataset store.
type DatasetService struct {
	c *deps
}

// UploadRequest describes one dataset ingest.
type UploadRequest struct {
	// Owner and Name place the dataset.
	Owner string
	Name  string
	// LabeledLast treats the final column as ground-truth labels.
	LabeledLast bool
	// Claim claims the owner name (minting its credential) after a
	// successful ingest. Callers set it when their own pre-body check
	// found the owner unknown — the same snapshot they based the skipped
	// authorization on. The claim is atomic: if the owner was created
	// concurrently in the meantime, the upload loses with a conflict
	// instead of silently writing into the new owner's namespace.
	Claim bool
}

// UploadResult is a completed (or claim-completed) ingest.
type UploadResult struct {
	Meta datastore.Meta
	// MintedToken is the freshly claimed owner credential. It is set even
	// when the upload itself subsequently failed: the claim stands, and
	// losing the token would burn the owner name. Callers must surface it
	// before inspecting the error.
	MintedToken string
}

// Upload ingests src as owner's named dataset, reading it in batches
// through one pooled buffer as a stream contribution does. An unknown
// owner is claimed (with a minted credential) only after the rows ingest
// cleanly — a rejected upload must not burn the name with a token nobody
// received. Known owners must be authorized by the caller before the body
// is read.
func (d *DatasetService) Upload(ctx context.Context, req UploadRequest, src RowSource) (UploadResult, error) {
	// One span covers decode + ingest: each batch goes from the wire
	// decoder into the builder before the next is read, so the two stages
	// are not separable here.
	_, span := obs.Start(ctx, "ingest")
	defer span.End()
	if err := keyring.ValidName(req.Owner); err != nil {
		return UploadResult{}, classify(err)
	}
	if err := datastore.ValidName(req.Name); err != nil {
		return UploadResult{}, classify(err)
	}
	if IsFederationDataset(req.Name) {
		return UploadResult{}, Invalid(fmt.Errorf("%w: %q — the fed. prefix is reserved for federation contributions", datastore.ErrBadName, req.Name))
	}
	var b *datastore.Builder
	err := eachBatch(src, func(batch *matrix.Dense) error {
		if b == nil {
			attrs := src.Names()
			if req.LabeledLast {
				if len(attrs) < 2 {
					return Invalid(fmt.Errorf("labels=last needs at least 2 columns"))
				}
				attrs = attrs[:len(attrs)-1]
			}
			var err error
			if b, err = datastore.NewBuilder(req.Owner, req.Name, attrs); err != nil {
				return classify(err)
			}
		}
		for i := 0; i < batch.Rows(); i++ {
			row := batch.RawRow(i)
			var err error
			if req.LabeledLast {
				label, lerr := intLabel(row[len(row)-1])
				if lerr != nil {
					return Invalid(lerr)
				}
				err = b.AppendLabeled(row[:len(row)-1], label)
			} else {
				err = b.Append(row)
			}
			if err != nil {
				return classify(err)
			}
		}
		return nil
	})
	if err != nil {
		return UploadResult{}, err
	}
	if b == nil {
		return UploadResult{}, Invalid(fmt.Errorf("empty dataset"))
	}
	ds, err := b.Finish(time.Now())
	if err != nil {
		return UploadResult{}, classify(err)
	}
	out := UploadResult{}
	span.Set("rows", ds.Rows)
	if req.Claim {
		// No re-check of ownerKnown here: the caller's snapshot decided
		// the claim, and claimOwner is the atomic arbiter of races.
		tok, err := d.c.claimOwner(req.Owner)
		if err != nil {
			return out, err
		}
		out.MintedToken = tok
	}
	// From here on the claim (and hence out.MintedToken) stands even if
	// the store rejects the dataset.
	if err := d.c.st.Put(ds); err != nil {
		return out, classify(err)
	}
	d.c.rowsIngested.Add(int64(ds.Rows))
	d.c.replicate(ReplicationEvent{Kind: ReplicateDataset, Owner: ds.Owner, Dataset: ds.Name})
	out.Meta = ds.Meta
	return out, nil
}

// List returns metadata for owner's datasets.
func (d *DatasetService) List(owner string) ([]datastore.Meta, error) {
	metas, err := d.c.st.List(owner)
	if err != nil {
		return nil, classify(err)
	}
	return metas, nil
}

// Get returns one dataset's metadata.
func (d *DatasetService) Get(owner, name string) (datastore.Meta, error) {
	ds, err := d.c.st.Get(owner, name)
	if err != nil {
		return datastore.Meta{}, classify(err)
	}
	return ds.Meta, nil
}

// Open returns the stored dataset for reading (metadata plus block
// iteration) — how releases leave the service for the analyst.
func (d *DatasetService) Open(owner, name string) (*datastore.Dataset, error) {
	ds, err := d.c.st.Get(owner, name)
	if err != nil {
		return nil, classify(err)
	}
	return ds, nil
}

// Delete removes owner's named dataset. Federation contributions are
// refused: withdrawal goes through the federation service, which keeps
// the contribution references consistent.
func (d *DatasetService) Delete(owner, name string) error {
	if IsFederationDataset(name) {
		return mark(ErrConflict, fmt.Errorf("%q is a federation contribution; withdraw it via the federation instead", name))
	}
	if err := d.c.st.Delete(owner, name); err != nil {
		return classify(err)
	}
	d.c.replicate(ReplicationEvent{Kind: ReplicateDatasetDelete, Owner: owner, Dataset: name})
	return nil
}

// intLabel parses a ground-truth label carried in a numeric column.
func intLabel(v float64) (int, error) {
	if v != math.Trunc(v) || math.Abs(v) > 1e9 {
		return 0, fmt.Errorf("label %g is not an integer", v)
	}
	return int(v), nil
}
