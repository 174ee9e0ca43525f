package main

// Dataset routes — thin adapters over service.DatasetService:
//
//	POST   /v1/datasets?owner=O&name=D[&labels=last]  ingest CSV/NDJSON
//	GET    /v1/datasets?owner=O                       list owner's datasets
//	GET    /v1/datasets/{name}?owner=O                one dataset's metadata
//	GET    /v1/datasets/{name}/rows?owner=O           stream the rows out
//	DELETE /v1/datasets/{name}?owner=O                remove a dataset
//
// The first upload for an unknown owner claims the owner name and mints
// its bearer token (returned once via X-Ppclust-Token, exactly like a
// fit-protect that creates an owner); every other dataset request must
// present the owner's token. Datasets are owner-isolated: names only
// resolve inside the authenticated owner's namespace.

import (
	"fmt"
	"net/http"

	"ppclust/internal/codec"
	"ppclust/internal/keyring"
	"ppclust/internal/matrix"
	"ppclust/internal/obs"
	"ppclust/internal/service"
)

func (s *server) handleDatasetUpload(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := service.UploadRequest{
		Owner: q.Get("owner"),
		Name:  q.Get("name"),
	}
	if err := keyring.ValidName(req.Owner); err != nil {
		writeErr(w, service.Wrap(err))
		return
	}
	switch q.Get("labels") {
	case "":
	case "last":
		req.LabeledLast = true
	default:
		writeErr(w, service.Invalid(fmt.Errorf("unknown labels %q (want last)", q.Get("labels"))))
		return
	}
	f, err := codec.Negotiate(q.Get("format"), r.Header)
	if err != nil {
		writeErr(w, service.Invalid(err))
		return
	}
	// A known owner (credential or key on file) is authorized before the
	// body is read; an entirely unknown owner is claimed by the service
	// only after a successful ingest.
	known, aerr := s.svc.OwnerKnown(req.Owner)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	if known {
		if aerr := s.authorize(r, req.Owner); aerr != nil {
			writeErr(w, aerr)
			return
		}
	}
	// The claim decision rides on the same snapshot the authorization
	// decision did; the service's atomic claim settles any race.
	req.Claim = !known

	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	res, err := s.svc.Datasets.Upload(r.Context(), req, f.NewReader(body))
	// The claim (and hence the token the client is about to learn) stands
	// even if the ingest failed after it — so the credential header is set
	// before the outcome is known.
	w.Header().Set("X-Ppclust-Owner", req.Owner)
	if res.MintedToken != "" {
		w.Header().Set("X-Ppclust-Token", res.MintedToken)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, res.Meta)
}

func (s *server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	owner, ok := s.ownerAuth(w, r)
	if !ok {
		return
	}
	metas, err := s.svc.Datasets.List(owner)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, metas)
}

func (s *server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	owner, ok := s.ownerAuth(w, r)
	if !ok {
		return
	}
	meta, err := s.svc.Datasets.Get(owner, r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, meta)
}

// handleDatasetRows streams a stored dataset back out as CSV, NDJSON or
// framed binary batches — how the released dataset a protect job produced
// leaves the service for the third-party analyst, block by block. The
// binary path writes each cached block's backing storage straight to the
// socket (the datastore persists little-endian float64 segments, the same
// representation the wire frames carry), so no per-value conversion or
// row slicing happens anywhere between segment file and client.
func (s *server) handleDatasetRows(w http.ResponseWriter, r *http.Request) {
	owner, ok := s.ownerAuth(w, r)
	if !ok {
		return
	}
	f, err := codec.Negotiate(r.URL.Query().Get("format"), r.Header)
	if err != nil {
		writeErr(w, service.Invalid(err))
		return
	}
	ds, err := s.svc.Datasets.Open(owner, r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", f.ContentType)
	w.Header().Set("X-Ppclust-Owner", owner)
	rw := f.NewWriter(w)
	if err := rw.WriteHeader(ds.Attrs, false); err != nil {
		s.logger.Warn("dataset rows write header", "owner", owner, "dataset", ds.Name,
			"trace", obs.TraceID(r.Context()), "err", err.Error())
		return
	}
	werr := ds.Blocks(func(b *matrix.Dense) error {
		if err := rw.WriteBatch(b, nil); err != nil {
			return err
		}
		flush(rw, w)
		return nil
	})
	if werr == nil {
		werr = rw.Close()
	}
	if werr != nil {
		// The header is out: kill the connection so a truncated dataset
		// can never read as a complete one (for the binary format the
		// missing end frame is the explicit truncation signal).
		s.logger.Warn("dataset rows abort", "owner", owner, "dataset", ds.Name,
			"trace", obs.TraceID(r.Context()), "err", werr.Error())
		panic(http.ErrAbortHandler)
	}
}

func (s *server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	owner, ok := s.ownerAuth(w, r)
	if !ok {
		return
	}
	name := r.PathValue("name")
	if err := s.svc.Datasets.Delete(owner, name); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// ownerAuth validates the owner parameter and its credential for every
// owner-scoped read/delete route (datasets, jobs, federations). An owner
// the keyring has never heard of is a 404 — not a confusing credential
// error.
func (s *server) ownerAuth(w http.ResponseWriter, r *http.Request) (string, bool) {
	owner := r.URL.Query().Get("owner")
	if err := keyring.ValidName(owner); err != nil {
		writeErr(w, service.Wrap(err))
		return "", false
	}
	known, err := s.svc.OwnerKnown(owner)
	if err != nil {
		writeErr(w, err)
		return "", false
	}
	if !known {
		writeErr(w, service.Wrap(fmt.Errorf("%w: owner %q", keyring.ErrNotFound, owner)))
		return "", false
	}
	if err := s.authorize(r, owner); err != nil {
		writeErr(w, err)
		return "", false
	}
	return owner, true
}
