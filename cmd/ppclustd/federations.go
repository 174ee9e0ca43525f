package main

// Federation routes — thin adapters over service.FederationService:
//
//	POST   /v1/federations?owner=C                 create (C coordinates)
//	GET    /v1/federations?owner=O                 list O's federations
//	GET    /v1/federations/{id}?owner=O            member view
//	DELETE /v1/federations/{id}?owner=C            coordinator tears down
//	POST   /v1/federations/{id}/join?owner=O       become a member
//	POST   /v1/federations/{id}/contribute?owner=O ingest a partition
//	DELETE /v1/federations/{id}/contribute?owner=O withdraw own partition
//	POST   /v1/federations/{id}/seal?owner=C       finalize + schedule job
//	GET    /v1/federations/{id}/result?owner=O     joint analysis result
//
// The lifecycle, key agreement and joint analysis live in the service
// layer; these handlers only decode, authorize and encode. Create and
// join mint a bearer token for owners the keyring has never seen,
// mirroring dataset uploads.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"ppclust/internal/codec"
	"ppclust/internal/federation"
	"ppclust/internal/jobs"
	"ppclust/internal/keyring"
	"ppclust/internal/service"
)

// fedClaimOrAuth authenticates an owner that may not exist yet: a known
// owner must present its token; an unknown one is claimed with a freshly
// minted credential whose plaintext is returned (to be set as the
// X-Ppclust-Token response header, its single appearance on the wire).
func (s *server) fedClaimOrAuth(w http.ResponseWriter, r *http.Request) (owner, mintedToken string, ok bool) {
	owner = r.URL.Query().Get("owner")
	if err := keyring.ValidName(owner); err != nil {
		writeErr(w, service.Wrap(err))
		return "", "", false
	}
	known, err := s.svc.OwnerKnown(owner)
	if err != nil {
		writeErr(w, err)
		return "", "", false
	}
	if known {
		if err := s.authorize(r, owner); err != nil {
			writeErr(w, err)
			return "", "", false
		}
		return owner, "", true
	}
	tok, err := s.svc.ClaimOwner(owner)
	if err != nil {
		writeErr(w, err)
		return "", "", false
	}
	return owner, tok, true
}

func (s *server) handleFederationCreate(w http.ResponseWriter, r *http.Request) {
	owner, token, ok := s.fedClaimOrAuth(w, r)
	if !ok {
		return
	}
	// The claim (and hence the token the client is about to learn) stands
	// even if the creation fails below, so the credential header is set
	// before the outcome is known — losing it would burn the owner name.
	w.Header().Set("X-Ppclust-Owner", owner)
	if token != "" {
		w.Header().Set("X-Ppclust-Token", token)
	}
	var spec service.CreateFederationSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, service.Invalid(fmt.Errorf("parsing federation spec: %w", err)))
		return
	}
	// In ring mode the forwarding layer pre-generates the federation ID
	// (the placement key) and pins it in the Fed-Id header; creating under
	// that ID keeps the record on the node the ID hashes to.
	id := r.Header.Get("X-Ppclust-Fed-Id")
	if id != "" && !federation.ValidID(id) {
		writeErr(w, service.Invalid(fmt.Errorf("malformed federation id %q", id)))
		return
	}
	v, err := s.svc.Federations.CreateWithID(id, owner, spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/federations/"+v.ID)
	writeJSON(w, http.StatusCreated, v)
}

func (s *server) handleFederationList(w http.ResponseWriter, r *http.Request) {
	owner, ok := s.ownerAuth(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.svc.Federations.List(owner))
}

func (s *server) handleFederationGet(w http.ResponseWriter, r *http.Request) {
	owner, ok := s.ownerAuth(w, r)
	if !ok {
		return
	}
	v, err := s.svc.Federations.Get(r.PathValue("id"), owner)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *server) handleFederationDelete(w http.ResponseWriter, r *http.Request) {
	owner, ok := s.ownerAuth(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	leftovers, err := s.svc.Federations.Delete(id, owner)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id, "leftover_contributions": leftovers})
}

func (s *server) handleFederationJoin(w http.ResponseWriter, r *http.Request) {
	owner, token, ok := s.fedClaimOrAuth(w, r)
	if !ok {
		return
	}
	// As in create: a failed join must not swallow a just-minted token.
	w.Header().Set("X-Ppclust-Owner", owner)
	if token != "" {
		w.Header().Set("X-Ppclust-Token", token)
	}
	v, err := s.svc.Federations.Join(r.PathValue("id"), owner)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleFederationContribute ingests a member's horizontal partition: the
// service fits (coordinator, open federation) or stream-protects (frozen)
// and stores only protected rows.
func (s *server) handleFederationContribute(w http.ResponseWriter, r *http.Request) {
	owner, ok := s.ownerAuth(w, r)
	if !ok {
		return
	}
	f, err := codec.Negotiate(r.URL.Query().Get("format"), r.Header)
	if err != nil {
		writeErr(w, service.Invalid(err))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	v, err := s.svc.Federations.Contribute(r.PathValue("id"), owner, f.NewReader(body))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, v)
}

func (s *server) handleFederationWithdraw(w http.ResponseWriter, r *http.Request) {
	owner, ok := s.ownerAuth(w, r)
	if !ok {
		return
	}
	name, err := s.svc.Federations.Withdraw(r.PathValue("id"), owner)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"withdrawn": name})
}

// handleFederationSeal finalizes the federation and schedules the joint
// analysis as a federated-cluster job under the coordinator owner.
func (s *server) handleFederationSeal(w http.ResponseWriter, r *http.Request) {
	owner, ok := s.ownerAuth(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	var analysis service.FedAnalysisSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&analysis); err != nil && !errors.Is(err, io.EOF) {
		writeErr(w, service.Invalid(fmt.Errorf("parsing analysis spec: %w", err)))
		return
	}
	v, err := s.svc.Federations.Seal(r.Context(), id, owner, analysis)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/federations/"+id+"/result")
	writeJSON(w, http.StatusAccepted, v)
}

// handleFederationResult returns the joint analysis outcome to any
// member. While the job is still running (or was just rescheduled after a
// drain) it answers 409 carrying the live job status next to the error
// envelope, mirroring /v1/jobs/{id}/result semantics.
func (s *server) handleFederationResult(w http.ResponseWriter, r *http.Request) {
	owner, ok := s.ownerAuth(w, r)
	if !ok {
		return
	}
	res, st, err := s.svc.Federations.Result(r.PathValue("id"), owner)
	if err != nil {
		env := service.Envelope(err)
		if st.ID != "" {
			env.Status = &st
		}
		writeJSON(w, httpStatus(env.Error.Code), env)
		return
	}
	writeJSON(w, http.StatusOK, jobs.ResultView[any]{Status: st, Result: res})
}
