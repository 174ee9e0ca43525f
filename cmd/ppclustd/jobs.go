package main

// Async analytics job routes — thin adapters over service.JobService:
//
//	POST   /v1/jobs?owner=O              submit {type, dataset, ...} (202)
//	GET    /v1/jobs?owner=O              list owner's jobs
//	GET    /v1/jobs/{id}?owner=O         status + progress
//	DELETE /v1/jobs/{id}?owner=O         cancel (queued or running)
//	GET    /v1/jobs/{id}/result?owner=O  result of a finished job
//
// Job types (validated and executed by the service layer): protect,
// cluster, evaluate, audit, tune — plus federated-cluster, which only a
// federation seal schedules. All routes authorize against the owner's
// bearer token; jobs are owner-isolated (a foreign job ID is
// indistinguishable from an absent one).

import (
	"encoding/json"
	"fmt"
	"net/http"

	"ppclust/internal/jobs"
	"ppclust/internal/service"
)

func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	owner, ok := s.ownerAuth(w, r)
	if !ok {
		return
	}
	var spec service.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, service.Invalid(fmt.Errorf("parsing job spec: %w", err)))
		return
	}
	st, err := s.svc.Jobs.Submit(r.Context(), owner, &spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	owner, ok := s.ownerAuth(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.svc.Jobs.List(owner))
}

func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	owner, ok := s.ownerAuth(w, r)
	if !ok {
		return
	}
	st, err := s.svc.Jobs.Get(owner, r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	owner, ok := s.ownerAuth(w, r)
	if !ok {
		return
	}
	st, err := s.svc.Jobs.Cancel(owner, r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	owner, ok := s.ownerAuth(w, r)
	if !ok {
		return
	}
	res, st, err := s.svc.Jobs.Result(owner, r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, jobs.ResultView[any]{Status: st, Result: res})
}
