package service

// The service error model: every operation returns an error chain that
// carries exactly one service sentinel, so transports map outcomes to
// their own status vocabulary (HTTP statuses, exit codes, …) with one
// lookup instead of enumerating every domain error in every handler.
//
// Classification preserves the underlying chain — errors.Is against the
// original domain error (keyring.ErrNotFound, jobs.ErrDraining, …) keeps
// working — so embedding callers can switch on either vocabulary.

import (
	"encoding/json"
	"errors"

	"ppclust/internal/core"
	"ppclust/internal/datastore"
	"ppclust/internal/federation"
	"ppclust/internal/jobs"
	"ppclust/internal/keyring"
	"ppclust/internal/mech"
	"ppclust/internal/multiparty"
	"ppclust/internal/tuning"
)

// Service sentinels. Every error a service returns wraps exactly one.
var (
	// ErrNotFound reports a missing owner, dataset, job, key version or
	// federation (including ones hidden by owner isolation).
	ErrNotFound = errors.New("not found")
	// ErrConflict reports state that refuses the operation: duplicate
	// names, wrong lifecycle phase, results not ready yet.
	ErrConflict = errors.New("conflict")
	// ErrForbidden reports an authenticated caller without the right to
	// the resource (foreign token, non-coordinator seal, no credential).
	ErrForbidden = errors.New("forbidden")
	// ErrUnauthenticated reports a missing credential where one is
	// required.
	ErrUnauthenticated = errors.New("unauthenticated")
	// ErrInvalid reports a malformed request: bad names, bad specs, bad
	// data.
	ErrInvalid = errors.New("invalid request")
	// ErrDraining reports a service shutting down; the client should
	// retry after the restart.
	ErrDraining = errors.New("draining")
	// ErrRateLimited reports an owner over its admission budget; the
	// client should back off and retry.
	ErrRateLimited = errors.New("rate limited")
	// ErrInternal reports an unexpected failure.
	ErrInternal = errors.New("internal error")
)

// Wire codes, one per sentinel: the "code" field of the error envelope.
const (
	CodeNotFound        = "not_found"
	CodeConflict        = "conflict"
	CodeForbidden       = "forbidden"
	CodeUnauthenticated = "unauthenticated"
	CodeInvalid         = "invalid"
	CodeDraining        = "draining"
	CodeRateLimited     = "rate_limited"
	CodeInternal        = "internal"
)

// ErrorEnvelope is the one error body every route returns:
// {"error": {"code", "message"}}. A federation result fetched before its
// joint analysis finished also carries the job's live status.
type ErrorEnvelope struct {
	Error  ErrorBody    `json:"error"`
	Status *jobs.Status `json:"status,omitempty"`
}

// ErrorBody is the envelope's error: a wire code and a message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Envelope renders a classified error as the error envelope.
func Envelope(err error) ErrorEnvelope {
	return ErrorEnvelope{Error: ErrorBody{Code: Code(err), Message: err.Error()}}
}

// ParseError decodes a non-2xx body as the error envelope. ok is false
// for an answer without one, such as the mux's plain-text 404 or a
// proxy's 502.
func ParseError(raw []byte) (body ErrorBody, ok bool) {
	var env ErrorEnvelope
	if json.Unmarshal(raw, &env) != nil || env.Error.Message == "" {
		return ErrorBody{}, false
	}
	return env.Error, true
}

// Code returns the wire code for a classified error. Unclassified errors
// are internal: the mapper, not the call sites, decides what leaks.
func Code(err error) string {
	switch {
	case errors.Is(err, ErrNotFound):
		return CodeNotFound
	case errors.Is(err, ErrConflict):
		return CodeConflict
	case errors.Is(err, ErrForbidden):
		return CodeForbidden
	case errors.Is(err, ErrUnauthenticated):
		return CodeUnauthenticated
	case errors.Is(err, ErrInvalid):
		return CodeInvalid
	case errors.Is(err, ErrDraining):
		return CodeDraining
	case errors.Is(err, ErrRateLimited):
		return CodeRateLimited
	default:
		return CodeInternal
	}
}

// classified pairs a sentinel with the underlying error so both stay
// visible to errors.Is/As.
type classified struct {
	kind error
	err  error
}

func (e *classified) Error() string   { return e.err.Error() }
func (e *classified) Unwrap() []error { return []error{e.kind, e.err} }

// mark wraps err with the given sentinel (no-op on nil).
func mark(kind, err error) error {
	if err == nil {
		return nil
	}
	return &classified{kind: kind, err: err}
}

// Invalid marks err as an invalid-request error.
func Invalid(err error) error { return mark(ErrInvalid, err) }

// NotFoundErr marks err as a not-found error — for cluster layers
// mapping remote lookups into the service vocabulary.
func NotFoundErr(err error) error { return mark(ErrNotFound, err) }

// Conflict marks err as a conflict error — for cluster layers mapping
// remote claim races (HTTP 409s) into the service vocabulary.
func Conflict(err error) error { return mark(ErrConflict, err) }

// Internal marks err as an internal error.
func Internal(err error) error { return mark(ErrInternal, err) }

// Wrap classifies an arbitrary domain error through the shared mapper —
// for transports that produce their own errors (codec failures, bad query
// strings) and want them in the same envelope vocabulary.
func Wrap(err error) error { return classify(err) }

// errBadJob tags job-spec validation failures (classified as ErrInvalid).
var errBadJob = errors.New("invalid job spec")

// classify maps a domain error onto its service sentinel — the one shared
// error mapper every service method funnels through.
func classify(err error) error {
	if err == nil {
		return nil
	}
	var c *classified
	if errors.As(err, &c) {
		return err // already classified; keep the outermost context
	}
	switch {
	case errors.Is(err, keyring.ErrNotFound),
		errors.Is(err, datastore.ErrNotFound),
		errors.Is(err, jobs.ErrNotFound),
		errors.Is(err, federation.ErrNotFound):
		return mark(ErrNotFound, err)
	case errors.Is(err, keyring.ErrExists),
		errors.Is(err, datastore.ErrExists),
		errors.Is(err, jobs.ErrNotTerminal),
		errors.Is(err, jobs.ErrTerminal),
		errors.Is(err, federation.ErrExists),
		errors.Is(err, federation.ErrState):
		return mark(ErrConflict, err)
	case errors.Is(err, federation.ErrNotCoordinator):
		return mark(ErrForbidden, err)
	case errors.Is(err, jobs.ErrDraining):
		return mark(ErrDraining, err)
	case errors.Is(err, keyring.ErrBadName),
		errors.Is(err, datastore.ErrBadName),
		errors.Is(err, datastore.ErrBadData),
		errors.Is(err, errBadJob),
		errors.Is(err, jobs.ErrUnknownType),
		errors.Is(err, federation.ErrBadConfig),
		errors.Is(err, multiparty.ErrParty),
		errors.Is(err, tuning.ErrSpec),
		errors.Is(err, mech.ErrConfig),
		errors.Is(err, core.ErrBadInput),
		errors.Is(err, core.ErrBadPair),
		errors.Is(err, core.ErrBadThreshold),
		errors.Is(err, core.ErrEmptySecurityRange):
		return mark(ErrInvalid, err)
	default:
		return mark(ErrInternal, err)
	}
}
