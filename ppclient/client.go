// Package ppclient is the Go client SDK for ppclustd: first-class
// datasets (upload, list, download, delete), async jobs (submit, poll,
// cancel, fetch results — including the tune sweep's Pareto frontier),
// and the federation workload (create, join, contribute, seal, joint
// result).
//
// One Client speaks for one owner. Every call takes a context.Context, so
// uploads, submissions and polls are cancellable end to end. The bearer
// token minted when the owner is first claimed (by the first dataset
// upload, CreateFederation or JoinFederation for an owner the daemon has
// never seen) is captured into Token automatically; persist it — the
// daemon only ever reveals it once.
package ppclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"syscall"
	"time"

	"ppclust/internal/codec"
	"ppclust/internal/datastore"
	"ppclust/internal/federation"
	"ppclust/internal/jobs"
	"ppclust/internal/matrix"
	"ppclust/internal/obs"
	"ppclust/internal/ring"
	"ppclust/internal/service"
	"ppclust/internal/tuning"
)

// Wire format values for Client.Wire.
const (
	// WireBinary is the framed binary row-batch format
	// (application/x-ppclust-rows) — the default.
	WireBinary = codec.FormatName
	// WireCSV forces text CSV for structured-row calls.
	WireCSV = "csv"
)

// TraceHeader is the request-ID header the daemon adopts and reflects:
// set it (or use WithTraceID) to pin the server-side trace ID a request
// runs under, so client-side reports can quote server traces.
const TraceHeader = obs.TraceHeader

// WithTraceID returns a context that pins id as the X-Ppclust-Trace
// header of every request built from it (obs.WithTraceID).
func WithTraceID(ctx context.Context, id string) context.Context {
	return obs.WithTraceID(ctx, id)
}

// The dataset, job, federation and tune bodies are the daemon's own
// types, so a field the daemon serves is a field the client reads.
type (
	// Party is one federation member: its owner and its contribution.
	Party = federation.Party
	// Federation is the secret-free federation view.
	Federation = federation.View
	// FederationConfig is the creation spec: the agreed schema and the
	// transform parameters of the shared key fit.
	FederationConfig = service.CreateFederationSpec
	// Analysis selects the joint clustering a seal schedules.
	Analysis = service.FedAnalysisSpec
	// ResultParty locates one party's rows inside the joint assignments.
	ResultParty = service.FedResultParty
	// Result is the joint clustering outcome; its clustering fields come
	// from the embedded service.ClusterOutcome.
	Result = service.FedOutcome
	// DatasetMeta is the secret-free dataset description.
	DatasetMeta = datastore.Meta
	// JobStatus is a job's snapshot. TraceID is the trace of the request
	// that submitted the job; Timeline is the per-stage duration record
	// it left behind (queued, running, then every engine/store stage).
	JobStatus = jobs.Status
	// JobStage is one entry of a job's timeline.
	JobStage = obs.Stage
	// TuneSpec parameterizes a tune job: the sweep grids, the clustering
	// algorithm every candidate is scored with, and the recommendation
	// constraint. It is the job spec; SubmitTune fills in Type and
	// Dataset. Zero values defer to the daemon's defaults (all
	// mechanisms, the standard rho/sigma grids, kmeans requires K).
	TuneSpec = service.JobSpec
	// TunePoint is one evaluated candidate of a tune sweep.
	TunePoint = tuning.Point
	// TuneResult is the tune job's result payload: every evaluated point,
	// the Pareto frontier, and the recommended operating point.
	TuneResult = tuning.Result
)

// Client talks to one ppclustd instance on behalf of one owner.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8344".
	BaseURL string
	// Owner is the keyring owner name this client authenticates as.
	Owner string
	// Token is the owner's bearer token. Left empty for a new owner, it
	// is filled in from the first response that mints one.
	Token string
	// HTTPClient overrides http.DefaultClient when set.
	HTTPClient *http.Client
	// PollInterval is the result-polling cadence (default 50ms).
	PollInterval time.Duration
	// Retries caps the automatic retries of idempotent GETs (transport
	// errors, 502/503/504) and of drain-time 503s on rewindable writes —
	// what lets a client ride out a SIGTERM drain/restart cycle.
	// 0 means the default of 4; negative disables retrying.
	Retries int
	// RetryBackoff is the first retry delay (default 50ms). It doubles
	// per attempt up to RetryMaxBackoff (default 2s), with ±50% jitter;
	// the request context cancels the wait.
	RetryBackoff    time.Duration
	RetryMaxBackoff time.Duration
	// Wire alone selects the row wire format of the structured-row calls
	// (UploadDataset, Contribute, DownloadDatasetRows): WireCSV, or
	// WireBinary, which empty also means. Any other value fails before a
	// request is sent. Nothing is probed: a daemon that cannot read the
	// format answers 400, which reaches the caller as an *APIError.
	Wire string

	// ringTable, when loaded by UseRing, routes owner-scoped requests
	// straight to the owner's home node.
	ringMu    sync.RWMutex
	ringTable *ring.Ring
}

// New returns a client for owner against baseURL.
func New(baseURL, owner string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), Owner: owner}
}

// APIError is a non-2xx daemon response, decoded from the shared error
// envelope {"error": {"code", "message"}}.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the service error code ("not_found", "conflict",
	// "forbidden", "unauthenticated", "invalid", "draining", "internal");
	// empty for an answer without the envelope, such as a plain-text 404
	// or a proxy's 502.
	Code string
	// Message is the human-readable error.
	Message string
	// TraceID is the server-side trace ID of the failed request (from the
	// X-Ppclust-Trace response header) — quote it when reporting.
	TraceID string
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("ppclustd: %d %s: %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("ppclustd: %d: %s", e.Status, e.Message)
}

// IsCode reports whether err is an APIError carrying the given service
// error code.
func IsCode(err error, code string) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == code
}

// IsStatus reports whether err is an APIError with the given HTTP status.
func IsStatus(err error, status int) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == status
}

// CreateFederation creates a federation coordinated by the client's owner.
func (c *Client) CreateFederation(ctx context.Context, cfg FederationConfig) (*Federation, error) {
	var out Federation
	if err := c.doJSON(ctx, http.MethodPost, "/v1/federations", cfg, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Federation fetches the member view of federation id.
func (c *Client) Federation(ctx context.Context, id string) (*Federation, error) {
	var out Federation
	if err := c.doJSON(ctx, http.MethodGet, "/v1/federations/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Federations lists the federations the owner belongs to.
func (c *Client) Federations(ctx context.Context) ([]Federation, error) {
	var out []Federation
	if err := c.doJSON(ctx, http.MethodGet, "/v1/federations", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// JoinFederation adds the owner as a member of federation id. The ID is
// the invitation: only someone the coordinator told it to can join.
func (c *Client) JoinFederation(ctx context.Context, id string) (*Federation, error) {
	var out Federation
	if err := c.doJSON(ctx, http.MethodPost, "/v1/federations/"+id+"/join", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Contribute uploads the owner's horizontal partition. The daemon
// protects the rows under the federation's shared transform and stores
// only the protected release; when the owner is the coordinator and the
// federation is still open, this contribution fits and freezes the
// shared key. Rows travel in the format Wire names.
func (c *Client) Contribute(ctx context.Context, id string, columns []string, rows [][]float64) (*Federation, error) {
	f, err := c.wire()
	if err != nil {
		return nil, err
	}
	buf, err := renderRows(f, columns, rows)
	if err != nil {
		return nil, err
	}
	return postRows[Federation](ctx, c, "/v1/federations/"+id+"/contribute", f, buf)
}

// wire returns the codec format Wire names.
func (c *Client) wire() (*codec.Format, error) {
	switch c.Wire {
	case "", WireBinary:
		return codec.Binary, nil
	case WireCSV:
		return codec.CSV, nil
	}
	return nil, fmt.Errorf("ppclient: unknown Wire %q (want %q or %q)", c.Wire, WireBinary, WireCSV)
}

// frameRows caps the rows of one batch renderRows writes.
const frameRows = 4096

// renderRows writes a header plus numeric rows in format f as batches of
// at most frameRows rows (one frame each in binary), each gathered into
// one reused buffer.
func renderRows(f *codec.Format, columns []string, rows [][]float64) (*bytes.Buffer, error) {
	var buf bytes.Buffer
	w := f.NewWriter(&buf)
	if err := w.WriteHeader(columns, false); err != nil {
		return nil, err
	}
	cols := len(columns)
	frame := make([]float64, 0, min(len(rows), frameRows)*cols)
	for lo := 0; lo < len(rows); lo += frameRows {
		batch := rows[lo:min(lo+frameRows, len(rows))]
		frame = frame[:0]
		for _, row := range batch {
			if len(row) != cols {
				return nil, fmt.Errorf("ppclient: row has %d values, schema has %d columns", len(row), cols)
			}
			frame = append(frame, row...)
		}
		if err := w.WriteBatch(matrix.NewDense(len(batch), cols, frame), nil); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return &buf, nil
}

// postRows POSTs a row body in format f, named by both the format= query
// and the Content-Type, and decodes the JSON answer.
func postRows[T any](ctx context.Context, c *Client, path string, f *codec.Format, body io.Reader) (*T, error) {
	req, err := c.newRequest(ctx, http.MethodPost, path, body)
	if err != nil {
		return nil, err
	}
	req.URL.RawQuery += "&format=" + f.Name
	req.Header.Set("Content-Type", f.ContentType)
	var out T
	if err := c.exec(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ContributeCSV uploads a partition already rendered as CSV (header row
// of column names, then numeric rows).
func (c *Client) ContributeCSV(ctx context.Context, id string, body io.Reader) (*Federation, error) {
	return postRows[Federation](ctx, c, "/v1/federations/"+id+"/contribute", codec.CSV, body)
}

// WithdrawContribution removes the owner's own contribution (before seal).
func (c *Client) WithdrawContribution(ctx context.Context, id string) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/federations/"+id+"/contribute", nil, nil)
}

// Seal finalizes federation id and schedules the joint analysis.
// Coordinator only.
func (c *Client) Seal(ctx context.Context, id string, analysis Analysis) (*Federation, error) {
	var out Federation
	if err := c.doJSON(ctx, http.MethodPost, "/v1/federations/"+id+"/seal", analysis, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteFederation tears federation id down, contributions included.
// Coordinator only.
func (c *Client) DeleteFederation(ctx context.Context, id string) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/federations/"+id, nil, nil)
}

// Result polls the federation result route until the joint analysis
// finishes (or ctx is done) and returns its outcome. A failed or
// cancelled analysis is returned as an error carrying the job state.
func (c *Client) Result(ctx context.Context, id string) (*Result, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	for {
		var body jobs.ResultView[*Result]
		err := c.doJSON(ctx, http.MethodGet, "/v1/federations/"+id+"/result", nil, &body)
		switch {
		case err == nil:
			switch body.Status.State {
			case jobs.StateDone:
				return body.Result, nil
			case jobs.StateFailed, jobs.StateCancelled:
				return nil, fmt.Errorf("ppclient: joint analysis %s: %s", body.Status.State, body.Status.Error)
			}
		case IsStatus(err, http.StatusConflict):
			// Still queued or running; keep polling.
		default:
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(interval):
		}
	}
}

// DownloadDataset streams one of the owner's stored datasets (e.g. its
// own protected federation contribution "fed.<id>") as CSV.
func (c *Client) DownloadDataset(ctx context.Context, name string) (string, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/v1/datasets/"+url.PathEscape(name)+"/rows", nil)
	if err != nil {
		return "", err
	}
	raw, err := c.do(req)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// DownloadDatasetRows fetches one of the owner's stored datasets decoded
// into column names and numeric rows, in the format Wire names — by
// default binary frames, with no float↔text conversion on either side.
func (c *Client) DownloadDatasetRows(ctx context.Context, name string) ([]string, [][]float64, error) {
	f, err := c.wire()
	if err != nil {
		return nil, nil, err
	}
	req, err := c.newRequest(ctx, http.MethodGet,
		"/v1/datasets/"+url.PathEscape(name)+"/rows?format="+f.Name, nil)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Accept", f.ContentType)
	raw, err := c.do(req)
	if err != nil {
		return nil, nil, err
	}
	rd := f.NewReader(bytes.NewReader(raw))
	var rows [][]float64
	for {
		row := make([]float64, len(rd.Names()))
		n, err := rd.ReadRows(row)
		if n == 1 {
			rows = append(rows, row)
		}
		if errors.Is(err, io.EOF) {
			return rd.Names(), rows, nil
		}
		if err != nil {
			return nil, nil, fmt.Errorf("ppclient: decoding %s rows: %w", f.Name, err)
		}
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// newRequest builds an authenticated request with the owner query set,
// routed to the owner's home node when a ring table is loaded.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	sep := "?"
	if strings.Contains(path, "?") {
		sep = "&"
	}
	req, err := http.NewRequestWithContext(ctx, method, c.routeBase(path)+path+sep+"owner="+url.QueryEscape(c.Owner), body)
	if err != nil {
		return nil, err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if id := obs.TraceID(ctx); id != "" {
		req.Header.Set(TraceHeader, id)
	}
	return req, nil
}

// doJSON sends an optional JSON body and decodes a JSON response into out
// (which may be nil).
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(raw)
	}
	req, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.exec(req, out)
}

// exec runs the request (with retries), captures a freshly minted token,
// and decodes the response.
func (c *Client) exec(req *http.Request, out any) error {
	raw, err := c.do(req)
	if err != nil {
		return err
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("ppclient: decoding response: %w", err)
		}
	}
	return nil
}

// do runs the request through DoRaw to a 2xx body, mapping non-2xx
// responses to APIError and capturing a freshly minted token.
func (c *Client) do(req *http.Request) ([]byte, error) {
	resp, err := c.DoRaw(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if tok := resp.Header.Get("X-Ppclust-Token"); tok != "" && c.Token == "" {
		c.Token = tok
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return raw, nil
	}
	err = apiError(resp.StatusCode, raw)
	var ae *APIError
	if errors.As(err, &ae) {
		ae.TraceID = resp.Header.Get(TraceHeader)
	}
	return nil, err
}

// DoRaw runs an arbitrary request through the client's retry machinery
// and returns the final response unread (the caller owns Body). Retries
// happen where they are safe:
//
//   - idempotent GETs on transport errors and gateway-ish statuses
//     (502/503/504) — a restarting daemon refuses connections for a
//     moment, and polls must ride that out;
//   - any method on connection-refused when the body can be rewound —
//     refused means the peer never saw the request, so resending cannot
//     double-apply it. This is what lets ring forwarding fail over to a
//     successor while a dead node's entry is still in the member list;
//   - any method on 503 when the body can be rewound (GetBody is set for
//     the in-memory bodies every JSON call uses) — a draining daemon
//     answers 503 to submissions, and the persisted queue makes the
//     retry safe after restart.
//
// Non-2xx statuses that are not retryable (or are out of retries) are
// returned as responses, not errors — ppclustd's ring proxy passes them
// through verbatim; do maps them to APIError for the typed API.
// Backoff is exponential with ±50% jitter, capped, and aborted by the
// request context.
func (c *Client) DoRaw(req *http.Request) (*http.Response, error) {
	retries := c.Retries
	switch {
	case retries == 0:
		retries = 4
	case retries < 0:
		retries = 0
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := c.httpClient().Do(req)
		if err != nil {
			lastErr = err
			retriableTransport := req.Method == http.MethodGet ||
				(connRefused(err) && rewind(req) == nil)
			if attempt >= retries || !retriableTransport {
				return nil, err
			}
			if req.Method == http.MethodGet {
				// GET bodies are rare but possible; best-effort rewind.
				_ = rewind(req)
			}
			if err := c.backoff(req.Context(), attempt); err != nil {
				return nil, lastErr
			}
			continue
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			return resp, nil
		}
		if attempt < retries && c.retryable(req, resp.StatusCode) && rewind(req) == nil {
			// The retried response is consumed before backing off; if the
			// context dies during the wait there is nothing left to return.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err := c.backoff(req.Context(), attempt); err != nil {
				return nil, err
			}
			continue
		}
		return resp, nil
	}
}

// connRefused reports whether a transport error means the peer refused
// the connection outright — the kernel rejected the dial, so the server
// never observed the request and a resend cannot double-apply it.
func connRefused(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED)
}

// retryable reports whether a response status may be retried for req.
func (c *Client) retryable(req *http.Request, status int) bool {
	switch status {
	case http.StatusServiceUnavailable:
		return true // drain-time 503: safe for every method once rewound
	case http.StatusBadGateway, http.StatusGatewayTimeout:
		return req.Method == http.MethodGet
	default:
		return false
	}
}

// rewind resets a consumed request body for the next attempt.
func rewind(req *http.Request) error {
	if req.Body == nil || req.Body == http.NoBody {
		return nil
	}
	if req.GetBody == nil {
		return errors.New("ppclient: request body cannot be rewound")
	}
	body, err := req.GetBody()
	if err != nil {
		return err
	}
	req.Body = body
	return nil
}

// backoff sleeps for the attempt's delay (exponential, jittered, capped)
// or until ctx is done.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	base := c.RetryBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxd := c.RetryMaxBackoff
	if maxd <= 0 {
		maxd = 2 * time.Second
	}
	delay := base << uint(attempt)
	if delay > maxd || delay <= 0 {
		delay = maxd
	}
	// ±50% jitter keeps a fleet of clients from re-slamming a restarting
	// daemon in lockstep.
	delay = delay/2 + time.Duration(rand.Int64N(int64(delay)/2+1))
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(delay):
		return nil
	}
}

// apiError decodes the shared error envelope (service.ErrorEnvelope),
// falling back to the raw body for the plain-text answers that never
// carry it (the mux's 404, a proxy's 502).
func apiError(status int, raw []byte) error {
	if body, ok := service.ParseError(raw); ok {
		return &APIError{Status: status, Code: body.Code, Message: body.Message}
	}
	return &APIError{Status: status, Message: strings.TrimSpace(string(raw))}
}

// UploadDataset uploads rows as the owner's named dataset. The first
// upload for an unknown owner claims the owner name; the minted token is
// captured into c.Token. Rows travel in the format Wire names.
func (c *Client) UploadDataset(ctx context.Context, name string, columns []string, rows [][]float64) (*DatasetMeta, error) {
	f, err := c.wire()
	if err != nil {
		return nil, err
	}
	buf, err := renderRows(f, columns, rows)
	if err != nil {
		return nil, err
	}
	return c.upload(ctx, name, f, buf, false)
}

// UploadDatasetCSV uploads a dataset already rendered as CSV (header row
// of column names, then numeric rows). labeledLast marks the final column
// as ground-truth labels (the daemon's labels=last mode).
func (c *Client) UploadDatasetCSV(ctx context.Context, name string, body io.Reader, labeledLast bool) (*DatasetMeta, error) {
	return c.upload(ctx, name, codec.CSV, body, labeledLast)
}

func (c *Client) upload(ctx context.Context, name string, f *codec.Format, body io.Reader, labeledLast bool) (*DatasetMeta, error) {
	// The name is caller-supplied: escape it so a crafted value cannot
	// smuggle extra query parameters (e.g. "x&owner=evil") past the
	// server's own parsing.
	path := "/v1/datasets?name=" + url.QueryEscape(name)
	if labeledLast {
		path += "&labels=last"
	}
	return postRows[DatasetMeta](ctx, c, path, f, body)
}

// Datasets lists the owner's stored datasets.
func (c *Client) Datasets(ctx context.Context) ([]DatasetMeta, error) {
	var out []DatasetMeta
	if err := c.doJSON(ctx, http.MethodGet, "/v1/datasets", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Dataset fetches one dataset's metadata.
func (c *Client) Dataset(ctx context.Context, name string) (*DatasetMeta, error) {
	var out DatasetMeta
	if err := c.doJSON(ctx, http.MethodGet, "/v1/datasets/"+url.PathEscape(name), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteDataset removes one of the owner's datasets.
func (c *Client) DeleteDataset(ctx context.Context, name string) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/datasets/"+url.PathEscape(name), nil, nil)
}

// SubmitJob submits spec (any JSON-marshalable job spec carrying a "type"
// field) and returns the accepted job's initial status.
func (c *Client) SubmitJob(ctx context.Context, spec any) (*JobStatus, error) {
	var out JobStatus
	if err := c.doJSON(ctx, http.MethodPost, "/v1/jobs", spec, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches the status and progress of job id.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var out JobStatus
	if err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Jobs lists the owner's jobs, newest first.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var out []JobStatus
	if err := c.doJSON(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// CancelJob cancels a queued or running job.
func (c *Client) CancelJob(ctx context.Context, id string) (*JobStatus, error) {
	var out JobStatus
	if err := c.doJSON(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// JobResult fetches a finished job's result payload into out (which may
// be nil to discard it), returning the final status. A 409 means the job
// is still in flight; use WaitJob to poll to completion.
func (c *Client) JobResult(ctx context.Context, id string, out any) (*JobStatus, error) {
	var body jobs.ResultView[json.RawMessage]
	if err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &body); err != nil {
		return nil, err
	}
	if out != nil && len(body.Result) > 0 && string(body.Result) != "null" {
		if err := json.Unmarshal(body.Result, out); err != nil {
			return nil, fmt.Errorf("ppclient: decoding job result: %w", err)
		}
	}
	return &body.Status, nil
}

// WaitJob polls job id until it reaches a terminal state (or ctx is
// done). onProgress, when non-nil, receives each observed status.
func (c *Client) WaitJob(ctx context.Context, id string, onProgress func(*JobStatus)) (*JobStatus, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if onProgress != nil {
			onProgress(st)
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(interval):
		}
	}
}

// SubmitTune submits a tune job over the named stored dataset.
func (c *Client) SubmitTune(ctx context.Context, dataset string, spec TuneSpec) (*JobStatus, error) {
	spec.Type, spec.Dataset = service.JobTune, dataset
	return c.SubmitJob(ctx, spec)
}

// TuneResult waits for tune job id to finish and returns its frontier. A
// failed or cancelled sweep is returned as an error carrying the state.
func (c *Client) TuneResult(ctx context.Context, id string, onProgress func(*JobStatus)) (*TuneResult, error) {
	st, err := c.WaitJob(ctx, id, onProgress)
	if err != nil {
		return nil, err
	}
	if st.State != jobs.StateDone {
		return nil, fmt.Errorf("ppclient: tune job %s: %s", st.State, st.Error)
	}
	var out TuneResult
	if _, err := c.JobResult(ctx, id, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the daemon's /v1/metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (map[string]int64, error) {
	var out map[string]int64
	if err := c.doJSON(ctx, http.MethodGet, "/v1/metrics", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}
