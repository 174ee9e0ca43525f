package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"ppclust"
	"ppclust/internal/dataset"
	"ppclust/internal/datastore"
	"ppclust/internal/engine"
	"ppclust/internal/federation"
	"ppclust/internal/jobs"
	"ppclust/internal/keyring"
	"ppclust/internal/matrix"
	"ppclust/internal/service"
)

// newServerWith assembles a server around the given keyring with fresh
// in-memory stores and a small job pool, cleaned up with the test.
func newServerWith(t *testing.T, eng *engine.Engine, keys keyring.Store) *server {
	t.Helper()
	mgr := jobs.New(jobs.Config{Workers: 2})
	t.Cleanup(mgr.Close)
	return newServer(eng, keys, datastore.NewMemory(), mgr, federation.NewMemory())
}

func newTestServer(t *testing.T) (*httptest.Server, *server) {
	t.Helper()
	s := newServerWith(t, engine.New(4, 1024), keyring.NewMemory())
	s.batchRows = 64 // force multiple batches in stream tests
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return ts, s
}

func testCSV(t *testing.T, rows, seed int) (string, *matrix.Dense) {
	t.Helper()
	ds, err := dataset.SyntheticPatients(rows, 3, rand.New(rand.NewSource(int64(seed))))
	if err != nil {
		t.Fatal(err)
	}
	ds = ds.DropIDs()
	ds.Labels = nil
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return buf.String(), ds.Data
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	return postAuth(t, url, "", body)
}

// postAuth posts body, presenting token as a bearer credential when
// non-empty.
func postAuth(t *testing.T, url, token, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
}

// token extracts the once-only owner credential from a fit response.
func token(t *testing.T, resp *http.Response) string {
	t.Helper()
	tok := resp.Header.Get("X-Ppclust-Token")
	if tok == "" {
		t.Fatal("fit response carries no X-Ppclust-Token header")
	}
	return tok
}

func parseCSVBody(t *testing.T, body string) *matrix.Dense {
	t.Helper()
	ds, err := dataset.ReadCSV(strings.NewReader(body), dataset.DefaultCSVOptions())
	if err != nil {
		t.Fatalf("parsing response csv: %v\n%s", err, body[:min(len(body), 400)])
	}
	return ds.Data
}

// TestProtectRecoverRoundTripHTTP is the acceptance flow: a CSV protected
// over HTTP and recovered over HTTP must reproduce the original values.
func TestProtectRecoverRoundTripHTTP(t *testing.T) {
	ts, _ := newTestServer(t)
	csvBody, orig := testCSV(t, 500, 1)

	resp, rel := post(t, ts.URL+"/v1/protect?owner=alice&rho1=0.3&rho2=0.3&seed=7", csvBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("protect: status %d: %s", resp.StatusCode, rel)
	}
	if got := resp.Header.Get("X-Ppclust-Key-Version"); got != "1" {
		t.Fatalf("key version header = %q, want 1", got)
	}
	tok := token(t, resp)
	released := parseCSVBody(t, rel)
	if matrix.EqualApprox(released, orig, 0.5) {
		t.Fatal("released data looks like the original")
	}

	resp, rec := postAuth(t, ts.URL+"/v1/recover?owner=alice", tok, rel)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recover: status %d: %s", resp.StatusCode, rec)
	}
	recovered := parseCSVBody(t, rec)
	if !matrix.EqualApprox(recovered, orig, 1e-6) {
		diff, _ := matrix.MaxAbsDiff(recovered, orig)
		t.Fatalf("recovered data diverges from original (max abs diff %g)", diff)
	}
}

// TestProtectStreamMode: after a fit, more records can be protected under
// the frozen key with constant-memory streaming, and recovered again.
func TestProtectStreamMode(t *testing.T) {
	ts, _ := newTestServer(t)
	seedCSV, _ := testCSV(t, 300, 2)
	fitResp, body := post(t, ts.URL+"/v1/protect?owner=bob", seedCSV)
	if fitResp.StatusCode != http.StatusOK {
		t.Fatalf("fit: status %d: %s", fitResp.StatusCode, body)
	}
	tok := token(t, fitResp)

	moreCSV, more := testCSV(t, 450, 3) // spans several 64-row batches
	resp, rel := postAuth(t, ts.URL+"/v1/protect?owner=bob&mode=stream", tok, moreCSV)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d: %s", resp.StatusCode, rel)
	}
	released := parseCSVBody(t, rel)
	if released.Rows() != more.Rows() {
		t.Fatalf("stream released %d rows, want %d", released.Rows(), more.Rows())
	}

	resp, rec := postAuth(t, ts.URL+"/v1/recover?owner=bob", tok, rel)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recover: status %d: %s", resp.StatusCode, rec)
	}
	if !matrix.EqualApprox(parseCSVBody(t, rec), more, 1e-6) {
		t.Fatal("stream-protected records did not round-trip")
	}
}

// TestKeyRotationAndVersions: re-protecting rotates the key; old releases
// recover only under their own version.
func TestKeyRotationAndVersions(t *testing.T) {
	ts, _ := newTestServer(t)
	csv1, orig1 := testCSV(t, 120, 4)
	csv2, _ := testCSV(t, 120, 5)

	first, _ := post(t, ts.URL+"/v1/protect?owner=carol&seed=1", csv1)
	if first.Header.Get("X-Ppclust-Key-Version") != "1" {
		t.Fatalf("first protect: version %q", first.Header.Get("X-Ppclust-Key-Version"))
	}
	tok := token(t, first)
	resp, rel1 := postAuth(t, ts.URL+"/v1/protect?owner=carol&seed=1", tok, csv1)
	if resp.Header.Get("X-Ppclust-Key-Version") != "2" {
		t.Fatalf("second protect: version %q", resp.Header.Get("X-Ppclust-Key-Version"))
	}
	if resp.Header.Get("X-Ppclust-Token") != "" {
		t.Fatal("rotation must not mint a fresh token")
	}
	if resp, _ := postAuth(t, ts.URL+"/v1/protect?owner=carol&seed=99", tok, csv2); resp.Header.Get("X-Ppclust-Key-Version") != "3" {
		t.Fatalf("third protect: version %q", resp.Header.Get("X-Ppclust-Key-Version"))
	}

	// Version 2's release recovers under version=2 but not under the
	// current (different-seed) key.
	resp, rec := postAuth(t, ts.URL+"/v1/recover?owner=carol&version=2", tok, rel1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("versioned recover: status %d: %s", resp.StatusCode, rec)
	}
	if !matrix.EqualApprox(parseCSVBody(t, rec), orig1, 1e-6) {
		t.Fatal("versioned recover failed")
	}
	_, recWrong := postAuth(t, ts.URL+"/v1/recover?owner=carol", tok, rel1)
	if matrix.EqualApprox(parseCSVBody(t, recWrong), orig1, 1e-3) {
		t.Fatal("recovering under the wrong key version should not restore the data")
	}
}

// TestNDJSONFormat drives protect and recover over the NDJSON codec.
func TestNDJSONFormat(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(6))
	var in bytes.Buffer
	orig := matrix.NewDense(200, 4, nil)
	for i := 0; i < 200; i++ {
		row := make([]float64, 4)
		for j := range row {
			row[j] = rng.NormFloat64() * float64(j+1)
			orig.SetAt(i, j, row[j])
		}
		raw, _ := json.Marshal(row)
		in.Write(raw)
		in.WriteByte('\n')
	}

	resp, err := http.Post(ts.URL+"/v1/protect?owner=dave&format=ndjson", "application/x-ndjson", bytes.NewReader(in.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("protect ndjson: status %d: %s", resp.StatusCode, rel)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	tok := token(t, resp)

	// Content-Type sniffing should also route to the ndjson reader.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/recover?owner=dave", bytes.NewReader(rel))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("Authorization", "Bearer "+tok)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recover ndjson: status %d: %s", resp.StatusCode, rec)
	}
	var got []float64
	lines := strings.Split(strings.TrimSpace(string(rec)), "\n")
	if len(lines) != 200 {
		t.Fatalf("recovered %d rows, want 200", len(lines))
	}
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		for j, v := range got {
			if math.Abs(v-orig.At(i, j)) > 1e-6 {
				t.Fatalf("row %d col %d: %g vs %g", i, j, v, orig.At(i, j))
			}
		}
	}
}

// TestHealthzAndKeys covers the two GET endpoints.
func TestHealthzAndKeys(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" || health["workers"].(float64) != 4 {
		t.Fatalf("healthz = %v", health)
	}

	csvBody, _ := testCSV(t, 100, 7)
	resp, _ = post(t, ts.URL+"/v1/protect?owner=erin", csvBody)
	postAuth(t, ts.URL+"/v1/protect?owner=erin", token(t, resp), csvBody)
	post(t, ts.URL+"/v1/protect?owner=frank", csvBody)

	resp, err = http.Get(ts.URL + "/v1/keys")
	if err != nil {
		t.Fatal(err)
	}
	var infos []keyring.Info
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 2 || infos[0].Owner != "erin" || infos[0].Versions != 2 || infos[1].Owner != "frank" {
		t.Fatalf("keys = %+v", infos)
	}
	// The listing must never leak secret material.
	raw, _ := json.Marshal(infos)
	if strings.Contains(string(raw), "angles") || strings.Contains(string(raw), "params") {
		t.Fatalf("keys listing leaks secrets: %s", raw)
	}
}

// TestHTTPErrors covers the failure statuses.
func TestHTTPErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	csvBody, _ := testCSV(t, 50, 8)
	cases := []struct {
		name, url, body string
		want            int
	}{
		{"missing owner", "/v1/protect", csvBody, http.StatusBadRequest},
		{"bad owner", "/v1/protect?owner=a/b", csvBody, http.StatusBadRequest},
		{"bad format", "/v1/protect?owner=x&format=xml", csvBody, http.StatusBadRequest},
		{"bad mode", "/v1/protect?owner=x&mode=warp", csvBody, http.StatusBadRequest},
		{"bad norm", "/v1/protect?owner=x&norm=fourier", csvBody, http.StatusBadRequest},
		{"bad rho", "/v1/protect?owner=x&rho1=NOPE", csvBody, http.StatusBadRequest},
		{"zero rho", "/v1/protect?owner=x&rho1=0", csvBody, http.StatusBadRequest},
		{"bad seed", "/v1/protect?owner=x&seed=NOPE", csvBody, http.StatusBadRequest},
		{"empty body", "/v1/protect?owner=x", "", http.StatusBadRequest},
		{"junk csv", "/v1/protect?owner=x", "a,b\nnot,numbers\n", http.StatusBadRequest},
		{"unknown owner recover", "/v1/recover?owner=ghost", csvBody, http.StatusNotFound},
		{"unknown owner stream", "/v1/protect?owner=ghost&mode=stream", csvBody, http.StatusNotFound},
		{"bad version", "/v1/recover?owner=ghost&version=x", csvBody, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+tc.url, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
			// Every error crosses the wire in the one shared envelope:
			// {"error": {"code": "...", "message": "..."}}.
			var e service.ErrorEnvelope
			if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
				t.Fatalf("expected enveloped JSON error body, got %q", body)
			}
		})
	}
	// Unknown version of a known owner.
	post(t, ts.URL+"/v1/protect?owner=zed", csvBody)
	if resp, _ := post(t, ts.URL+"/v1/recover?owner=zed&version=9", csvBody); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown version: status %d", resp.StatusCode)
	}
}

// TestOwnerAuth: the fit that creates an owner mints a bearer token; every
// later request against that owner must present it. Inversion must never
// be possible for a client that only holds the released data.
func TestOwnerAuth(t *testing.T) {
	keys := keyring.NewMemory()
	srv := newServerWith(t, engine.New(4, 1024), keys)
	srv.batchRows = 64
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	csvBody, _ := testCSV(t, 200, 10)

	fit, rel := post(t, ts.URL+"/v1/protect?owner=alice", csvBody)
	if fit.StatusCode != http.StatusOK {
		t.Fatalf("fit: status %d", fit.StatusCode)
	}
	tok := token(t, fit)

	for name, tc := range map[string]struct {
		url, token string
		want       int
	}{
		"recover without token":    {"/v1/recover?owner=alice", "", http.StatusUnauthorized},
		"recover with wrong token": {"/v1/recover?owner=alice", "deadbeef", http.StatusForbidden},
		"stream without token":     {"/v1/protect?owner=alice&mode=stream", "", http.StatusUnauthorized},
		"rotate without token":     {"/v1/protect?owner=alice", "", http.StatusUnauthorized},
		"recover with token":       {"/v1/recover?owner=alice", tok, http.StatusOK},
	} {
		t.Run(name, func(t *testing.T) {
			resp, body := postAuth(t, ts.URL+tc.url, tc.token, rel)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
			if tc.want == http.StatusUnauthorized && resp.Header.Get("WWW-Authenticate") == "" {
				t.Fatal("401 without WWW-Authenticate header")
			}
		})
	}

	// An owner stored without a credential (keyring predating token auth)
	// is refused outright — there is no token that could be presented.
	if _, err := keys.Put("legacy", ppclust.OwnerSecret{
		Key:           ppclust.Key{Pairs: []ppclust.Pair{{I: 0, J: 1}}, AnglesDeg: []float64{30}},
		Normalization: ppclust.ZScore,
		ParamsA:       []float64{0, 0, 0},
		ParamsB:       []float64{1, 1, 1},
	}); err != nil {
		t.Fatal(err)
	}
	if resp, body := postAuth(t, ts.URL+"/v1/recover?owner=legacy", tok, rel); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("credential-less owner: status %d, want 403: %s", resp.StatusCode, body)
	}
}

// TestAuthDisabled: -insecure-no-auth turns enforcement off while tokens
// are still issued (so auth can be enabled later without locking owners
// out).
func TestAuthDisabled(t *testing.T) {
	s := newServerWith(t, engine.New(2, 512), keyring.NewMemory())
	s.authDisabled = true
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	csvBody, _ := testCSV(t, 100, 11)

	resp, rel := post(t, ts.URL+"/v1/protect?owner=open", csvBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fit: status %d", resp.StatusCode)
	}
	token(t, resp) // still minted
	if resp, body := post(t, ts.URL+"/v1/recover?owner=open", rel); resp.StatusCode != http.StatusOK {
		t.Fatalf("tokenless recover with auth disabled: status %d: %s", resp.StatusCode, body)
	}
}

// TestFileKeyringSurvivesRestart: protect with one server process, recover
// with a fresh one sharing the keyring file.
func TestFileKeyringSurvivesRestart(t *testing.T) {
	path := t.TempDir() + "/keys.json"
	store1, err := keyring.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s1 := newServerWith(t, engine.New(2, 512), store1)
	ts1 := httptest.NewServer(s1.handler())
	csvBody, orig := testCSV(t, 150, 9)
	resp, rel := post(t, ts1.URL+"/v1/protect?owner=alice", csvBody)
	ts1.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("protect: %d", resp.StatusCode)
	}
	tok := token(t, resp)

	store2, err := keyring.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newServerWith(t, engine.New(2, 512), store2)
	ts2 := httptest.NewServer(s2.handler())
	defer ts2.Close()
	// The token hash persisted with the keyring, so the credential issued
	// by the first process must keep working after a restart.
	resp, rec := postAuth(t, ts2.URL+"/v1/recover?owner=alice", tok, rel)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recover after restart: %d: %s", resp.StatusCode, rec)
	}
	if !matrix.EqualApprox(parseCSVBody(t, rec), orig, 1e-6) {
		t.Fatal("recover after restart diverged")
	}
}

func TestRunRejectsBadKeyringPath(t *testing.T) {
	dir := t.TempDir()
	bad := dir + "/bad.json"
	if err := os.WriteFile(bad, []byte("{broken"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run(options{addr: "127.0.0.1:0", keyringPath: bad, workers: 1}); err == nil {
		t.Fatal("expected error for corrupt keyring path")
	}
}
