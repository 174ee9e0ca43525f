package main

// HTTP-level coverage for the framed binary wire path: ingest parity
// with the text formats (same stored bytes, same rejections), the
// protect stream in binary end to end, forwarding binary bodies across
// the ring, and the mixed-version replication fallback to the legacy
// JSON transfer.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ppclust/internal/codec"
	"ppclust/internal/matrix"
)

// renderBinaryRows frames names+rows as one complete binary stream.
func renderBinaryRows(t *testing.T, names []string, m *matrix.Dense) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	if err := w.WriteHeader(names, false); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(m, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postBinary posts a framed binary body and returns the response with
// its body read.
func postBinary(t *testing.T, url, token string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", codec.ContentType)
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
	return resp, raw
}

// decodeBinaryRows decodes a complete binary stream into a matrix.
func decodeBinaryRows(t *testing.T, raw []byte) ([]string, *matrix.Dense) {
	t.Helper()
	rd := codec.NewReader(bytes.NewReader(raw))
	var rows [][]float64
	for {
		row, err := rd.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("decoding binary rows: %v", err)
		}
		rows = append(rows, row)
	}
	return rd.Names(), matrix.FromRows(rows)
}

func bitIdentical(a, b *matrix.Dense) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	ar, br := a.Raw(), b.Raw()
	for i := range ar {
		if math.Float64bits(ar[i]) != math.Float64bits(br[i]) {
			return false
		}
	}
	return true
}

// TestBinaryIngestMatchesCSV: the same matrix uploaded as CSV and as
// framed binary stores identically — downloads in either format agree
// byte for byte (text) and bit for bit (binary), across multiple
// datastore blocks.
func TestBinaryIngestMatchesCSV(t *testing.T) {
	ts, _ := newTestServer(t) // batchRows=64 → several blocks for 300 rows
	csvBody, orig := testCSV(t, 300, 1)

	_, tokCSV := uploadDataset(t, ts, "wirecsv", "d", "", "", csvBody)
	names := []string{"age", "weight", "glucose", "systolic", "cholesterol"}[:orig.Cols()]
	resp, _ := postBinary(t, ts.URL+"/v1/datasets?owner=wirebin&name=d", "", renderBinaryRows(t, names, orig))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("binary upload: %d", resp.StatusCode)
	}
	tokBin := resp.Header.Get("X-Ppclust-Token")

	// CSV downloads of both datasets agree byte for byte.
	respA, bodyA := getJSON(t, ts.URL+"/v1/datasets/d/rows?owner=wirecsv", tokCSV, nil)
	respB, bodyB := getJSON(t, ts.URL+"/v1/datasets/d/rows?owner=wirebin", tokBin, nil)
	if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
		t.Fatalf("rows: %d / %d", respA.StatusCode, respB.StatusCode)
	}
	// The header rows differ only if names differ; compare data rows.
	rowsA := bodyA[strings.IndexByte(bodyA, '\n'):]
	rowsB := bodyB[strings.IndexByte(bodyB, '\n'):]
	if rowsA != rowsB {
		t.Fatal("CSV download of binary-ingested dataset differs from CSV-ingested one")
	}

	// Binary download of the CSV-ingested dataset is bit-identical to
	// the original values (CSV's 'g' rendering round-trips exactly).
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/datasets/d/rows?owner=wirecsv&format=binary", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+tokCSV)
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("binary download: %d %v", hresp.StatusCode, err)
	}
	if ct := hresp.Header.Get("Content-Type"); ct != codec.ContentType {
		t.Fatalf("binary download content type = %q", ct)
	}
	gotNames, got := decodeBinaryRows(t, raw)
	if len(gotNames) != orig.Cols() {
		t.Fatalf("names = %v", gotNames)
	}
	if !bitIdentical(got, orig) {
		t.Fatal("binary download is not bit-identical to the uploaded values")
	}
}

// TestBinaryIngestRejectionParity: the screens that protect the store —
// non-finite values, malformed streams — answer the same way regardless
// of wire format, and a binary body without its end frame is rejected as
// truncated rather than stored short.
func TestBinaryIngestRejectionParity(t *testing.T) {
	ts, _ := newTestServer(t)

	respCSV, _ := postAuth(t, ts.URL+"/v1/datasets?owner=nancsv&name=d", "", "a,b\n1,NaN\n")
	nan := matrix.NewDense(1, 2, []float64{1, math.NaN()})
	respBin, bodyBin := postBinary(t, ts.URL+"/v1/datasets?owner=nanbin&name=d", "", renderBinaryRows(t, []string{"a", "b"}, nan))
	if respCSV.StatusCode != respBin.StatusCode || respBin.StatusCode != http.StatusBadRequest {
		t.Fatalf("NaN rejection: csv %d, binary %d (want both 400): %s",
			respCSV.StatusCode, respBin.StatusCode, bodyBin)
	}

	inf := matrix.NewDense(1, 2, []float64{math.Inf(1), 2})
	respInf, _ := postBinary(t, ts.URL+"/v1/datasets?owner=infbin&name=d", "", renderBinaryRows(t, []string{"a", "b"}, inf))
	if respInf.StatusCode != http.StatusBadRequest {
		t.Fatalf("Inf over binary: %d, want 400", respInf.StatusCode)
	}

	// Cut the stream before its end frame: the missing frame is the
	// abort signal, so the upload must fail, not store a prefix.
	full := renderBinaryRows(t, []string{"a", "b"}, matrix.NewDense(2, 2, []float64{1, 2, 3, 4}))
	respTrunc, bodyTrunc := postBinary(t, ts.URL+"/v1/datasets?owner=truncbin&name=d", "", full[:len(full)-9])
	if respTrunc.StatusCode != http.StatusBadRequest || !strings.Contains(string(bodyTrunc), "truncated") {
		t.Fatalf("truncated binary upload: %d %s, want 400 mentioning truncation", respTrunc.StatusCode, bodyTrunc)
	}
}

// renderLabeled frames m with labels as a labeled binary stream, in
// frames of frameRows rows, under renderBody's column names.
func renderLabeled(t *testing.T, m *matrix.Dense, labels []int, frameRows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := codec.NewWriter(&buf)
	names := make([]string, m.Cols())
	for j := range names {
		names[j] = fmt.Sprintf("a%d", j)
	}
	if err := w.WriteHeader(names, true); err != nil {
		t.Fatal(err)
	}
	n := m.Cols()
	for lo := 0; lo < m.Rows(); lo += frameRows {
		hi := min(lo+frameRows, m.Rows())
		if err := w.WriteBatch(matrix.NewDense(hi-lo, n, m.Raw()[lo*n:hi*n]), labels[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryProtectStreamMatchesCSV: the stream pump releases exactly
// what a fit releases, whatever the batch size, the body's wire format or
// the client's framing. At -batch-rows 1, 7, 64 and 4096, a binary body
// sent as one frame, as 1-row frames or as frames straddling batch edges
// releases byte for byte the fit release of the same body; CSV and NDJSON
// bodies release the same values bit for bit; a labeled binary body
// streams with its labels read and dropped; and a recover through the
// same pump returns the body.
func TestBinaryProtectStreamMatchesCSV(t *testing.T) {
	_, orig := testCSV(t, 4500, 3)
	rows := orig.Rows()
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = i % 3
	}
	for _, batchRows := range []int{1, 7, 64, 4096} {
		ts, s := newTestServer(t)
		s.batchRows = batchRows
		resp, fit := postBinary(t, ts.URL+"/v1/protect?owner=wp&seed=5", "", renderBody(t, formatBinary, orig, rows))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch-rows %d: fit: %d %s", batchRows, resp.StatusCode, fit)
		}
		tok := token(t, resp)
		stream := func(format string, body []byte) []byte {
			t.Helper()
			resp, rel := postBinary(t, ts.URL+"/v1/protect?owner=wp&mode=stream&format="+format, tok, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch-rows %d: %s stream: %d %s", batchRows, format, resp.StatusCode, rel)
			}
			if ct := resp.Header.Get("Content-Type"); ct != contentType(format) {
				t.Fatalf("batch-rows %d: %s stream response content type = %q", batchRows, format, ct)
			}
			return rel
		}
		straddle := max(2, batchRows*2/3+1)
		for _, frameRows := range []int{rows, 1, straddle} {
			if rel := stream(formatBinary, renderBody(t, formatBinary, orig, frameRows)); !bytes.Equal(rel, fit) {
				t.Fatalf("batch-rows %d, %d-row frames: binary stream release differs from the fit release", batchRows, frameRows)
			}
		}
		if rel := stream(formatBinary, renderLabeled(t, orig, labels, straddle)); !bytes.Equal(rel, fit) {
			t.Fatalf("batch-rows %d: labeled binary stream release differs from the fit release", batchRows)
		}
		want := decodeBody(t, formatBinary, fit)
		for _, format := range []string{formatCSV, formatNDJSON} {
			if got := decodeBody(t, format, stream(format, renderBody(t, format, orig, rows))); !bitIdentical(got, want) {
				t.Fatalf("batch-rows %d: %s stream release differs from the binary one", batchRows, format)
			}
		}
		resp, back := postBinary(t, ts.URL+"/v1/recover?owner=wp&format=binary", tok, fit)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch-rows %d: recover: %d %s", batchRows, resp.StatusCode, back)
		}
		if got := decodeBody(t, formatBinary, back); !matrix.EqualApprox(got, orig, 1e-9) {
			t.Fatalf("batch-rows %d: recover did not return the body", batchRows)
		}
	}
}

// TestRingForwardsBinaryBodies: a binary upload entering at a non-home
// node is proxied verbatim to the owner's home node, and the stored
// rows read back identical through a third node in CSV — the
// mixed-format path a binary client takes through a text-speaking
// consumer.
func TestRingForwardsBinaryBodies(t *testing.T) {
	nodes := startRing(t, 3, 1, "")
	owner := ownerHomedOn(t, nodes, "n2", 0)
	entry := entryAvoiding(t, nodes, owner)
	other := nodes[(indexOf(nodes, entry)+1)%len(nodes)]

	_, orig := testCSV(t, 120, 9)
	names := make([]string, orig.Cols())
	resp, _ := postBinary(t, entry.srv.URL+"/v1/datasets?owner="+owner+"&name=d&format=binary", "",
		renderBinaryRows(t, names, orig))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("forwarded binary upload: %d", resp.StatusCode)
	}
	tok := resp.Header.Get("X-Ppclust-Token")
	if tok == "" {
		t.Fatal("forwarded binary upload minted no token")
	}

	respRows, rows := getJSON(t, other.srv.URL+"/v1/datasets/d/rows?owner="+owner, tok, nil)
	if respRows.StatusCode != http.StatusOK {
		t.Fatalf("cross-node rows: %d %s", respRows.StatusCode, rows)
	}
	if got := parseCSVBody(t, rows); !bitIdentical(got, orig) {
		t.Fatal("rows read back through the ring differ from the binary upload")
	}
}

// TestReplicationFallsBackToJSONPeer: a peer that rejects the binary
// replication body with a 4xx — an older build mid-upgrade — gets the
// legacy JSON transfer on the same call, so mixed-version rings keep
// replicating.
func TestReplicationFallsBackToJSONPeer(t *testing.T) {
	nodes := startRing(t, 1, 0, "")
	nd := nodes[0]

	csvBody, orig := testCSV(t, 50, 4)
	uploadDataset(t, nd.srv, "fbowner", "d", "", "", csvBody)
	ds, err := nd.store.Get("fbowner", "d")
	if err != nil {
		t.Fatal(err)
	}

	var sawBinary, sawJSON bool
	var imported datasetTransfer
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/ring/replicate/dataset" {
			t.Errorf("unexpected call %s %s", r.Method, r.URL.Path)
			http.NotFound(w, r)
			return
		}
		if strings.HasPrefix(r.Header.Get("Content-Type"), codec.ContentType) {
			sawBinary = true
			http.Error(w, `{"error":{"code":"invalid","message":"unknown content type"}}`, http.StatusBadRequest)
			return
		}
		sawJSON = true
		if err := json.NewDecoder(r.Body).Decode(&imported); err != nil {
			t.Error(err)
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(legacy.Close)

	if err := nd.rt.sendDataset(context.Background(), legacy.URL, ds); err != nil {
		t.Fatalf("sendDataset against legacy peer: %v", err)
	}
	if !sawBinary || !sawJSON {
		t.Fatalf("binary tried = %v, json fallback = %v; want both", sawBinary, sawJSON)
	}
	if imported.Owner != "fbowner" || imported.Name != "d" || len(imported.Rows) != orig.Rows() {
		t.Fatalf("legacy transfer = owner %q name %q rows %d", imported.Owner, imported.Name, len(imported.Rows))
	}
}
