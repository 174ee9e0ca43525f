package main

// HTTP-level coverage for the framed binary wire path: ingest parity
// with the text formats (same stored bytes, same rejections), the
// protect stream in binary end to end, ppclient's row calls in every
// format, and forwarding binary bodies across the ring.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ppclust/internal/codec"
	"ppclust/internal/engine"
	"ppclust/internal/keyring"
	"ppclust/internal/matrix"
	"ppclust/ppclient"
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
// byte for byte (text) and bit for bit (binary). At 300 rows the
// downloads span several 64-row response batches; at 9 000 the uploads
// also span three 4 096-row read batches and two datastore blocks.
func TestBinaryIngestMatchesCSV(t *testing.T) {
	ts, _ := newTestServer(t) // batchRows=64 → several response batches
	for _, n := range []int{300, 9000} {
		csvBody, orig := testCSV(t, n, 1)
		ownerCSV, ownerBin := fmt.Sprintf("wirecsv%d", n), fmt.Sprintf("wirebin%d", n)

		_, tokCSV := uploadDataset(t, ts, ownerCSV, "d", "", "", csvBody)
		names := []string{"age", "weight", "glucose", "systolic", "cholesterol"}[:orig.Cols()]
		resp, _ := postBinary(t, ts.URL+"/v1/datasets?owner="+ownerBin+"&name=d", "", renderBinaryRows(t, names, orig))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%d rows: binary upload: %d", n, resp.StatusCode)
		}
		tokBin := resp.Header.Get("X-Ppclust-Token")

		// CSV downloads of both datasets agree byte for byte.
		respA, bodyA := getJSON(t, ts.URL+"/v1/datasets/d/rows?owner="+ownerCSV, tokCSV, nil)
		respB, bodyB := getJSON(t, ts.URL+"/v1/datasets/d/rows?owner="+ownerBin, tokBin, nil)
		if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
			t.Fatalf("%d rows: rows: %d / %d", n, respA.StatusCode, respB.StatusCode)
		}
		// The header rows differ only if names differ; compare data rows.
		rowsA := bodyA[strings.IndexByte(bodyA, '\n'):]
		rowsB := bodyB[strings.IndexByte(bodyB, '\n'):]
		if rowsA != rowsB {
			t.Fatalf("%d rows: CSV download of binary-ingested dataset differs from CSV-ingested one", n)
		}

		// Binary download of the CSV-ingested dataset is bit-identical to
		// the original values (CSV's 'g' rendering round-trips exactly).
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/datasets/d/rows?owner="+ownerCSV+"&format=binary", nil)
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
			t.Fatalf("%d rows: binary download: %d %v", n, hresp.StatusCode, err)
		}
		if ct := hresp.Header.Get("Content-Type"); ct != codec.ContentType {
			t.Fatalf("%d rows: binary download content type = %q", n, ct)
		}
		gotNames, got := decodeBinaryRows(t, raw)
		if len(gotNames) != orig.Cols() {
			t.Fatalf("%d rows: names = %v", n, gotNames)
		}
		if !bitIdentical(got, orig) {
			t.Fatalf("%d rows: binary download is not bit-identical to the uploaded values", n)
		}
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
		resp, fit := postBinary(t, ts.URL+"/v1/protect?owner=wp&seed=5", "", renderBody(t, codec.Binary, orig, rows))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch-rows %d: fit: %d %s", batchRows, resp.StatusCode, fit)
		}
		tok := token(t, resp)
		stream := func(format *codec.Format, body []byte) []byte {
			t.Helper()
			resp, rel := postBinary(t, ts.URL+"/v1/protect?owner=wp&mode=stream&format="+format.Name, tok, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch-rows %d: %s stream: %d %s", batchRows, format.Name, resp.StatusCode, rel)
			}
			if ct := resp.Header.Get("Content-Type"); ct != format.ContentType {
				t.Fatalf("batch-rows %d: %s stream response content type = %q", batchRows, format.Name, ct)
			}
			return rel
		}
		straddle := max(2, batchRows*2/3+1)
		for _, frameRows := range []int{rows, 1, straddle} {
			if rel := stream(codec.Binary, renderBody(t, codec.Binary, orig, frameRows)); !bytes.Equal(rel, fit) {
				t.Fatalf("batch-rows %d, %d-row frames: binary stream release differs from the fit release", batchRows, frameRows)
			}
		}
		if rel := stream(codec.Binary, renderLabeled(t, orig, labels, straddle)); !bytes.Equal(rel, fit) {
			t.Fatalf("batch-rows %d: labeled binary stream release differs from the fit release", batchRows)
		}
		want := decodeBody(t, codec.Binary, fit)
		for _, format := range []*codec.Format{codec.CSV, codec.NDJSON} {
			if got := decodeBody(t, format, stream(format, renderBody(t, format, orig, rows))); !bitIdentical(got, want) {
				t.Fatalf("batch-rows %d: %s stream release differs from the binary one", batchRows, format.Name)
			}
		}
		resp, back := postBinary(t, ts.URL+"/v1/recover?owner=wp&format=binary", tok, fit)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch-rows %d: recover: %d %s", batchRows, resp.StatusCode, back)
		}
		if got := decodeBody(t, codec.Binary, back); !matrix.EqualApprox(got, orig, 1e-9) {
			t.Fatalf("batch-rows %d: recover did not return the body", batchRows)
		}
	}
}

// TestStreamRejectsOverflowingRows: a finite row that the owner's frozen
// key takes past float64's range is never released as ±Inf. Under a
// z-score key fit on data scaled by 1e-6 (stds near 1e-6), a stream whose
// first batch holds 1e305 is answered 400; one whose first batch is
// finite and whose second holds 1e305 aborts the connection after the
// first, as a NaN there does.
func TestStreamRejectsOverflowingRows(t *testing.T) {
	ts, s := newTestServer(t)
	s.batchRows = 2
	m := matrix.RandomDense(50, 4, rand.New(rand.NewSource(9)))
	for i := range m.Raw() {
		m.Raw()[i] *= 1e-6
	}
	resp, fit := postBinary(t, ts.URL+"/v1/protect?owner=tiny&seed=3", "", renderBody(t, codec.Binary, m, 50))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fit: %d %s", resp.StatusCode, fit)
	}
	tok := token(t, resp)
	withHuge := func(row int) []byte {
		body := m.SubMatrix(0, 5, 0, 4)
		body.SetAt(row, 0, 1e305)
		return renderBody(t, codec.Binary, body, 5)
	}
	url := ts.URL + "/v1/protect?owner=tiny&mode=stream&format=binary"
	resp, rel := postBinary(t, url, tok, withHuge(0))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing first batch: %d (%d B), want 400", resp.StatusCode, len(rel))
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(withHuge(3)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", codec.ContentType)
	req.Header.Set("Authorization", "Bearer "+tok)
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		return // the abort may already surface at Do for small responses
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d before the overflowing batch was reached", hresp.StatusCode)
	}
	if raw, err := io.ReadAll(hresp.Body); err == nil {
		t.Fatalf("stream with an overflowing second batch ended cleanly after %d B; the connection must abort", len(raw))
	}
}

// TestStreamBufferCarriesNothingAcrossRequests: the pump's batch buffer
// is pooled across requests, and a batch covers only the rows its own
// request sent. After a 20 000-row stream at the default -batch-rows
// leaves a full buffer of one owner's rows, a 3-row stream from another
// owner releases byte for byte that owner's fit release of the same body;
// so does every stream of four clients alternating the two owners at
// once, while buffers change hands between their requests.
func TestStreamBufferCarriesNothingAcrossRequests(t *testing.T) {
	s := newServerWith(t, engine.New(2, 0), keyring.NewMemory())
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	type owner struct {
		name, tok  string
		body, want []byte
	}
	owners := []*owner{
		{name: "bulk", body: renderBody(t, codec.Binary, matrix.RandomDense(20000, 16, rand.New(rand.NewSource(12))), 20000)},
		{name: "few", body: renderBody(t, codec.Binary, matrix.RandomDense(3, 16, rand.New(rand.NewSource(13))), 3)},
	}
	for _, o := range owners {
		resp, rel := postBinary(t, ts.URL+"/v1/protect?seed=4&rho1=0.01&rho2=0.01&owner="+o.name, "", o.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s fit: %d %s", o.name, resp.StatusCode, rel)
		}
		o.tok, o.want = token(t, resp), rel
	}
	// stream protects o's body and compares the release with o's fit
	// release; it reports instead of failing, for use off the test's
	// goroutine.
	stream := func(o *owner) error {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/protect?mode=stream&owner="+o.name, bytes.NewReader(o.body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", codec.ContentType)
		req.Header.Set("Authorization", "Bearer "+o.tok)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		rel, err := io.ReadAll(resp.Body)
		switch {
		case err != nil:
			return fmt.Errorf("%s stream: %w", o.name, err)
		case resp.StatusCode != http.StatusOK:
			return fmt.Errorf("%s stream: %d %s", o.name, resp.StatusCode, rel)
		case !bytes.Equal(rel, o.want):
			return fmt.Errorf("%s stream release (%d B) differs from its fit release (%d B)", o.name, len(rel), len(o.want))
		}
		return nil
	}
	for i := 0; i < 6; i++ {
		if err := stream(owners[i%2]); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if err := stream(owners[(c+i)%2]); err != nil {
					t.Errorf("client %d, request %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
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

// TestClientWireRoundTrip: ppclient against the real daemon, in both
// formats Wire names — binary (empty) and CSV. UploadDataset then
// DownloadDatasetRows returns the rows bit for bit (-0, subnormals,
// ±1e±300 and integers included, over more than one 4 096-row batch),
// and the names uploaded.
func TestClientWireRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	ctx := context.Background()
	specials := []float64{
		math.Copysign(0, -1), 0, 7, -42, 1 << 53, math.SmallestNonzeroFloat64, -2.5e-310,
		1e300, -1e300, 1e-300, -1e-300, math.MaxFloat64,
	}
	rng := rand.New(rand.NewSource(11))
	rows := make([][]float64, 4500)
	for i := range rows {
		rows[i] = []float64{specials[i%len(specials)], rng.NormFloat64() * 1e3, float64(i - 2000)}
	}
	names := []string{"x", "y z", "w,v"}
	for i, wire := range []string{"", ppclient.WireCSV} {
		c := ppclient.New(ts.URL, fmt.Sprintf("wire%d", i))
		c.Wire = wire
		if _, err := c.UploadDataset(ctx, "d", names, rows); err != nil {
			t.Fatalf("Wire=%q: upload: %v", wire, err)
		}
		gotNames, got, err := c.DownloadDatasetRows(ctx, "d")
		if err != nil {
			t.Fatalf("Wire=%q: download: %v", wire, err)
		}
		if strings.Join(gotNames, "|") != strings.Join(names, "|") {
			t.Fatalf("Wire=%q: names %q, want %q", wire, gotNames, names)
		}
		if len(got) != len(rows) {
			t.Fatalf("Wire=%q: %d rows back, uploaded %d", wire, len(got), len(rows))
		}
		for i, row := range rows {
			for j, v := range row {
				if math.Float64bits(got[i][j]) != math.Float64bits(v) {
					t.Fatalf("Wire=%q: row %d col %d uploaded %v, downloaded %v", wire, i, j, v, got[i][j])
				}
			}
		}
	}
}
