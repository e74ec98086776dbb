package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

// uploadBody POSTs raw bytes to /v1/graphs with upload query parameters.
func uploadBody(t *testing.T, ts *httptest.Server, name, format string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost,
		fmt.Sprintf("%s/v1/graphs?name=%s&format=%s", ts.URL, name, format), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

// encodeTestGraph renders the shared test adjacency in each upload format.
func encodeTestGraph(t *testing.T, format string) []byte {
	t.Helper()
	adj := testAdj()
	var buf bytes.Buffer
	switch format {
	case "mtx":
		if err := graph.WriteMTX(&buf, adj); err != nil {
			t.Fatal(err)
		}
	case "edgelist":
		for _, e := range adj.Entries {
			fmt.Fprintf(&buf, "%d %d %g\n", e.Row, e.Col, e.Val)
		}
		// The edge list infers the vertex count from the max id; pad with a
		// comment noting it plus a self-edge on the last vertex if absent.
		fmt.Fprintf(&buf, "%d %d 1\n", adj.NRows-1, adj.NRows-1)
	case "bin":
		if err := graph.WriteBinary2(&buf, adj, 4); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown format %s", format)
	}
	return buf.Bytes()
}

// TestUploadFormatsMatchBootLoaded is the acceptance check: POST /v1/graphs
// upload → /run must return results identical to the same graph registered at
// boot, for every upload format.
func TestUploadFormatsMatchBootLoaded(t *testing.T) {
	_, ts := newTestServer(t)
	addTestGraph(t, ts, "boot")
	want := runAlgo(t, ts, "boot", "pagerank", map[string]any{"iters": 10})

	for _, format := range []string{"mtx", "bin"} {
		name := "up-" + format
		code, body := uploadBody(t, ts, name, format, encodeTestGraph(t, format))
		if code != http.StatusCreated {
			t.Fatalf("upload %s = %d: %s", format, code, body)
		}
		got := runAlgo(t, ts, name, "pagerank", map[string]any{"iters": 10})
		if len(got.Values) != len(want.Values) {
			t.Fatalf("%s: %d values, want %d", format, len(got.Values), len(want.Values))
		}
		for i := range want.Values {
			if got.Values[i] != want.Values[i] {
				t.Fatalf("%s: value[%d] = %v, want %v", format, i, got.Values[i], want.Values[i])
			}
		}
	}

	// The edge list adds one self-loop to pin the vertex count, so compare it
	// against a boot-registered graph with the same extra edge instead.
	srv2, ts2 := newTestServer(t)
	adj := testAdj()
	adj.Add(adj.NRows-1, adj.NRows-1, 1)
	if _, err := srv2.reg.AddCOO("boot", "test", adj); err != nil {
		t.Fatal(err)
	}
	want2 := runAlgo(t, ts2, "boot", "pagerank", map[string]any{"iters": 10})
	code, body := uploadBody(t, ts2, "up-edgelist", "edgelist", encodeTestGraph(t, "edgelist"))
	if code != http.StatusCreated {
		t.Fatalf("upload edgelist = %d: %s", code, body)
	}
	got := runAlgo(t, ts2, "up-edgelist", "pagerank", map[string]any{"iters": 10})
	if len(got.Values) != len(want2.Values) {
		t.Fatalf("edgelist: %d values, want %d", len(got.Values), len(want2.Values))
	}
	for i := range want2.Values {
		if got.Values[i] != want2.Values[i] {
			t.Fatalf("edgelist: value[%d] = %v, want %v", i, got.Values[i], want2.Values[i])
		}
	}
}

func TestUploadLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	code, _ := uploadBody(t, ts, "g", "mtx", encodeTestGraph(t, "mtx"))
	if code != http.StatusCreated {
		t.Fatalf("upload = %d", code)
	}
	// Listed with an upload: source tag.
	code, body := do(t, ts, http.MethodGet, "/v1/graphs/g", nil)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"upload:mtx`)) {
		t.Fatalf("GET /v1/graphs/g = %d: %s", code, body)
	}
	// Duplicate names conflict.
	if code, _ := uploadBody(t, ts, "g", "mtx", encodeTestGraph(t, "mtx")); code != http.StatusConflict {
		t.Fatalf("duplicate upload = %d, want 409", code)
	}
	// DELETE then re-upload works.
	if code, body := do(t, ts, http.MethodDelete, "/v1/graphs/g", nil); code != http.StatusOK {
		t.Fatalf("DELETE = %d: %s", code, body)
	}
	if code, _ := uploadBody(t, ts, "g", "mtx", encodeTestGraph(t, "mtx")); code != http.StatusCreated {
		t.Fatalf("re-upload after delete = %d", code)
	}
}

func TestUploadErrors(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		name, url string
		body      string
		wantCode  int
	}{
		{"missing name", "/v1/graphs?format=mtx", "%%MatrixMarket matrix coordinate real general\n1 1 0\n", http.StatusBadRequest},
		{"unknown format", "/v1/graphs?name=g&format=parquet", "x", http.StatusBadRequest},
		{"malformed mtx", "/v1/graphs?name=g&format=mtx", "not a matrix", http.StatusBadRequest},
		{"malformed edgelist", "/v1/graphs?name=g&format=edgelist", "0 nope", http.StatusBadRequest},
		{"malformed binary", "/v1/graphs?name=g&format=bin", "GMATBIN9????", http.StatusBadRequest},
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+tc.url, bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s: code = %d, want %d", tc.name, resp.StatusCode, tc.wantCode)
		}
	}
	// Parseable but unusable graphs are rejected at POST time, not left in
	// the registry to fail every /run: a non-square MTX, and a binary body
	// whose records point outside the declared vertex count.
	nonSquare := "%%MatrixMarket matrix coordinate real general\n3 2 1\n1 1 1\n"
	if code, body := uploadBody(t, ts, "rect", "mtx", []byte(nonSquare)); code != http.StatusBadRequest {
		t.Errorf("non-square upload = %d: %s", code, body)
	}
	oob := sparse.NewCOO[float32](2, 2)
	oob.Add(0, 5, 1) // col 5 outside a 2-vertex graph
	var oobBuf bytes.Buffer
	if err := graph.WriteBinary2(&oobBuf, oob, 1); err != nil {
		t.Fatal(err)
	}
	if code, body := uploadBody(t, ts, "oob", "bin", oobBuf.Bytes()); code != http.StatusBadRequest {
		t.Errorf("out-of-bounds binary upload = %d: %s", code, body)
	}
	for _, name := range []string{"rect", "oob"} {
		if code, _ := do(t, ts, http.MethodGet, "/v1/graphs/"+name, nil); code != http.StatusNotFound {
			t.Errorf("rejected upload %q was registered", name)
		}
	}

	// Oversized uploads are rejected by the configured cap.
	srv := New(Config{MaxUploadBytes: 64})
	ts2 := httptest.NewServer(srv)
	defer ts2.Close()
	big := bytes.Repeat([]byte("0 1\n"), 100)
	code, _ := uploadBody(t, ts2, "big", "edgelist", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload = %d, want 413", code)
	}
}
