package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

func testServer(t *testing.T) (*Engine, *httptest.Server) {
	t.Helper()
	e := New(Options{})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(func() { srv.Close(); e.Close() })
	return e, srv
}

func doJSON(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	if resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode, out
}

// TestHTTPLifecycle walks the REST surface: create, query, mutate, stats,
// snapshot, drop — and the documented status codes on every failure mode.
func TestHTTPLifecycle(t *testing.T) {
	_, srv := testServer(t)
	u := srv.URL

	st, body := doJSON(t, "PUT", u+"/graphs/demo", `{"n":6,"edges":[[0,1],[1,2],[3,4]]}`)
	if st != http.StatusCreated || body["components"].(float64) != 3 {
		t.Fatalf("create: %d %v", st, body)
	}
	if st, body = doJSON(t, "PUT", u+"/graphs/demo", `{"n":2}`); st != http.StatusConflict {
		t.Fatalf("duplicate create: %d %v", st, body)
	}
	if st, body = doJSON(t, "GET", u+"/graphs/demo/connected?u=0&v=2", ""); st != 200 || body["connected"] != true {
		t.Fatalf("connected(0,2): %d %v", st, body)
	}
	if st, body = doJSON(t, "GET", u+"/graphs/demo/connected?u=0&v=3", ""); st != 200 || body["connected"] != false {
		t.Fatalf("connected(0,3): %d %v", st, body)
	}
	if st, body = doJSON(t, "GET", u+"/graphs/demo/component?u=4", ""); st != 200 || body["size"].(float64) != 2 {
		t.Fatalf("component(4): %d %v", st, body)
	}
	if st, body = doJSON(t, "GET", u+"/graphs/demo/count", ""); st != 200 || body["components"].(float64) != 3 {
		t.Fatalf("count: %d %v", st, body)
	}

	// Mutations: read-your-write through HTTP.
	if st, body = doJSON(t, "POST", u+"/graphs/demo/edges", `{"edges":[[2,3]]}`); st != 200 || body["components"].(float64) != 2 {
		t.Fatalf("add: %d %v", st, body)
	}
	if st, body = doJSON(t, "POST", u+"/graphs/demo/edges/remove", `{"edges":[[2,3]]}`); st != 200 || body["components"].(float64) != 3 {
		t.Fatalf("remove: %d %v", st, body)
	}

	// Documented error statuses.
	if st, _ = doJSON(t, "GET", u+"/graphs/none/count", ""); st != http.StatusNotFound {
		t.Fatalf("unknown graph: %d", st)
	}
	if st, _ = doJSON(t, "GET", u+"/graphs/demo/connected?u=0&v=99", ""); st != http.StatusBadRequest {
		t.Fatalf("out-of-range query: %d", st)
	}
	if st, _ = doJSON(t, "GET", u+"/graphs/demo/connected?u=0", ""); st != http.StatusBadRequest {
		t.Fatalf("missing param: %d", st)
	}
	if st, _ = doJSON(t, "POST", u+"/graphs/demo/edges", `{"edges":[[0,99]]}`); st != http.StatusBadRequest {
		t.Fatalf("out-of-range add: %d", st)
	}
	if st, _ = doJSON(t, "POST", u+"/graphs/demo/edges/remove", `{"edges":[[0,5]]}`); st != http.StatusConflict {
		t.Fatalf("missing remove: %d", st)
	}
	if st, _ = doJSON(t, "PUT", u+"/graphs/bad", `{not json}`); st != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d", st)
	}
	if st, _ = doJSON(t, "PUT", u+"/graphs/bad", `{"n":2,"edges":[[0,9]]}`); st != http.StatusBadRequest {
		t.Fatalf("create with out-of-range edge: %d, want 400", st)
	}
	for _, n := range []string{"-1", "2147483648", "3000000000"} {
		if st, _ = doJSON(t, "PUT", u+"/graphs/bad", `{"n":`+n+`}`); st != http.StatusBadRequest {
			t.Fatalf("create with n=%s: %d, want 400", n, st)
		}
	}

	// Snapshot and stats.
	if st, body = doJSON(t, "GET", u+"/graphs/demo/snapshot", ""); st != 200 {
		t.Fatalf("snapshot: %d %v", st, body)
	} else if labels := body["labels"].([]any); len(labels) != 6 {
		t.Fatalf("snapshot labels: %v", labels)
	}
	if st, body = doJSON(t, "GET", u+"/stats", ""); st != 200 {
		t.Fatalf("stats: %d %v", st, body)
	} else if gs := body["graphs"].([]any); len(gs) != 1 {
		t.Fatalf("stats graphs: %v", gs)
	}
	if st, body = doJSON(t, "GET", u+"/graphs", ""); st != 200 || len(body["graphs"].([]any)) != 1 {
		t.Fatalf("list: %d %v", st, body)
	}

	if st, _ = doJSON(t, "DELETE", u+"/graphs/demo", ""); st != http.StatusNoContent {
		t.Fatalf("drop: %d", st)
	}
	if st, _ = doJSON(t, "DELETE", u+"/graphs/demo", ""); st != http.StatusNotFound {
		t.Fatalf("double drop: %d", st)
	}
}

// TestCreateOutOfRangeEdge: PUT /graphs/{name} with an edge outside
// [0, n) answers 400 naming the edge — Attach's *parcc.EdgeRangeError —
// and leaves neither a graph nor a log behind.
func TestCreateOutOfRangeEdge(t *testing.T) {
	e, srv, dir := walServer(t)
	st, body := doJSON(t, "PUT", srv.URL+"/graphs/bad", `{"n":4,"edges":[[0,1],[2,9]]}`)
	if msg, _ := body["error"].(string); st != http.StatusBadRequest || !strings.Contains(msg, "(2,9)") {
		t.Fatalf("create with out-of-range edge: %d %v, want 400 naming (2,9)", st, body)
	}
	if names := e.Names(); len(names) != 0 {
		t.Fatalf("rejected create registered %v", names)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("rejected create left %d log file(s) (%v)", len(entries), err)
	}
}

// TestHTTPBatchNDJSON drives the streaming batch endpoint: ordered ops,
// read-your-writes within the stream, and per-line errors that do not
// abort it.
func TestHTTPBatchNDJSON(t *testing.T) {
	_, srv := testServer(t)
	u := srv.URL

	if st, _ := doJSON(t, "PUT", u+"/graphs/b", `{"n":5,"edges":[[0,1]]}`); st != http.StatusCreated {
		t.Fatalf("create: %d", st)
	}
	batch := strings.Join([]string{
		`{"op":"connected","u":0,"v":2}`,
		`{"op":"add","edges":[[1,2]]}`,
		`{"op":"connected","u":0,"v":2}`,
		`{"op":"component","u":2}`,
		`{"op":"remove","edges":[[4,0]]}`, // not present: per-line error
		`{"op":"count"}`,
		`{"op":"nope"}`,
	}, "\n")
	resp, err := http.Post(u+"/graphs/b/batch", "application/x-ndjson", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var lines []map[string]any
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		m := map[string]any{}
		if err := dec.Decode(&m); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 7 {
		t.Fatalf("got %d response lines, want 7: %v", len(lines), lines)
	}
	if lines[0]["connected"] != false {
		t.Fatalf("line 0: %v", lines[0])
	}
	if lines[1]["added"].(float64) != 1 {
		t.Fatalf("line 1: %v", lines[1])
	}
	if lines[2]["connected"] != true { // read-your-write inside the stream
		t.Fatalf("line 2: %v", lines[2])
	}
	if lines[3]["size"].(float64) != 3 {
		t.Fatalf("line 3: %v", lines[3])
	}
	if _, isErr := lines[4]["error"]; !isErr {
		t.Fatalf("line 4 should error: %v", lines[4])
	}
	if lines[5]["components"].(float64) != 3 { // stream survived the error
		t.Fatalf("line 5: %v", lines[5])
	}
	if _, isErr := lines[6]["error"]; !isErr {
		t.Fatalf("line 6 should error: %v", lines[6])
	}
}

// mapJSON is the reference encoding of the point-read bodies: a map through
// json.Encoder, as the handlers wrote them before the strconv encoders.
func mapJSON(t *testing.T, v map[string]any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPointReadBodiesMatchJSONEncoder pins the hand-encoded /connected,
// /component and /count bodies byte for byte to the map encoding, over
// extreme field values and over live HTTP responses.
func TestPointReadBodiesMatchJSONEncoder(t *testing.T) {
	for _, ver := range []uint64{0, 1, 12345, math.MaxUint64} {
		for _, ok := range []bool{false, true} {
			got, want := connectedBody(ok, ver), mapJSON(t, map[string]any{"connected": ok, "version": ver})
			if !bytes.Equal(got, want) {
				t.Fatalf("connected(%v, %d): %q, want %q", ok, ver, got, want)
			}
		}
		for _, c := range []int32{0, 7, math.MaxInt32} {
			for _, size := range []int{1, 1 << 20, math.MaxInt} {
				got := componentBody(c, size, ver)
				want := mapJSON(t, map[string]any{"component": c, "size": size, "version": ver})
				if !bytes.Equal(got, want) {
					t.Fatalf("component(%d, %d, %d): %q, want %q", c, size, ver, got, want)
				}
			}
		}
		for _, k := range []int{0, 3, math.MaxInt} {
			got, want := countBody(k, ver), mapJSON(t, map[string]any{"components": k, "version": ver})
			if !bytes.Equal(got, want) {
				t.Fatalf("count(%d, %d): %q, want %q", k, ver, got, want)
			}
		}
	}

	e, srv := testServer(t)
	if st, _ := doJSON(t, "PUT", srv.URL+"/graphs/p", `{"n":6,"edges":[[0,1],[1,2],[3,4]]}`); st != http.StatusCreated {
		t.Fatalf("create: %d", st)
	}
	sn, err := e.Snapshot("p")
	if err != nil {
		t.Fatal(err)
	}
	ver := sn.Version()
	for path, want := range map[string]map[string]any{
		"/connected?u=0&v=2": {"connected": true, "version": ver},
		"/connected?u=0&v=3": {"connected": false, "version": ver},
		"/component?u=4":     {"component": sn.ComponentOf(4), "size": 2, "version": ver},
		"/count":             {"components": 3, "version": ver},
	} {
		resp, err := http.Get(srv.URL + "/graphs/p" + path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/json" {
			t.Fatalf("%s: status %d, content type %q", path, resp.StatusCode, ct)
		}
		if w := mapJSON(t, want); !bytes.Equal(got, w) {
			t.Fatalf("%s: body %q, want %q", path, got, w)
		}
	}
}
