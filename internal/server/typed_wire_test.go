package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// uploadCSV posts a CSV body and returns the decoded RelationInfo.
func uploadCSV(t *testing.T, base, dataset, rel, attrs, body string) RelationInfo {
	t.Helper()
	url := base + "/v1/datasets/" + dataset + "/relations/" + rel
	if attrs != "" {
		url += "?attrs=" + attrs
	}
	resp, err := http.Post(url, "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatalf("upload %s: %v", rel, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload %s: status %d body %s", rel, resp.StatusCode, raw)
	}
	var info RelationInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatalf("upload %s: decode %q: %v", rel, raw, err)
	}
	return info
}

// TestTypedUploadAndWireV2 walks the typed path end to end: string-keyed CSV
// uploads are dictionary-encoded, the session advertises its logical types,
// and pages carry decoded JSON values.
func TestTypedUploadAndWireV2(t *testing.T) {
	_, ts := testServer(t, 16)

	info := uploadCSV(t, ts.URL, "authors", "R1", "A,B",
		"ada,turing,1\nada,church,5\ngrace,turing,2\n")
	if want := []string{"string", "string"}; strings.Join(info.Types, ",") != strings.Join(want, ",") {
		t.Fatalf("upload types %v, want %v", info.Types, want)
	}
	uploadCSV(t, ts.URL, "authors", "R2", "",
		"turing,von-neumann,2\nturing,godel,4\nchurch,kleene,1.25\n")

	q := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "authors", Query: "path2"})
	if want := []string{"string", "string", "string"}; strings.Join(q.Types, ",") != strings.Join(want, ",") {
		t.Fatalf("session types %v, want %v", q.Types, want)
	}
	page := nextPage(t, ts.URL, q.ID, 10)
	if !page.Done || len(page.Rows) != 5 {
		t.Fatalf("page %+v, want 5 rows done", page)
	}
	if w := weightOf(t, page.Rows[0]); w != 3 {
		t.Fatalf("top weight %v, want 3", w)
	}
	top := valsOf(t, page.Rows[0])
	want := []any{"ada", "turing", "von-neumann"}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("top row vals %v, want %v", top, want)
		}
	}

	// The session status mirrors the typed schema.
	var sess SessionResponse
	if st := doJSON(t, http.MethodGet, ts.URL+"/v1/queries/"+q.ID, nil, &sess); st != http.StatusOK {
		t.Fatalf("session status %d", st)
	}
	if len(sess.Types) != 3 || sess.Types[0] != "string" {
		t.Fatalf("session status types %v", sess.Types)
	}
}

// TestTypedUploadMixedColumnTypes pins float and int columns through the
// wire: floats come back as JSON numbers with their logical values, ints as
// plain numbers.
func TestTypedUploadMixedColumnTypes(t *testing.T) {
	_, ts := testServer(t, 16)
	info := uploadCSV(t, ts.URL, "mix", "R1", "who,id,score",
		"ada,1,0.25,1\nbob,2,0.75,2\n")
	if want := "string,int64,float64"; strings.Join(info.Types, ",") != want {
		t.Fatalf("types %v, want %s", info.Types, want)
	}
	q := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "mix", Datalog: "Q(*) :- R1(x,y,z)"})
	page := nextPage(t, ts.URL, q.ID, 10)
	if len(page.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(page.Rows))
	}
	top := valsOf(t, page.Rows[0])
	if top[0] != "ada" || top[1] != float64(1) || top[2] != 0.25 {
		t.Fatalf("top row vals %v, want [ada 1 0.25]", top)
	}
}

// TestTypedWildcardColumn: a `_` that skips an int64 column must leave the
// next variable bound to the string column after it, advertised and decoded
// as a string on the wire.
func TestTypedWildcardColumn(t *testing.T) {
	_, ts := testServer(t, 16)
	uploadCSV(t, ts.URL, "people", "R1", "id,name", "1,alice,1\n2,bob,2\n")
	q := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "people", Datalog: "Q(y) :- R1(_, y)"})
	if strings.Join(q.Types, ",") != "string" {
		t.Fatalf("session types %v, want [string]", q.Types)
	}
	page := nextPage(t, ts.URL, q.ID, 10)
	if len(page.Rows) != 2 || valsOf(t, page.Rows[0])[0] != "alice" || valsOf(t, page.Rows[1])[0] != "bob" {
		t.Fatalf("page %+v, want alice then bob", page.Rows)
	}
}

// TestInt64DatasetsKeepV1WireShape asserts byte-level compatibility: a fully
// int64 dataset must not grow a "types" key anywhere, and vals stay plain
// number arrays.
func TestInt64DatasetsKeepV1WireShape(t *testing.T) {
	_, ts := testServer(t, 16)
	uploadCSV(t, ts.URL, "plain", "R1", "A,B", "1,10,1.0\n2,20,5.0\n")
	uploadCSV(t, ts.URL, "plain", "R2", "", "10,100,2.0\n20,200,1.0\n")

	// Raw body checks: no "types" in the dataset listing, the session
	// announcement, or the page.
	rawGet := func(url string) string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return string(raw)
	}
	if body := rawGet(ts.URL + "/v1/datasets"); strings.Contains(body, "types") {
		t.Fatalf("int64-only dataset listing leaks types: %s", body)
	}
	q := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "plain", Query: "path2"})
	if len(q.Types) != 0 {
		t.Fatalf("int64-only session advertises types %v", q.Types)
	}
	body := rawGet(ts.URL + "/v1/queries/" + q.ID + "/next?k=3")
	if strings.Contains(body, "types") {
		t.Fatalf("v1 page leaks types: %s", body)
	}
	if !strings.Contains(body, `"vals":[1,10,100]`) {
		t.Fatalf("v1 vals shape changed: %s", body)
	}
}

// TestTypedJoinSharedDictionaryAcrossUploads: two separately uploaded
// relations must join on string values because they intern into the
// dataset's single dictionary.
func TestTypedJoinSharedDictionaryAcrossUploads(t *testing.T) {
	_, ts := testServer(t, 16)
	uploadCSV(t, ts.URL, "d", "R1", "", "x,hub,1\n")
	uploadCSV(t, ts.URL, "d", "R2", "", "hub,y,1\n")
	q := mustOpenQuery(t, ts.URL, QueryRequest{Dataset: "d", Query: "path2"})
	page := nextPage(t, ts.URL, q.ID, 10)
	if len(page.Rows) != 1 {
		t.Fatalf("%d rows, want 1 (join across uploads failed)", len(page.Rows))
	}
	vals := valsOf(t, page.Rows[0])
	if vals[0] != "x" || vals[1] != "hub" || vals[2] != "y" {
		t.Fatalf("joined row %v", vals)
	}
}

// TestFailedUploadDoesNotGrowDictionary: a rejected upload must intern
// nothing into the dataset's live (append-only, hence unreclaimable)
// dictionary — typed parsing goes through a scratch dictionary and only a
// fully parsed relation is re-based onto the dataset's.
func TestFailedUploadDoesNotGrowDictionary(t *testing.T) {
	s, ts := testServer(t, 16)
	uploadCSV(t, ts.URL, "d", "R1", "", "a,b,1\n")
	s.mu.RLock()
	dict := s.datasets["d"].db.Dict()
	s.mu.RUnlock()
	strs0, floats0 := dict.Len()
	resp, err := http.Post(ts.URL+"/v1/datasets/d/relations/R2", "text/csv",
		strings.NewReader("x1,y1,0.5\nx2,y2,0.75\nx3,y3,NaN\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if strs1, floats1 := dict.Len(); strs1 != strs0 || floats1 != floats0 {
		t.Fatalf("failed upload grew the live dictionary: %d/%d strings/floats, was %d/%d",
			strs1, floats1, strs0, floats0)
	}
}

// TestTypedUploadRejectsBadWeights: non-finite weights come back as 400s with
// the offending line, not 500s or accepted rows.
func TestTypedUploadRejectsBadWeights(t *testing.T) {
	_, ts := testServer(t, 16)
	resp, err := http.Post(ts.URL+"/v1/datasets/d/relations/R1", "text/csv",
		strings.NewReader("a,b,1\nc,d,NaN\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d body %s, want 400", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "line 2") {
		t.Fatalf("error body %s does not name the line", raw)
	}
}
