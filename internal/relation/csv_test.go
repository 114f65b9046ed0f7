package relation

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

func TestLoadCSV(t *testing.T) {
	in := `# edges
1,2,0.5
3,4,1.25
7, 8, 2
`
	r, err := LoadCSVTyped(strings.NewReader(in), NewDictionary(), "E", "from", "to")
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 3 || r.At(2, 0) != 7 || r.Weights[1] != 1.25 {
		t.Fatalf("parsed: %+v", r)
	}
}

func TestLoadCSVWhitespace(t *testing.T) {
	in := "1 2 0.5\n3\t4\t1.25\n"
	r, err := LoadCSVTyped(strings.NewReader(in), NewDictionary(), "E", "from", "to")
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 2 || r.At(1, 1) != 4 || r.Weights[0] != 0.5 {
		t.Fatalf("parsed: %+v", r)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	cases := []string{
		"1,2",       // missing weight
		"1,2,3,4",   // too many fields
		"1,2,heavy", // bad weight
	}
	for _, c := range cases {
		if _, err := LoadCSVTyped(strings.NewReader(c), NewDictionary(), "E", "a", "b"); err == nil {
			t.Errorf("LoadCSVTyped(%q) succeeded", c)
		}
	}
}

// Empty fields on comma-separated lines must be preserved (counted toward
// the arity) and rejected loudly, never collapsed into neighbors: the old
// FieldsFunc splitter turned `1,,2,0.5` into three fields and silently
// shifted columns.
func TestLoadCSVEmptyFields(t *testing.T) {
	cases := map[string]string{
		"1,,0.5\n":    "empty field",
		"1,2,\n":      "empty field", // empty weight
		",2,0.5\n":    "empty field",
		"1,,2,0.5\n":  "fields, want", // 4 fields against a 2+weight schema
		"1,2,0.5,\n":  "fields, want",
		"1,2,,0.5\n":  "fields, want",
		"1, ,2,0.5\n": "fields, want",
	}
	for in, want := range cases {
		_, err := LoadCSVTyped(strings.NewReader(in), NewDictionary(), "E", "a", "b")
		if err == nil {
			t.Errorf("LoadCSVTyped(%q) succeeded", in)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("LoadCSVTyped(%q) error %q, want mention of %q", in, err, want)
		}
	}
}

// Mixed separators within one file must be rejected with a line-numbered
// error: the separator is sniffed from the first data row and enforced.
func TestLoadCSVMixedSeparators(t *testing.T) {
	cases := map[string]string{
		"1,2,0.5\n7 8 2\n":        "line 2", // whitespace row in a comma file (arity error)
		"7 8 2\n1,2,0.5\n":        "line 2: comma-separated row in a whitespace-separated file",
		"# c\n\n7 8 2\n1,2,0.5\n": "line 4",
	}
	for in, want := range cases {
		_, err := LoadCSVTyped(strings.NewReader(in), NewDictionary(), "E", "a", "b")
		if err == nil {
			t.Errorf("LoadCSVTyped(%q) succeeded", in)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("LoadCSVTyped(%q) error %q, want mention of %q", in, err, want)
		}
	}
}

func TestLoadCSVAuto(t *testing.T) {
	in := `# comment before any data
# another comment

1,2,9,0.5
3,4,5,1.25
`
	r, err := LoadCSVAutoTyped(strings.NewReader(in), NewDictionary(), "E")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Attrs) != 3 || r.Attrs[0] != "A1" || r.Attrs[2] != "A3" {
		t.Fatalf("inferred attrs %v", r.Attrs)
	}
	if r.Size() != 2 || r.At(1, 2) != 5 || r.Weights[0] != 0.5 {
		t.Fatalf("parsed: %+v", r)
	}
}

func TestLoadCSVAutoErrors(t *testing.T) {
	cases := []string{
		"",                     // empty input
		"# only\n# comments\n", // no data rows
		"7\n",                  // weight only, no value columns
		"1,2,0.5\n3,4\n",       // later row narrower than inferred schema
		"1,,2,0.5\n",           // empty field counted toward arity, then rejected
		"1,2,0.5\n3 4 1\n",     // mixed separators across rows
	}
	for _, c := range cases {
		if _, err := LoadCSVAutoTyped(strings.NewReader(c), NewDictionary(), "E"); err == nil {
			t.Errorf("LoadCSVAutoTyped(%q) succeeded", c)
		}
	}
}

// The arity sniffer must count empty fields: `1,,2,0.5` declares three value
// columns (A1..A3), so the data row fails on its empty column instead of
// loading under a silently narrowed schema.
func TestLoadCSVAutoEmptyFieldArity(t *testing.T) {
	_, err := LoadCSVAutoTyped(strings.NewReader("1,,2,0.5\n"), NewDictionary(), "E")
	if err == nil {
		t.Fatal("LoadCSVAutoTyped accepted a row with an empty field")
	}
	if !strings.Contains(err.Error(), "empty field") {
		t.Fatalf("error %q, want mention of the empty field", err)
	}
}

// A line past maxLineBytes fails with a message naming the relation, the
// line and the limit; one just inside the limit loads.
func TestLoadCSVLineTooLong(t *testing.T) {
	pad := strings.Repeat(" ", maxLineBytes-len("1,2,1"))
	if _, err := LoadCSVTyped(strings.NewReader("1,2,1"+pad+"\n"), NewDictionary(), "R1", "a", "b"); err != nil {
		t.Fatalf("line of exactly %d bytes: %v", maxLineBytes, err)
	}
	_, err := LoadCSVTyped(strings.NewReader("1,2,1"+pad+" \n"), NewDictionary(), "R1", "a", "b")
	if want := "R1 line 1: line longer than 1048576 bytes"; err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}

// Reader errors are wrapped, not flattened: the upload handler tells an
// over-cap body (413) from a malformed one (400) with errors.As.
func TestLoadCSVWrapsReaderErrors(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader("1,2,1\n"), iotest.ErrReader(boom))
	_, err := LoadCSVAutoTyped(r, NewDictionary(), "R")
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the reader's", err)
	}
}

// TestLoadCSVAllocsPerRow pins the loader's allocation per row on 200 000
// rows of `a,b,weight`: integer values, which stay parsed int64s from the
// first row on, and the string values of the http_sessions benchmark
// workload, which keep their text until every column type is known. Measured
// 158 and 370 bytes a row (go1.24, amd64). The budgets, 239 and 451, are what
// the strict int64-only loader and the two-pass typed loader that this one
// replaced allocated on the same bodies.
func TestLoadCSVAllocsPerRow(t *testing.T) {
	const n = 200_000
	gen := func(value func(r *rand.Rand) string) string {
		r := rand.New(rand.NewSource(42))
		var sb strings.Builder
		for i := 0; i < n; i++ {
			a, b := value(r), value(r)
			fmt.Fprintf(&sb, "%s,%s,%s\n", a, b, strconv.FormatFloat(r.Float64()*10000, 'g', -1, 64))
		}
		return sb.String()
	}
	for _, tc := range []struct {
		name   string
		body   string
		budget float64
	}{
		{"integers", gen(func(r *rand.Rand) string { return strconv.Itoa(r.Intn(n)) }), 239},
		{"strings", gen(func(r *rand.Rand) string { return fmt.Sprintf("user-%05d", r.Intn(n/10)) }), 451},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rel, err := LoadCSVTyped(strings.NewReader(tc.body), NewDictionary(), "R", "a", "b")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Size() != n {
			t.Fatalf("%s: %d rows, want %d", tc.name, rel.Size(), n)
		}
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("%s: %.0f bytes per row", tc.name, perRow)
		if perRow > tc.budget {
			t.Errorf("%s: %.0f bytes allocated per row, budget %.0f", tc.name, perRow, tc.budget)
		}
	}
}
