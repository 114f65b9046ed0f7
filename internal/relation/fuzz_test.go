package relation

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzLoadCSVAuto is a differential target for the one-pass CSV loader — the
// HTTP upload path, whose body is attacker-controlled. Every input runs
// through LoadCSVAutoTyped and LoadCSVTyped (declared arities 0..3) and
// through refLoadTyped, the two-pass loader the one-pass design replaced
// (kept below as the reference): both must accept or reject the same input,
// and on accept agree on schema, column types, codes, weights and the
// dictionary they filled. Malformed uploads must come back as errors, never
// as panics.
func FuzzLoadCSVAuto(f *testing.F) {
	f.Add([]byte("1,2,3.5\n"))
	f.Add([]byte("# comment\n\n1 2 3\n4 5 6\n"))
	f.Add([]byte("1,2\n1,2,3\n"))          // arity drift
	f.Add([]byte("9223372036854775808,1")) // int64 overflow
	f.Add([]byte("1,NaN\n"))
	f.Add([]byte(",,,\n"))
	f.Add([]byte("1,2,"))
	f.Add([]byte("#\xff\xfe\n1,1\n"))
	f.Add([]byte("1,,2,0.5\n"))         // empty field must error, not shift columns
	f.Add([]byte("1,2,0.5,\n"))         // trailing empty field
	f.Add([]byte(", ,,\n"))             // blank-ish fields
	f.Add([]byte("1,2,0.5\n3 4 1\n"))   // mixed separators across rows
	f.Add([]byte("3 4 1\n1,2,0.5\n"))   // mixed the other way
	f.Add([]byte("1,2 3,0.5\n"))        // whitespace inside a comma field
	f.Add([]byte("1\t2\t0.5\n3 4 1\n")) // tabs and spaces are one separator class
	f.Add([]byte("1,2,-Inf\n"))         // non-finite weights must be rejected
	f.Add([]byte("1,2,+Inf\n"))
	f.Add([]byte("1,2,1e9999\n")) // ParseFloat overflows to +Inf
	f.Add([]byte("1,2,nan\n"))
	f.Add([]byte("007,1,1\nx,2,1\n"))                  // non-canonical int kept verbatim in a string column
	f.Add([]byte("+5,1,1\n1.5,2,1\nabc,3,1\n"))        // int -> float -> string
	f.Add([]byte("9007199254740993,1.5,1\n2.5,1,1\n")) // int past 2^53 in a float column
	f.Add([]byte("-0,1,1\n0.0,1,1\n"))                 // -0 in a float column is the float -0
	f.Fuzz(func(t *testing.T, data []byte) {
		for arity := -1; arity <= 3; arity++ {
			var attrs []string
			if arity >= 0 {
				attrs = autoAttrs(arity)
			}
			dict, refDict := NewDictionary(), NewDictionary()
			var rel *Relation
			var err error
			if arity < 0 {
				rel, err = LoadCSVAutoTyped(bytes.NewReader(data), dict, "F")
			} else {
				rel, err = LoadCSVTyped(bytes.NewReader(data), dict, "F", attrs...)
			}
			ref, refErr := refLoadTyped(bytes.NewReader(data), refDict, "F", attrs, arity < 0)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("arity %d: one-pass error %v, reference error %v", arity, err, refErr)
			}
			if err != nil {
				continue
			}
			checkLoaded(t, rel)
			sameLoad(t, arity, rel, ref, dict, refDict)
		}
	})
}

// sameLoad asserts that two loads of one body produced the same relation:
// attributes, column types, codes, weights (bit for bit) and dictionaries.
func sameLoad(t *testing.T, arity int, got, want *Relation, dict, wantDict *Dictionary) {
	t.Helper()
	if !slices.Equal(got.Attrs, want.Attrs) || got.Size() != want.Size() {
		t.Fatalf("arity %d: attrs %v / %d rows, reference %v / %d rows", arity, got.Attrs, got.Size(), want.Attrs, want.Size())
	}
	for c := range got.Attrs {
		if got.ColType(c) != want.ColType(c) {
			t.Fatalf("arity %d col %d: type %s, reference %s", arity, c+1, got.ColType(c), want.ColType(c))
		}
		if !slices.Equal(got.Col(c), want.Col(c)) {
			t.Fatalf("arity %d col %d: codes %v, reference %v", arity, c+1, got.Col(c), want.Col(c))
		}
	}
	for i, w := range got.Weights {
		if math.Float64bits(w) != math.Float64bits(want.Weights[i]) {
			t.Fatalf("arity %d row %d: weight %v, reference %v", arity, i, w, want.Weights[i])
		}
	}
	ns, nf := dict.Len()
	wns, wnf := wantDict.Len()
	if ns != wns || nf != wnf {
		t.Fatalf("arity %d: dictionary %d strings / %d floats, reference %d / %d", arity, ns, nf, wns, wnf)
	}
	for code := int64(0); code < int64(ns); code++ {
		s, _ := dict.DecodeString(code)
		ws, _ := wantDict.DecodeString(code)
		if s != ws {
			t.Fatalf("arity %d: string code %d is %q, reference %q", arity, code, s, ws)
		}
	}
	for code := int64(0); code < int64(nf); code++ {
		x, _ := dict.DecodeFloat(code)
		wx, _ := wantDict.DecodeFloat(code)
		if math.Float64bits(x) != math.Float64bits(wx) {
			t.Fatalf("arity %d: float code %d is %v, reference %v", arity, code, x, wx)
		}
	}
}

// checkLoaded asserts the structural invariants every accepted relation must
// satisfy: consistent row/weight/attr counts and finite weights (NaN breaks
// the dioid order, ±Inf the heap arithmetic).
func checkLoaded(t *testing.T, rel *Relation) {
	t.Helper()
	if rel == nil {
		t.Fatal("nil relation without error")
	}
	for c := 0; c < rel.Arity(); c++ {
		if len(rel.Col(c)) != len(rel.Weights) {
			t.Fatalf("column %d has %d values but %d weights", c, len(rel.Col(c)), len(rel.Weights))
		}
	}
	for i := range rel.Size() {
		if row := rel.Row(i); len(row) != len(rel.Attrs) {
			t.Fatalf("row %d has %d values, schema has %d attrs", i, len(row), len(rel.Attrs))
		}
	}
	for i, w := range rel.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Fatalf("row %d carries non-finite weight %v past the loader", i, w)
		}
	}
}

// FuzzLoadCSVTyped feeds arbitrary bytes through the type-sniffing,
// dictionary-encoding loader — the typed HTTP upload path. Beyond the
// structural invariants of FuzzLoadCSVAuto, every accepted row must decode
// back to logical values consistent with the sniffed column types, and
// encoded columns must hold codes the dictionary can resolve.
func FuzzLoadCSVTyped(f *testing.F) {
	f.Add([]byte("alice,bob,1.5\n"))
	f.Add([]byte("a,1,0.25,2\nb,2,0.5,1\n")) // mixed string/int/float columns
	f.Add([]byte("1,2,0.5\nalice,3,0.25\n")) // widening int -> string mid-file
	f.Add([]byte("1,2.5,1\n1,alice,1\n"))    // widening float -> string
	f.Add([]byte("NaN,1,1\n"))               // NaN as a value sniffs as string
	f.Add([]byte("+Inf,-Inf,0.5\n"))
	f.Add([]byte("x,y,NaN\n")) // NaN as a weight is rejected
	f.Add([]byte("x,y,Inf\n"))
	f.Add([]byte("a b c\nd e f\n")) // whitespace-separated strings... weight must fail
	f.Add([]byte("\xff\xfe,1,1\n")) // invalid UTF-8 is just bytes
	f.Add([]byte("a,,1\n"))         // empty string field still rejected
	f.Fuzz(func(t *testing.T, data []byte) {
		dict := NewDictionary()
		rel, err := LoadCSVAutoTyped(bytes.NewReader(data), dict, "F")
		if err != nil {
			return
		}
		checkLoaded(t, rel)
		if len(rel.Types) != len(rel.Attrs) {
			t.Fatalf("%d column types for %d attrs", len(rel.Types), len(rel.Attrs))
		}
		for i := range rel.Size() {
			for c, v := range rel.Row(i) {
				switch rel.ColType(c) {
				case TypeFloat64:
					if _, ok := dict.DecodeFloat(v); !ok {
						t.Fatalf("row %d col %d: float code %d not in dictionary", i, c, v)
					}
				case TypeString:
					if _, ok := dict.DecodeString(v); !ok {
						t.Fatalf("row %d col %d: string code %d not in dictionary", i, c, v)
					}
				}
			}
		}
	})
}

// The reference loader: the two-pass typed CSV loader LoadCSVTyped was before
// it became one streaming pass — scan and buffer every row as text, sniff
// each column's type over all rows, then encode. It is kept verbatim apart
// from the ref prefix (and without the strict whitespace mode of the
// int64-only loaders, which the typed path never used) as FuzzLoadCSVAuto's
// oracle.

type refRow struct {
	line   int
	fields []string
}

func refLoadTyped(r io.Reader, dict *Dictionary, name string, attrs []string, infer bool) (*Relation, error) {
	arity := len(attrs)
	if infer {
		arity = -1
	}
	var rows []refRow
	if _, err := refScanRows(r, name, arity, func(row refRow) error {
		rows = append(rows, row)
		return nil
	}); err != nil {
		return nil, err
	}
	if infer {
		// rows is non-empty here: inference over zero data rows is a scan error.
		attrs = autoAttrs(len(rows[0].fields) - 1)
	}
	return refLoadTypedRows(dict, name, attrs, rows)
}

func refSplitFields(line string, sep csvSep) ([]string, error) {
	switch sep {
	case sepComma:
		fields := strings.Split(line, ",")
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		return fields, nil
	default:
		if strings.ContainsRune(line, ',') {
			return nil, fmt.Errorf("comma-separated row in a whitespace-separated file")
		}
		return strings.Fields(line), nil
	}
}

func refCSVSkip(line string) bool { return line == "" || strings.HasPrefix(line, "#") }

func refScanRows(r io.Reader, name string, arity int, emit func(row refRow) error) (nvals int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	sep := sepUnknown
	nvals = arity
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if refCSVSkip(line) {
			continue
		}
		if sep == sepUnknown {
			sep = sniffSep(line)
		}
		fields, err := refSplitFields(line, sep)
		if err != nil {
			return 0, fmt.Errorf("%s line %d: %w", name, lineNo, err)
		}
		if nvals < 0 {
			if len(fields) < 2 {
				return 0, fmt.Errorf("%s: first data row has %d fields, want at least 1 value + weight", name, len(fields))
			}
			nvals = len(fields) - 1
		}
		if len(fields) != nvals+1 {
			return 0, fmt.Errorf("%s line %d: %d %s-separated fields, want %d values + weight", name, lineNo, len(fields), sep, nvals)
		}
		for i, f := range fields {
			if f == "" {
				if i == nvals {
					return 0, fmt.Errorf("%s line %d weight: empty field", name, lineNo)
				}
				return 0, fmt.Errorf("%s line %d col %d: empty field", name, lineNo, i+1)
			}
		}
		if err := emit(refRow{line: lineNo, fields: fields}); err != nil {
			return 0, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if nvals < 0 {
		return 0, fmt.Errorf("%s: no data rows", name)
	}
	return nvals, nil
}

func refParseWeight(name string, row refRow, nvals int) (float64, error) {
	w, err := strconv.ParseFloat(row.fields[nvals], 64)
	if err != nil {
		return 0, fmt.Errorf("%s line %d weight: %w", name, row.line, err)
	}
	if err := checkFinite(w); err != nil {
		return 0, fmt.Errorf("%s line %d weight: %w", name, row.line, err)
	}
	return w, nil
}

func refSniffColumnTypes(rows []refRow, nvals int) []Type {
	types := make([]Type, nvals)
	for _, row := range rows {
		for i := 0; i < nvals; i++ {
			if types[i] == TypeString {
				continue // already widest
			}
			types[i] = WidenType(types[i], SniffType(row.fields[i]))
		}
	}
	for i, t := range types {
		if t != TypeFloat64 {
			continue
		}
		for _, row := range rows {
			if IntLiteralUnsafeForFloat(row.fields[i]) {
				types[i] = TypeString
				break
			}
		}
	}
	return types
}

func refLoadTypedRows(dict *Dictionary, name string, attrs []string, rows []refRow) (*Relation, error) {
	types := refSniffColumnTypes(rows, len(attrs))
	rel, err := NewTyped(name, dict, attrs, types)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		vals := make([]Value, len(attrs))
		for i := range attrs {
			v, err := dict.EncodeField(types[i], row.fields[i])
			if err != nil {
				return nil, fmt.Errorf("%s line %d col %d: %w", name, row.line, i+1, err)
			}
			vals[i] = v
		}
		w, err := refParseWeight(name, row, len(attrs))
		if err != nil {
			return nil, err
		}
		if _, err := rel.TryAdd(w, vals...); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", name, row.line, err)
		}
	}
	return rel, nil
}
