package relation

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// csvSep is the field separator of one CSV file: sniffed from the first data
// row and then enforced on every following line, so a file cannot silently
// mix comma- and whitespace-separated rows.
type csvSep int

const (
	sepUnknown csvSep = iota
	sepComma
	sepSpace
)

func (s csvSep) String() string {
	if s == sepComma {
		return "comma"
	}
	return "whitespace"
}

// sniffSep picks the separator a (trimmed, non-empty) data line uses: comma
// when one is present, whitespace otherwise.
func sniffSep(line string) csvSep {
	if strings.ContainsRune(line, ',') {
		return sepComma
	}
	return sepSpace
}

// splitFields splits a data line under sep. Comma mode splits on every comma
// into dst (reused from row to row) and preserves empty fields (so `1,,2,0.5`
// is four fields, not three — the caller rejects the empty one loudly instead
// of silently shifting columns); whitespace mode collapses runs of spaces/tabs. A line whose separators disagree with sep is
// an error: the caller prefixes it with the line number.
func splitFields(dst []string, line string, sep csvSep) ([]string, error) {
	dst = dst[:0]
	if sep == sepComma {
		for {
			i := strings.IndexByte(line, ',')
			if i < 0 {
				return append(dst, strings.TrimSpace(line)), nil
			}
			dst = append(dst, strings.TrimSpace(line[:i]))
			line = line[i+1:]
		}
	}
	if strings.ContainsRune(line, ',') {
		return nil, fmt.Errorf("comma-separated row in a whitespace-separated file")
	}
	return strings.Fields(line), nil
}

// checkFinite rejects the floats that break the enumeration machinery,
// whether used as weights or as dictionary-encoded values: NaN is unordered
// (it poisons the dioid order, every heap invariant, and — being unequal to
// itself — equality joins and interning), and ±Inf swallows any weight added
// to it.
func checkFinite(f float64) error {
	if math.IsNaN(f) {
		return fmt.Errorf("NaN is not supported (unordered under every dioid, never equal to itself)")
	}
	if math.IsInf(f, 0) {
		return fmt.Errorf("infinite values are not supported")
	}
	return nil
}

// maxLineBytes is the longest line, without its newline, a CSV body may hold.
// The scan buffer starts at 64 KiB and grows towards it only for long lines.
const maxLineBytes = 1 << 20

// column accumulates one value column during the scan. While every field so
// far is an integer in canonical form it keeps the parsed int64s in vals; from
// the first other field on (text non-nil) it keeps the field text instead,
// so an all-integer column costs 8 bytes a row and a string column its text.
// Non-canonical integer spellings (`007`, `+5`, `-0`) go to text too: a
// column that ends as string stores them verbatim, and `-0` in a float
// column is the float -0.
type column struct {
	typ    Type     // the widest type any field so far needs
	vals   []Value  // the integer prefix; the column's codes once encoded
	text   []string // the fields after the integer prefix
	unsafe bool     // some field is an integer a float64 would round
}

func (c *column) add(f string) {
	if c.text == nil {
		if v, err := strconv.ParseInt(f, 10, 64); err == nil && canonicalInt(f) {
			c.vals = append(c.vals, v)
			c.unsafe = c.unsafe || !IntFitsFloat64(v)
			return
		}
	}
	c.text = append(c.text, f)
	if c.typ != TypeString {
		c.typ = WidenType(c.typ, SniffType(f))
		c.unsafe = c.unsafe || IntLiteralUnsafeForFloat(f)
	}
}

// finalType is the column's logical type once every row is in: the widest
// type its fields need, except that a float column holding an integer too
// large to represent exactly widens to string — rounding it into a float
// code would silently merge distinct keys.
func (c *column) finalType() Type {
	if c.typ == TypeFloat64 && c.unsafe {
		return TypeString
	}
	return c.typ
}

// canonicalInt reports whether f, which parses as an int64, is spelled the
// way strconv.FormatInt spells its value: no '+', no leading zero, no "-0".
func canonicalInt(f string) bool {
	d := strings.TrimPrefix(f, "-")
	return f[0] != '+' && (d[0] != '0' || f == "0")
}

// LoadCSVTyped reads a weighted relation from comma- or whitespace-separated
// text: one row per line, the value columns first and the finite float64
// tuple weight last (NaN and ±Inf are rejected with the offending line
// number). Lines starting with '#' and blank lines are skipped. The separator
// is sniffed from the first data row and every later row must use the same
// one; comma rows keep empty fields, which are rejected rather than
// collapsed, and comma fields may contain spaces ("New York"). The schema
// must match the number of value columns.
//
// Each value column's logical type is the widest its fields need (int64 ⊂
// float64 ⊂ string, so `1` followed by `alice` makes a string column), and
// non-int64 columns are dictionary-encoded into dict so the enumeration core
// keeps operating on dense int64 codes. The body is read once, holding int64s
// for integer columns and field text for the others; rows are encoded in row
// order once every type is known. All relations of one database must share
// its dictionary (pass db.Dict()) so joins across relations compare codes of
// the same logical domain. Reader errors are wrapped, so callers can match
// them with errors.As.
func LoadCSVTyped(r io.Reader, dict *Dictionary, name string, attrs ...string) (*Relation, error) {
	return loadCSV(r, dict, name, attrs, false)
}

// LoadCSVAutoTyped is LoadCSVTyped with the schema inferred from the data: the
// arity is taken from the first data row (fields minus the trailing weight)
// and the attributes are named A1..Ak. Empty fields count toward the arity —
// `1,,2,.5` infers three value columns and then fails loudly on the empty one
// instead of inferring a wrong arity and shifting columns.
func LoadCSVAutoTyped(r io.Reader, dict *Dictionary, name string) (*Relation, error) {
	return loadCSV(r, dict, name, nil, true)
}

// loadCSV is the one CSV loader: a single scan that validates every row —
// separator, field count, empty fields, weight — and accumulates its values
// per column, then hands the columns to encodeRows.
func loadCSV(r io.Reader, dict *Dictionary, name string, attrs []string, infer bool) (*Relation, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes+1) // +1: room for the newline
	nvals := len(attrs)
	if infer {
		nvals = -1
	}
	var (
		lineNo  int
		sep     = sepUnknown
		fields  []string
		cols    []column
		weights []float64
	)
	for sc.Scan() {
		lineNo++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 || b[0] == '#' {
			continue
		}
		line := string(b)
		if sep == sepUnknown {
			sep = sniffSep(line)
		}
		var err error
		if fields, err = splitFields(fields, line, sep); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", name, lineNo, err)
		}
		if nvals < 0 {
			if len(fields) < 2 {
				return nil, fmt.Errorf("%s: first data row has %d fields, want at least 1 value + weight", name, len(fields))
			}
			nvals = len(fields) - 1
		}
		if len(fields) != nvals+1 {
			return nil, fmt.Errorf("%s line %d: %d %s-separated fields, want %d values + weight", name, lineNo, len(fields), sep, nvals)
		}
		for i, f := range fields {
			if f != "" {
				continue
			}
			if i == nvals {
				return nil, fmt.Errorf("%s line %d weight: empty field", name, lineNo)
			}
			return nil, fmt.Errorf("%s line %d col %d: empty field", name, lineNo, i+1)
		}
		w, err := strconv.ParseFloat(fields[nvals], 64)
		if err == nil {
			err = checkFinite(w)
		}
		if err != nil {
			return nil, fmt.Errorf("%s line %d weight: %w", name, lineNo, err)
		}
		if cols == nil {
			cols = make([]column, nvals)
		}
		for i := range cols {
			cols[i].add(fields[i])
		}
		weights = append(weights, w)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("%s line %d: line longer than %d bytes", name, lineNo+1, maxLineBytes)
		}
		return nil, fmt.Errorf("%s line %d: %w", name, lineNo+1, err)
	}
	if nvals < 0 {
		return nil, fmt.Errorf("%s: no data rows", name)
	}
	if infer {
		attrs = autoAttrs(nvals)
	}
	if cols == nil { // declared schema, zero data rows
		cols = make([]column, nvals)
	}
	return encodeRows(dict, name, attrs, cols, weights)
}

// encodeRows fixes each column's type and encodes its values in place, row
// by row across the columns, so the dictionary issues codes in the order a
// row-at-a-time load would. Integer prefixes are already their values in an
// int64 column; elsewhere they are re-spelled (canonically, as they were
// read) and encoded like the text that follows them.
func encodeRows(dict *Dictionary, name string, attrs []string, cols []column, weights []float64) (*Relation, error) {
	types := make([]Type, len(cols))
	prefix := make([]int, len(cols))
	for c := range cols {
		types[c], prefix[c] = cols[c].finalType(), len(cols[c].vals)
	}
	rel, err := NewTyped(name, dict, attrs, types)
	if err != nil {
		return nil, err
	}
	for i := range weights {
		for c := range cols {
			col, t := &cols[c], types[c]
			var err error
			switch {
			case i >= prefix[c]:
				var v Value
				v, err = dict.EncodeField(t, col.text[i-prefix[c]])
				col.vals = append(col.vals, v)
			case t == TypeFloat64:
				col.vals[i] = dict.EncodeFloat(float64(col.vals[i]))
			case t == TypeString:
				col.vals[i] = dict.EncodeString(strconv.FormatInt(col.vals[i], 10))
			}
			if err != nil {
				return nil, fmt.Errorf("%s data row %d col %d: %w", name, i+1, c+1, err)
			}
		}
	}
	for c := range cols {
		rel.cols[c] = cols[c].vals
	}
	rel.Weights = weights
	rel.version.Store(nextStamp())
	return rel, nil
}

// autoAttrs names inferred columns A1..Ak.
func autoAttrs(n int) []string {
	attrs := make([]string, n)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i+1)
	}
	return attrs
}
