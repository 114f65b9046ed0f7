package relation

// Logical value domains. The any-k machinery ranks answers purely by tuple
// weights and joins values by equality only, so the physical domain stays
// dense int64 codes everywhere past ingest — dpgraph, join, core, and
// hypertree never see a string or a float value. The logical domain (what the
// user loaded and what the wire emits) is described by per-column Types and
// resolved through a Dictionary: an append-only intern table mapping
// string/float logical values onto dense codes.
//
// Append-only is the load-bearing property: a code, once handed out, names
// the same logical value forever. Growing the dictionary (a later CSV upload
// interning new authors, say) therefore never invalidates rows, version
// stamps, memoized indexes, or compiled plans built against earlier codes —
// the existing Memo/Cache invalidation story keeps working unchanged.

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
)

// Type is the logical type of one relation column.
type Type uint8

const (
	// TypeInt64 columns store their logical value directly: code == value.
	TypeInt64 Type = iota
	// TypeFloat64 columns store dictionary codes of float64 values.
	TypeFloat64
	// TypeString columns store dictionary codes of string values.
	TypeString
)

func (t Type) String() string {
	switch t {
	case TypeInt64:
		return "int64"
	case TypeFloat64:
		return "float64"
	case TypeString:
		return "string"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Dictionary interns string and float64 logical values as dense int64 codes
// (each domain counts from 0 independently; the column Type disambiguates).
// It is append-only — codes are never reassigned or removed — and safe for
// concurrent use: ingest of a new relation may intern values while sessions
// over previously registered relations decode concurrently.
type Dictionary struct {
	mu        sync.RWMutex
	strs      []string
	strCode   map[string]int64
	floats    []float64
	floatCode map[float64]int64
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{strCode: map[string]int64{}, floatCode: map[float64]int64{}}
}

// EncodeString interns s, returning its dense code (existing or fresh).
func (d *Dictionary) EncodeString(s string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.strCode[s]; ok {
		return c
	}
	c := int64(len(d.strs))
	d.strs = append(d.strs, s)
	d.strCode[s] = c
	return c
}

// DecodeString returns the string behind code, or false for a code this
// dictionary never issued.
func (d *Dictionary) DecodeString(code int64) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if code < 0 || code >= int64(len(d.strs)) {
		return "", false
	}
	return d.strs[code], true
}

// EncodeFloat interns f, returning its dense code. NaN is rejected by the
// ingest layer before it gets here: as a map key NaN never equals itself, so
// interning it would mint a fresh code per occurrence and the value could
// never join.
func (d *Dictionary) EncodeFloat(f float64) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.floatCode[f]; ok {
		return c
	}
	c := int64(len(d.floats))
	d.floats = append(d.floats, f)
	d.floatCode[f] = c
	return c
}

// DecodeFloat returns the float64 behind code, or false for a code this
// dictionary never issued.
func (d *Dictionary) DecodeFloat(code int64) (float64, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if code < 0 || code >= int64(len(d.floats)) {
		return 0, false
	}
	return d.floats[code], true
}

// Len returns the number of interned strings and floats.
func (d *Dictionary) Len() (strs, floats int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.strs), len(d.floats)
}

// Decode resolves one encoded value of logical type t into its logical Go
// value (int64, float64, or string). Codes the dictionary never issued (or a
// typed column on a relation without a dictionary) decode to the raw code —
// a visible sentinel rather than a panic, since decode sits on the wire path.
func (d *Dictionary) Decode(t Type, v Value) any {
	switch t {
	case TypeFloat64:
		if d != nil {
			if f, ok := d.DecodeFloat(v); ok {
				return f
			}
		}
	case TypeString:
		if d != nil {
			if s, ok := d.DecodeString(v); ok {
				return s
			}
		}
	}
	return v
}

// Encode interns one logical Go value (int64, float64, or string — plus the
// common widening int/float32 spellings) under logical type t. It is the
// programmatic counterpart of the CSV ingest path; Reencode moves a
// relation onto another dictionary through it.
func (d *Dictionary) Encode(t Type, logical any) (Value, error) {
	switch t {
	case TypeInt64:
		switch x := logical.(type) {
		case int64:
			return x, nil
		case int:
			return int64(x), nil
		}
	case TypeFloat64:
		var f float64
		switch x := logical.(type) {
		case float64:
			f = x
		case float32:
			f = float64(x)
		case int:
			if !IntFitsFloat64(int64(x)) {
				return 0, fmt.Errorf("integer %d does not fit a float64 column exactly", x)
			}
			f = float64(x)
		case int64:
			if !IntFitsFloat64(x) {
				return 0, fmt.Errorf("integer %d does not fit a float64 column exactly", x)
			}
			f = float64(x)
		default:
			return 0, fmt.Errorf("cannot encode %T as %s", logical, t)
		}
		// Same finiteness rule as CSV ingest (EncodeField): NaN can never
		// join itself, so interning it would mint a fresh dead code per row.
		if err := checkFinite(f); err != nil {
			return 0, err
		}
		return d.EncodeFloat(f), nil
	case TypeString:
		if s, ok := logical.(string); ok {
			return d.EncodeString(s), nil
		}
	}
	return 0, fmt.Errorf("cannot encode %T as %s", logical, t)
}

// EncodeField parses one textual field under logical type t and interns it:
// the single point where CSV ingest crosses from the logical domain to the
// physical one.
func (d *Dictionary) EncodeField(t Type, field string) (Value, error) {
	switch t {
	case TypeInt64:
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, err
		}
		return v, nil
	case TypeFloat64:
		if IntLiteralUnsafeForFloat(field) {
			return 0, fmt.Errorf("integer %s does not fit a float64 column exactly", field)
		}
		f, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return 0, err
		}
		if err := checkFinite(f); err != nil {
			return 0, err
		}
		return d.EncodeFloat(f), nil
	default:
		return d.EncodeString(field), nil
	}
}

// IntFitsFloat64 reports whether v survives a round trip through float64.
// Conservative: every |v| ≤ 2^53 does; larger magnitudes are rejected
// wholesale (some would round-trip, but "int64 widens into float64" must
// never silently merge distinct values into one rounded code).
func IntFitsFloat64(v int64) bool {
	const maxExact = int64(1) << 53
	return v >= -maxExact && v <= maxExact
}

// IntLiteralUnsafeForFloat reports whether field is an integer literal whose
// float64 reading would round: an in-range int64 above 2^53, or an integer
// past int64 range entirely. Such a field must never enter a float column —
// rounding merges distinct keys into one code.
func IntLiteralUnsafeForFloat(field string) bool {
	v, err := strconv.ParseInt(field, 10, 64)
	if err == nil {
		return !IntFitsFloat64(v)
	}
	// ErrRange means "syntactically an integer, magnitude past int64" — the
	// worst case for float rounding. Syntax errors are not integer literals.
	return errors.Is(err, strconv.ErrRange)
}

// SniffType reports the narrowest logical type that parses field: int64 ⊂
// float64 ⊂ string. Non-finite float spellings (NaN, Inf) sniff as strings:
// they cannot be value-joined, so treating them as opaque labels is the only
// reading that round-trips — as do integer literals past int64 range, which
// would otherwise round as float64 and merge distinct keys.
func SniffType(field string) Type {
	if _, err := strconv.ParseInt(field, 10, 64); err == nil {
		return TypeInt64
	}
	if IntLiteralUnsafeForFloat(field) {
		return TypeString
	}
	if f, err := strconv.ParseFloat(field, 64); err == nil && checkFinite(f) == nil {
		return TypeFloat64
	}
	return TypeString
}

// WidenType returns the narrowest type both a and b parse as.
func WidenType(a, b Type) Type {
	if a > b {
		return a
	}
	return b
}
