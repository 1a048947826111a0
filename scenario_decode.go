package uavnet

import (
	"bytes"
	"strconv"

	"github.com/uav-coverage/uavnet/internal/strictjson"
)

// decodeScenarioFast decodes a scenario file in one pass over data, without
// copying it: a structural walk of the top-level and scenario objects finds
// the scenario's Users array, parseUsers reads the array in place, and the
// few KB left over (version, Grid, UAVs, UAVRange, Channel) go through the
// strict decoder with the array replaced by null. It returns nil — decline,
// never an error — on anything it does not fully understand, and
// UnmarshalScenario then decodes the whole input strictly, which is the
// reference behaviour and the only source of error messages. Declined are
// exactly the inputs whose meaning the walk would have to reproduce: escaped,
// non-ASCII, case-folded or duplicate keys on the path to Users, a Users
// member that is not the {"Pos":{"X":…,"Y":…},"MinRateBps":…} shape, nulls,
// and numbers outside RFC 8259 or float64 range. A decline costs one extra
// walk; an accepted input decodes to the same Scenario the strict decoder
// would produce, float bit for float bit.
func decodeScenarioFast(data []byte) *scenarioFile {
	w := walker{data: data}
	var users []User
	start, end := -1, -1
	seenScenario := false
	ok := w.object(func(key []byte) bool {
		// encoding/json matches keys case-insensitively; walker.key passes
		// only escape-free ASCII keys, on which bytes.EqualFold is that rule.
		if !bytes.EqualFold(key, []byte("scenario")) {
			return w.skipValue()
		}
		if seenScenario || string(key) != "scenario" {
			return false
		}
		seenScenario = true
		return w.object(func(key []byte) bool {
			if !bytes.EqualFold(key, []byte("Users")) {
				return w.skipValue()
			}
			if start >= 0 || string(key) != "Users" {
				return false
			}
			start = w.i
			var ok bool
			users, ok = w.parseUsers()
			end = w.i
			return ok
		})
	})
	if !ok || start < 0 {
		return nil
	}
	rest := make([]byte, 0, len(data)-(end-start)+len("null"))
	rest = append(append(append(rest, data[:start]...), "null"...), data[end:]...)
	var f scenarioFile
	if strictjson.Unmarshal(rest, &f) != nil {
		return nil
	}
	f.Scenario.Users = users
	return &f
}

// walker is a cursor over a JSON document for decodeScenarioFast. Every
// method reports false on input it declines; the walk then stops.
type walker struct {
	data []byte
	i    int
}

func (w *walker) skipSpace() {
	for w.i < len(w.data) && strictjson.IsSpace(w.data[w.i]) {
		w.i++
	}
}

// consume skips whitespace, then the byte c.
func (w *walker) consume(c byte) bool {
	w.skipSpace()
	if w.i < len(w.data) && w.data[w.i] == c {
		w.i++
		return true
	}
	return false
}

// object reads one JSON object, calling member with each key and the cursor
// on the member's value, which member must consume.
func (w *walker) object(member func(key []byte) bool) bool {
	if !w.consume('{') {
		return false
	}
	if w.consume('}') {
		return true
	}
	for {
		key, ok := w.key()
		if !ok || !w.consume(':') {
			return false
		}
		w.skipSpace()
		if !member(key) {
			return false
		}
		switch {
		case w.consume(','):
		case w.consume('}'):
			return true
		default:
			return false
		}
	}
}

// key reads a member name and returns its raw bytes. It declines names with
// escapes, control bytes or non-ASCII bytes: their decoded form, and how
// encoding/json folds it, would need a full string decoder to know.
func (w *walker) key() ([]byte, bool) {
	if !w.consume('"') {
		return nil, false
	}
	start := w.i
	for ; w.i < len(w.data); w.i++ {
		switch c := w.data[w.i]; {
		case c == '"':
			w.i++
			return w.data[start : w.i-1], true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// skipValue steps over one value without interpreting it. It only has to
// be right on valid JSON: whatever it skips is validated afterwards by the
// strict decode of the remainder.
func (w *walker) skipValue() bool {
	start := w.i
	for depth := 0; w.i < len(w.data); w.i++ {
		switch w.data[w.i] {
		case '"':
			if !w.skipString() {
				return false
			}
			if depth == 0 {
				return true
			}
			w.i-- // skipString left the cursor past the closing quote
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return w.i > start
			}
			if depth--; depth == 0 {
				w.i++
				return true
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return w.i > start
			}
		}
	}
	return false
}

// skipString steps over a string literal, cursor on its opening quote.
func (w *walker) skipString() bool {
	for w.i++; w.i < len(w.data); w.i++ {
		switch w.data[w.i] {
		case '\\':
			w.i++
		case '"':
			w.i++
			return true
		}
	}
	return false
}

// parseUsers reads the Users array in place. The slice is presized from a
// count of '{' bytes in the rest of the document (two per user in the
// canonical shape), so the array fills it without regrowing.
func (w *walker) parseUsers() ([]User, bool) {
	if !w.consume('[') {
		return nil, false
	}
	users := make([]User, 0, bytes.Count(w.data[w.i:], []byte{'{'})/2)
	if w.consume(']') {
		return users, true
	}
	for {
		var u User
		var seenPos, seenRate bool
		ok := w.object(func(key []byte) bool {
			switch {
			case string(key) == "Pos" && !seenPos:
				seenPos = true
				return w.parsePoint(&u.Pos.X, &u.Pos.Y)
			case string(key) == "MinRateBps" && !seenRate:
				seenRate = true
				return w.number(&u.MinRateBps)
			}
			return false
		})
		if !ok {
			return nil, false
		}
		users = append(users, u)
		switch {
		case w.consume(','):
		case w.consume(']'):
			return users, true
		default:
			return nil, false
		}
	}
}

// parsePoint reads a {"X":…,"Y":…} object, members in either order.
func (w *walker) parsePoint(x, y *float64) bool {
	var seenX, seenY bool
	return w.object(func(key []byte) bool {
		switch {
		case string(key) == "X" && !seenX:
			seenX = true
			return w.number(x)
		case string(key) == "Y" && !seenY:
			seenY = true
			return w.number(y)
		}
		return false
	})
}

// number reads one RFC 8259 number into *f. Integers of at most 15 digits
// are exact in a float64 and convert directly; every other number goes
// through strconv.ParseFloat, as in encoding/json, so the bits agree. Out of
// range numbers (1e400) decline, leaving the error to the strict decoder.
func (w *walker) number(f *float64) bool {
	d, i := w.data, w.i
	start := i
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	digits := 0
	switch {
	case i < len(d) && d[i] == '0':
		i++
		digits = 1
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		for ; i < len(d) && isDigit(d[i]); i++ {
			mant = mant*10 + uint64(d[i]-'0')
			digits++
		}
	default:
		return false
	}
	integer := true
	if i < len(d) && d[i] == '.' {
		integer = false
		if i++; i >= len(d) || !isDigit(d[i]) {
			return false
		}
		for i < len(d) && isDigit(d[i]) {
			i++
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		integer = false
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			return false
		}
		for i < len(d) && isDigit(d[i]) {
			i++
		}
	}
	w.i = i
	if integer && digits <= 15 {
		v := float64(mant)
		if neg {
			v = -v // -0 stays negative zero, as ParseFloat("-0") does
		}
		*f = v
		return true
	}
	v, err := strconv.ParseFloat(string(d[start:i]), 64)
	*f = v
	return err == nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
