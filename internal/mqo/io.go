package mqo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// problemJSON is the on-disk representation of a Problem. Plan costs are
// grouped by query; savings use global plan indices.
type problemJSON struct {
	Name      string       `json:"name,omitempty"`
	PlanCosts [][]float64  `json:"planCosts"`
	Savings   []savingJSON `json:"savings"`
}

type savingJSON struct {
	P1    int     `json:"p1"`
	P2    int     `json:"p2"`
	Value float64 `json:"value"`
}

// MarshalJSON encodes p in the instance interchange format used by the
// cmd/mqogen and cmd/mqosolve tools.
func (p *Problem) MarshalJSON() ([]byte, error) {
	pj := problemJSON{Name: p.Name, Savings: []savingJSON{}}
	for q := 0; q < p.NumQueries(); q++ {
		costs := make([]float64, 0, len(p.Plans(q)))
		for _, pl := range p.Plans(q) {
			costs = append(costs, p.Cost(pl))
		}
		pj.PlanCosts = append(pj.PlanCosts, costs)
	}
	for _, s := range p.Savings() {
		pj.Savings = append(pj.Savings, savingJSON{P1: s.P1, P2: s.P2, Value: s.Value})
	}
	return json.Marshal(pj)
}

// UnmarshalJSON decodes an instance written by MarshalJSON, validating it.
func (p *Problem) UnmarshalJSON(data []byte) error {
	var pj problemJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return fmt.Errorf("mqo: decoding problem: %w", err)
	}
	savings := make([]Saving, len(pj.Savings))
	for i, s := range pj.Savings {
		savings[i] = Saving{P1: s.P1, P2: s.P2, Value: s.Value}
	}
	np, err := NewProblem(pj.PlanCosts, savings)
	if err != nil {
		return err
	}
	np.Name = pj.Name
	*p = *np
	return nil
}

// WriteProblem writes p as JSON to w.
func WriteProblem(w io.Writer, p *Problem) error {
	enc := json.NewEncoder(w)
	return enc.Encode(p)
}

// ReadProblem reads a JSON-encoded problem from r.
func ReadProblem(r io.Reader) (*Problem, error) {
	var p Problem
	dec := json.NewDecoder(r)
	if err := dec.Decode(&p); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Lexer reads one JSON text in a single pass, for the fast decoders of
// the interchange format: Problem here and the serve request envelope
// around it. It accepts only the subset those writers produce and refuses
// everything else, where encoding/json might give the text a meaning of
// its own: a string with an escape or a byte outside ASCII, a key that is
// not listed, in another case or twice, null, a number literal strconv
// rejects, a non-integer where an integer is read, and anything that is
// not JSON. A refusal is sticky: every later read returns a zero value
// and End reports false, so a caller checks once and decodes the text
// with encoding/json instead.
type Lexer struct {
	data []byte
	pos  int
	bad  bool
}

// NewLexer returns a Lexer at the start of data.
func NewLexer(data []byte) *Lexer { return &Lexer{data: data} }

// End reports whether everything read so far was accepted and only
// whitespace follows.
func (l *Lexer) End() bool {
	l.peek()
	return !l.bad && l.pos == len(l.data)
}

func (l *Lexer) fail() {
	l.bad = true
	l.pos = len(l.data)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (l *Lexer) peek() byte {
	for ; l.pos < len(l.data); l.pos++ {
		switch c := l.data[l.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (l *Lexer) expect(c byte) {
	if l.peek() != c {
		l.fail()
		return
	}
	l.pos++
}

// Object reads an object whose keys are among keys (at most 64), each at
// most once, calling field with the key when the value is next; field
// reads it.
func (l *Lexer) Object(keys []string, field func(key string)) {
	l.expect('{')
	if l.peek() == '}' {
		l.pos++
		return
	}
	var seen uint64
	for !l.bad {
		k := l.key(keys)
		if k < 0 || seen&(1<<k) != 0 {
			l.fail()
			return
		}
		seen |= 1 << k
		l.expect(':')
		field(keys[k])
		switch l.peek() {
		case ',':
			l.pos++
		case '}':
			l.pos++
			return
		default:
			l.fail()
		}
	}
}

// key reads a string and returns its index in keys, -1 if it is not one.
func (l *Lexer) key(keys []string) int {
	s := l.str()
	for i, k := range keys {
		if string(s) == k {
			return i
		}
	}
	return -1
}

// array reads an array, calling elem when each element is next; elem
// reads it.
func (l *Lexer) array(elem func()) {
	l.expect('[')
	if l.peek() == ']' {
		l.pos++
		return
	}
	for !l.bad {
		elem()
		switch l.peek() {
		case ',':
			l.pos++
		case ']':
			l.pos++
			return
		default:
			l.fail()
		}
	}
}

// String reads a string of ASCII characters without escapes.
func (l *Lexer) String() string { return string(l.str()) }

func (l *Lexer) str() []byte {
	l.expect('"')
	for i := l.pos; i < len(l.data); i++ {
		switch c := l.data[i]; {
		case c == '"':
			s := l.data[l.pos:i]
			l.pos = i + 1
			return s
		case c < 0x20 || c >= 0x80 || c == '\\':
			l.fail()
			return nil
		}
	}
	l.fail()
	return nil
}

// Bool reads true or false.
func (l *Lexer) Bool() bool {
	l.peek()
	rest := l.data[l.pos:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		l.pos += 4
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		l.pos += 5
	default:
		l.fail()
	}
	return false
}

// float reads a number as encoding/json reads one into a float64.
func (l *Lexer) float() float64 {
	v, err := strconv.ParseFloat(string(l.number()), 64)
	if err != nil {
		l.fail()
	}
	return v
}

// Int reads an integer that fits an int.
func (l *Lexer) Int() int { return int(l.integer(strconv.IntSize)) }

// Int64 reads an integer that fits an int64.
func (l *Lexer) Int64() int64 { return l.integer(64) }

func (l *Lexer) integer(bits int) int64 {
	v, err := strconv.ParseInt(string(l.number()), 10, bits)
	if err != nil {
		l.fail()
	}
	return v
}

// number reads a literal of the JSON number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (l *Lexer) number() []byte {
	l.peek()
	d, start := l.data, l.pos
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && d[i] >= '1' && d[i] <= '9':
		i = digits(d, i)
	default:
		l.fail()
		return nil
	}
	if i < len(d) && d[i] == '.' {
		if i = someDigits(d, i+1); i < 0 {
			l.fail()
			return nil
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i = someDigits(d, i); i < 0 {
			l.fail()
			return nil
		}
	}
	l.pos = i
	return d[start:i]
}

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && d[i] >= '0' && d[i] <= '9' {
		i++
	}
	return i
}

// someDigits is digits for a run that must not be empty; it returns -1
// where it is.
func someDigits(d []byte, i int) int {
	if j := digits(d, i); j > i {
		return j
	}
	return -1
}

var (
	problemKeys = []string{"name", "planCosts", "savings"}
	savingKeys  = []string{"p1", "p2", "value"}
)

// Problem reads an interchange object, the shape MarshalJSON writes in
// any key order, and builds it with NewProblem. It refuses (returns nil)
// where the Lexer refuses the text or NewProblem rejects the instance.
func (l *Lexer) Problem() *Problem {
	var (
		name    string
		costs   [][]float64
		savings []Saving
	)
	l.Object(problemKeys, func(key string) {
		switch key {
		case "name":
			name = l.String()
		case "planCosts":
			l.array(func() {
				var row []float64
				l.array(func() { row = append(row, l.float()) })
				costs = append(costs, row)
			})
		case "savings":
			l.array(func() {
				var s Saving
				l.Object(savingKeys, func(key string) {
					switch key {
					case "p1":
						s.P1 = l.Int()
					case "p2":
						s.P2 = l.Int()
					case "value":
						s.Value = l.float()
					}
				})
				if len(savings) == cap(savings) {
					// Double: append grows a slice this long by 1.25×,
					// allocating ~5× its final size on the way.
					savings = slices.Grow(savings, len(savings))
				}
				savings = append(savings, s)
			})
		}
	})
	if l.bad {
		return nil
	}
	p, err := NewProblem(costs, savings)
	if err != nil {
		l.fail()
		return nil
	}
	p.Name = name
	return p
}
