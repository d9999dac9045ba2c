package mqo

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadProblem hardens the instance parser against malformed input: it
// must either reject the bytes or produce a problem that passes Validate
// and round-trips. Wherever the Lexer accepts the bytes, its problem must
// be the one UnmarshalJSON decodes through problemJSON, internals and name
// included.
func FuzzReadProblem(f *testing.F) {
	var seedBuf bytes.Buffer
	if err := WriteProblem(&seedBuf, PaperExample()); err != nil {
		f.Fatal(err)
	}
	f.Add(seedBuf.Bytes())
	f.Add([]byte(`{"planCosts":[[1,2]],"savings":[]}`))
	f.Add([]byte(`{"planCosts":[[1],[2]],"savings":[{"p1":0,"p2":1,"value":3}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"planCosts":[[-1]],"savings":[]}`))
	// encoding/json keeps a duplicate key's last array; appending to the
	// first would differ.
	f.Add([]byte(`{"planCosts":[[1]],"planCosts":[[2],[3]],"savings":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		l := NewLexer(data)
		if fast := l.Problem(); l.End() {
			var ref Problem
			if err := ref.UnmarshalJSON(data); err != nil {
				t.Fatalf("Lexer accepted what encoding/json rejects: %v", err)
			}
			if !reflect.DeepEqual(fast, &ref) {
				t.Fatalf("Lexer decoded %+v, encoding/json %+v", fast, ref)
			}
		}
		p, err := ReadProblem(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("accepted problem fails validation: %v", verr)
		}
		var buf bytes.Buffer
		if err := WriteProblem(&buf, p); err != nil {
			t.Fatalf("accepted problem does not serialise: %v", err)
		}
		q, err := ReadProblem(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if q.NumQueries() != p.NumQueries() || q.NumPlans() != p.NumPlans() || q.NumSavings() != p.NumSavings() {
			t.Fatal("round trip changed problem shape")
		}
	})
}
