package mqo

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestJSONRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 5, 3, 0.3)
		p.Name = "roundtrip"
		var buf bytes.Buffer
		if err := WriteProblem(&buf, p); err != nil {
			return false
		}
		q, err := ReadProblem(&buf)
		if err != nil {
			return false
		}
		if q.Name != p.Name || q.NumQueries() != p.NumQueries() || q.NumPlans() != p.NumPlans() {
			return false
		}
		for pl := 0; pl < p.NumPlans(); pl++ {
			if q.Cost(pl) != p.Cost(pl) {
				return false
			}
		}
		return reflect.DeepEqual(q.Savings(), p.Savings())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLexerKeysAreJSONTags: Lexer.Problem reads every key MarshalJSON
// writes, so a field added to problemJSON or savingJSON alone fails here
// rather than sending every problem down the encoding/json path.
func TestLexerKeysAreJSONTags(t *testing.T) {
	for _, c := range []struct {
		keys []string
		typ  reflect.Type
	}{
		{problemKeys, reflect.TypeOf(problemJSON{})},
		{savingKeys, reflect.TypeOf(savingJSON{})},
	} {
		tags := make([]string, c.typ.NumField())
		for i := range tags {
			tags[i], _, _ = strings.Cut(c.typ.Field(i).Tag.Get("json"), ",")
		}
		if !reflect.DeepEqual(c.keys, tags) {
			t.Errorf("Lexer reads keys %q, %v has json keys %q", c.keys, c.typ, tags)
		}
	}
}

func TestReadProblemRejectsGarbage(t *testing.T) {
	if _, err := ReadProblem(bytes.NewBufferString("{")); err == nil {
		t.Error("ReadProblem accepted truncated JSON")
	}
	if _, err := ReadProblem(bytes.NewBufferString(`{"planCosts": [[-1]], "savings": []}`)); err == nil {
		t.Error("ReadProblem accepted negative cost")
	}
}
