package mqo

import (
	"bytes"
	"math/rand"
	"reflect"
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

func TestReadProblemRejectsGarbage(t *testing.T) {
	if _, err := ReadProblem(bytes.NewBufferString("{")); err == nil {
		t.Error("ReadProblem accepted truncated JSON")
	}
	if _, err := ReadProblem(bytes.NewBufferString(`{"planCosts": [[-1]], "savings": []}`)); err == nil {
		t.Error("ReadProblem accepted negative cost")
	}
}
