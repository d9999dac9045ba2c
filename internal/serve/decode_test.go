package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"incranneal/internal/mqo"
	"incranneal/internal/workload"
)

// sweepBody is a serve-mixed request: a queries×ppq GenerateSweep problem
// with the options the benchmark sends.
func sweepBody(tb testing.TB, queries, ppq int) []byte {
	tb.Helper()
	in, err := workload.GenerateSweep(workload.SweepConfig{
		Queries: queries, PPQ: ppq, Communities: 4,
		DensityLow: 0.05, DensityHigh: 0.8, Seed: int64(queries),
	})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := json.Marshal(in.Problem)
	if err != nil {
		tb.Fatal(err)
	}
	return fmt.Appendf(nil, `{"problem":%s,"options":{"runs":8,"totalSweeps":%d,"seed":%d}}`, p, 100*queries*ppq, queries)
}

// referenceDecode is how handleSolve decoded a body before it read the
// body whole.
func referenceDecode(body []byte) (*SolveRequest, error) {
	var req SolveRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return &req, err
}

// jsonKeys returns the json names of t's fields, in field order.
func jsonKeys(t reflect.Type) []string {
	keys := make([]string, t.NumField())
	for i := range keys {
		keys[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	return keys
}

// TestClientShapesTakeFastPath: the bodies real clients send are read by
// decodeRequest itself, not by the encoding/json fallback, and decode to
// what encoding/json decodes. decodeRequest reads every key of
// SolveRequest and SolveOptions, so a field added to either alone fails
// here rather than sending its requests down the slow path.
func TestClientShapesTakeFastPath(t *testing.T) {
	if got, want := requestKeys, jsonKeys(reflect.TypeOf(SolveRequest{})); !reflect.DeepEqual(got, want) {
		t.Errorf("requestKeys = %q, SolveRequest's json keys %q", got, want)
	}
	if got, want := optionKeys, jsonKeys(reflect.TypeOf(SolveOptions{})); !reflect.DeepEqual(got, want) {
		t.Errorf("optionKeys = %q, SolveOptions' json keys %q", got, want)
	}
	p := testProblem(t, 41)
	cases := []struct {
		name string
		body string
	}{
		// What the benchmark and the tests send: struct order, every
		// option set.
		{"json.Marshal(SolveRequest)", mustJSON(t, SolveRequest{Problem: p, Options: SolveOptions{
			Device: "da", Strategy: "parallel", Runs: 4, TotalSweeps: 4000, Seed: -9,
			Capacity: 64, DeadlineMillis: 30000, DisableDSS: true, Priority: "high",
		}, Stream: true})},
		// examples/serving marshals a map: options, keys sorted, before
		// problem.
		{"examples/serving map", mustJSON(t, map[string]any{
			"problem": p,
			"options": map[string]any{"runs": 4, "totalSweeps": 4000, "seed": int64(100)},
		})},
		// Python's json.dump, as CI's journal-replay smoke sends it:
		// ", " and ": " separators, floats in Python's repr.
		{"python json.dump", `{"problem": {"name": "mqo-q2-ppq2", "planCosts": [[10.0, 2.5], [3, 1e-07]], ` +
			`"savings": [{"p1": 0, "p2": 2, "value": 1e-07}, {"p1": 1, "p2": 3, "value": 10.0}]}, ` +
			`"options": {"runs": 8, "totalSweeps": 400000, "seed": 11}}`},
	}
	for _, c := range cases {
		got, ok := decodeRequest([]byte(c.body))
		if !ok {
			t.Errorf("%s: the fast path refused %s", c.name, c.body)
			continue
		}
		want, err := referenceDecode([]byte(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fast path decoded %+v, encoding/json %+v", c.name, got, want)
		}
	}
}

// FuzzDecodeRequest: for any body, readRequest and the encoding/json
// decode handleSolve used before either both fail with the same message
// or both succeed with deeply equal requests, the Problem's internals and
// name included.
func FuzzDecodeRequest(f *testing.F) {
	var paper bytes.Buffer
	if err := mqo.WriteProblem(&paper, mqo.PaperExample()); err != nil {
		f.Fatal(err)
	}
	small := `{"planCosts":[[1],[2]],"savings":[{"p1":0,"p2":1,"value":3}]}`
	// FuzzReadProblem's seeds, in an envelope.
	for _, p := range []string{
		paper.String(),
		`{"planCosts":[[1,2]],"savings":[]}`,
		small,
		`{`,
		`{"planCosts":[[-1]],"savings":[]}`,
		`{"planCosts":[[1]],"planCosts":[[2],[3]],"savings":[]}`,
	} {
		f.Add([]byte(`{"problem":` + p + `,"options":{"runs":2,"seed":5}}`))
	}
	f.Add(sweepBody(f, 32, 6))
	pretty, err := json.MarshalIndent(SolveRequest{Problem: mqo.PaperExample(), Options: SolveOptions{Runs: 3}}, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pretty)
	for _, body := range []string{
		``,
		`{}`,
		`{"problem":` + small + `}`,
		`{"Problem":` + small + `}`,
		`{"problem":` + small + `,"options":{"Runs":3}}`,
		`{"problem":` + small + `,"problem":{"planCosts":[[4],[5]],"savings":[]}}`,
		`{"problem":null}`,
		`{"problem":` + small + `,"options":null}`,
		`{"problem":` + small + `,"options":{"runs":1.5}}`,
		`{"problem":` + small + `,"options":{"seed":1e400}}`,
		`{"problem":` + small + `,"options":{"runs":-0,"seed":9223372036854775808}}`,
		`{"problem":{"planCosts":[[-0]],"savings":[]}}`,
		`{"problem":{"planCosts":[[1],[2]],"savings":[{"p1":0,"p2":1,"value":-0}]}}`,
		`{"problem":{"planCosts":[[01],[2]],"savings":[]}}`,
		`{"problem":` + small + `,"options":{"runs":007}}`,
		`{"problem":{"planCosts":[[1e400],[2]],"savings":[]}}`,
		`{"problem":{"name":"café","planCosts":[[1],[2]],"savings":[]}}`,
		`{"problem":{"name":"caf\u00e9","planCosts":[[1],[2]],"savings":[]}}`,
		`{"pro\u0062lem":` + small + `}`,
		`{"problem":{"planCosts":[[1],[2]],"sav\u0069ngs":[]}}`,
		`{"problem":` + small + `} trailing`,
		`{"problem":` + small + `}{}`,
		`{"problem":` + small + `}` + "\n\t ",
		`{"problem":` + small + `,"extra":1}`,
		`{"problem":{"planCosts":[[1],[2]],"savings":[],"extra":[]}}`,
		`{"problem":` + small + `,"options":{"bogus":true}}`,
		`{"problem":` + small + `,"stream":1}`,
		`{"problem":` + small + `,"stream":true,"options":{"disableDss":false,"priority":"low","device":"sa"}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := readRequest(httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		want, wantErr := referenceDecode(body)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("readRequest error %v, encoding/json error %v", err, wantErr)
		case err != nil:
			if err.Error() != wantErr.Error() {
				t.Fatalf("readRequest error %q, encoding/json error %q", err, wantErr)
			}
		case !reflect.DeepEqual(got, want):
			t.Fatalf("readRequest decoded %+v, encoding/json %+v", got, want)
		}
	})
}

// TestReadRequestReadError: when reading the body fails, readRequest
// decodes as the streaming decoder did, from the bytes that arrived and
// then the error: a cut-off object fails with the read error, and a
// complete one still decodes.
func TestReadRequestReadError(t *testing.T) {
	broken := errors.New("connection reset")
	failing := func(s string) io.Reader { return io.MultiReader(strings.NewReader(s), errReader{broken}) }
	for _, body := range []string{
		`{"problem":{"planCosts":[[1],[2]]`,
		`{"problem":{"planCosts":[[1],[2]],"savings":[]},"options":{"seed":3}}`,
	} {
		got, err := readRequest(httptest.NewRequest(http.MethodPost, "/v1/solve", failing(body)))
		var want SolveRequest
		wantErr := json.NewDecoder(iotest.OneByteReader(failing(body))).Decode(&want)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil && !reflect.DeepEqual(got, &want)) {
			t.Errorf("%s: readRequest gave %+v, %v; the streaming decoder %+v, %v", body, got, err, &want, wantErr)
		}
	}
}

// BenchmarkDecodeRequest reads and decodes the two serve-mixed request
// sizes: 32×6 (192 plan variables) and 96×6 (576).
func BenchmarkDecodeRequest(b *testing.B) {
	for _, queries := range []int{32, 96} {
		body := sweepBody(b, queries, 6)
		b.Run(fmt.Sprintf("vars=%d", queries*6), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
				if _, err := readRequest(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
