package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestSelectFigures(t *testing.T) {
	names := []string{"4", "5", "chaos", "ablation"}
	got, err := selectFigures("5, chaos", names)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]bool{"5": true, "chaos": true}; !reflect.DeepEqual(got, want) {
		t.Errorf("selectFigures(5, chaos) = %v, want %v", got, want)
	}
	got, err = selectFigures("all", names)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(names) {
		t.Errorf("selectFigures(all) = %v, want every name", got)
	}
	// A retired or mistyped name must fail loudly, not run nothing.
	for _, spec := range []string{"serve", "nonsense", "4,serve", ""} {
		_, err := selectFigures(spec, names)
		if err == nil {
			t.Errorf("selectFigures(%q) accepted an unknown figure", spec)
			continue
		}
		for _, n := range append(names, "all") {
			if !strings.Contains(err.Error(), n) {
				t.Errorf("selectFigures(%q) error %q does not list %q", spec, err, n)
			}
		}
	}
}
