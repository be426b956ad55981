package freq

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestCountStateHelpers pins the count-column helpers every aggregate
// state is built from: AddCols and SubCols invert each other column by
// column, reporter counts included; CloneCols shares no memory and keeps
// nil lists and empty columns as they are; SameDomains compares lengths
// and domains, never values; Active sees a reporter count or any support
// count.
func TestCountStateHelpers(t *testing.T) {
	a := []CountState{{Counts: []float64{1, 0, 2}, N: 3}, {}, {Counts: []float64{0, 5}, N: 5}}
	b := []CountState{{Counts: []float64{0, 4, 1}, N: 4}, {}, {Counts: []float64{2, 0}, N: 2}}

	sum := CloneCols(a)
	if &sum[0].Counts[0] == &a[0].Counts[0] {
		t.Fatal("CloneCols shares a column with its source")
	}
	if sum[1].Counts != nil || CloneCols(nil) != nil {
		t.Error("CloneCols gave an empty column or a nil list a backing array")
	}
	AddCols(sum, b)
	want := []CountState{{Counts: []float64{1, 4, 3}, N: 7}, {}, {Counts: []float64{2, 5}, N: 7}}
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("AddCols = %v, want %v", sum, want)
	}
	if got := SubCols(sum, b); !reflect.DeepEqual(got, a) {
		t.Fatalf("(a + b) - b = %v, want %v", got, a)
	}
	if SubCols(nil, nil) != nil {
		t.Error("SubCols of a nil list is not nil")
	}

	if !SameDomains(a, b) {
		t.Error("SameDomains rejected lists of equal domains and other values")
	}
	if SameDomains(a, a[:2]) || SameDomains(a, []CountState{a[0], a[1], {Counts: []float64{0, 0, 0}}}) {
		t.Error("SameDomains accepted another length or another domain")
	}

	for _, tc := range []struct {
		c    CountState
		want bool
	}{
		{CountState{}, false},
		{CountState{Counts: []float64{0, 0}}, false},
		{CountState{Counts: []float64{0, 0}, N: 1}, true},
		{CountState{Counts: []float64{0, 1}}, true},
	} {
		if got := tc.c.Active(); got != tc.want {
			t.Errorf("Active(%v) = %v, want %v", tc.c, got, tc.want)
		}
	}
}

// TestCountStateCheck pins the column validator: an exact domain,
// finite non-negative counts, a non-negative reporter count, and nothing
// at all on a domain of 0.
func TestCountStateCheck(t *testing.T) {
	if err := (&CountState{Counts: []float64{1, 2}, N: 2}).Check(2); err != nil {
		t.Fatalf("a valid column fails Check: %v", err)
	}
	if err := (&CountState{}).Check(0); err != nil {
		t.Fatalf("the empty column fails Check(0): %v", err)
	}
	for _, tc := range []struct {
		name   string
		c      CountState
		domain int
		want   string
	}{
		{"short", CountState{Counts: []float64{1}}, 2, "domain 1, want 2"},
		{"counts on an empty domain", CountState{Counts: []float64{1}}, 0, "domain 1, want 0"},
		{"reporters on an empty domain", CountState{N: 5}, 0, "5 reporters on an empty column"},
		{"negative reporters", CountState{Counts: []float64{0, 0}, N: -1}, 2, "negative reporter count"},
		{"negative count", CountState{Counts: []float64{0, -1}}, 2, "negative or non-finite"},
		{"NaN count", CountState{Counts: []float64{math.NaN(), 0}}, 2, "negative or non-finite"},
		{"infinite count", CountState{Counts: []float64{0, math.Inf(1)}}, 2, "negative or non-finite"},
	} {
		if err := tc.c.Check(tc.domain); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
