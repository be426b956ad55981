package rangequery

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ldp/internal/freq"
	"ldp/internal/rng"
)

// TestAccStateChecks pins the state surface the pipeline and the fan-in
// tier rely on: NewState is shaped as CheckState demands, CheckState
// rejects every malformed column, freq.SameDomains tells states apart by
// level, grid and domain but not by value, and freq.SubCols inverts the
// elementwise sum.
func TestAccStateChecks(t *testing.T) {
	col := viewTestCollector(t)
	st := col.NewState()
	foldTracked(t, col, st, rng.New(3), 500, map[int]bool{}, map[int]bool{})
	if err := col.CheckState(st); err != nil {
		t.Fatalf("a folded state fails CheckState: %v", err)
	}
	if err := col.CheckState(nil); err == nil {
		t.Error("CheckState accepted a nil state")
	}
	sameShape := func(a, b *AccState) bool {
		return freq.SameDomains(a.Levels, b.Levels) && freq.SameDomains(a.Grids, b.Grids)
	}
	for _, tc := range []struct {
		name      string
		mutate    func(*AccState)
		want      string
		sameShape bool
	}{
		{"negative N", func(s *AccState) { s.N = -1 }, "negative report count", true},
		{"missing level", func(s *AccState) { s.Levels = s.Levels[1:] }, "hierarchy levels", false},
		{"level domain", func(s *AccState) { s.Levels[3].Counts = s.Levels[3].Counts[:2] }, "domain", false},
		{"negative reporters", func(s *AccState) { s.Levels[0].N = -1 }, "negative reporter count", true},
		{"NaN count", func(s *AccState) { s.Grids[0].Counts[1] = math.NaN() }, "non-finite", true},
		{"extra grid", func(s *AccState) { s.Grids = append(s.Grids, s.Grids[0]) }, "grids", false},
	} {
		bad := cloneState(st)
		tc.mutate(bad)
		if err := col.CheckState(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckState = %v, want an error containing %q", tc.name, err, tc.want)
		}
		if got := sameShape(st, bad); got != tc.sameShape {
			t.Errorf("%s: same shape = %v, want %v", tc.name, got, tc.sameShape)
		}
	}

	other := col.NewState()
	foldTracked(t, col, other, rng.New(4), 300, map[int]bool{}, map[int]bool{})
	sum := sumStates(st, other)
	if !reflect.DeepEqual(freq.SubCols(sum.Levels, st.Levels), other.Levels) ||
		!reflect.DeepEqual(freq.SubCols(sum.Grids, st.Grids), other.Grids) {
		t.Error("(st + other) - st != other")
	}
	noGrid, err := NewCollector(col.Schema(), 1, Config{Buckets: 16, GridFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	if sameShape(st, noGrid.NewState()) {
		t.Error("a state without grids has the shape of one with grids")
	}

	// A state of another bucket count has more, and wider, levels.
	wide, err := NewCollector(col.Schema(), 1, Config{Buckets: 32, GridCells: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sameShape(st, wide.NewState()) || col.CheckState(wide.NewState()) == nil {
		t.Error("a 32-bucket state passed as a 16-bucket one")
	}
}
