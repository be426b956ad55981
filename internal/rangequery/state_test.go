package rangequery

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ldp/internal/rng"
)

// TestAccStateChecks pins the state surface the pipeline and the fan-in
// tier rely on: NewState is shaped as CheckState demands, CheckState
// rejects every malformed column, SameShape tells states apart by level,
// grid and domain but not by value, and Sub inverts the elementwise sum.
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
		bad := st.Clone()
		tc.mutate(bad)
		if err := col.CheckState(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckState = %v, want an error containing %q", tc.name, err, tc.want)
		}
		if got := st.SameShape(bad); got != tc.sameShape {
			t.Errorf("%s: SameShape = %v, want %v", tc.name, got, tc.sameShape)
		}
	}

	other := col.NewState()
	foldTracked(t, col, other, rng.New(4), 300, map[int]bool{}, map[int]bool{})
	delta, err := sumStates(st, other).Sub(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(delta, other) {
		t.Error("(st + other) - st != other")
	}
	full, err := st.Sub(nil)
	if err != nil || !reflect.DeepEqual(full, st) || &full.Levels[0].Counts[0] == &st.Levels[0].Counts[0] {
		t.Errorf("Sub(nil) is not a deep copy (err %v)", err)
	}
	noGrid, err := NewCollector(col.Schema(), 1, Config{Buckets: 16, GridFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Sub(noGrid.NewState()); err == nil {
		t.Error("Sub accepted a state of another shape")
	}

	// A state of another bucket count has more, and wider, levels.
	wide, err := NewCollector(col.Schema(), 1, Config{Buckets: 32, GridCells: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.SameShape(wide.NewState()) || col.CheckState(wide.NewState()) == nil {
		t.Error("a 32-bucket state passed as a 16-bucket one")
	}
}
