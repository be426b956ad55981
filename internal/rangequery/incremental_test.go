package rangequery

import (
	"testing"

	"ldp/internal/freq"

	"ldp/internal/rng"
	"ldp/internal/schema"
)

// TestLevelSlotMapping pins the flat slot space the pipeline's dirty
// bitsets are keyed by: attribute-major level slots matching the
// AccState.Levels wire layout, grid slots by pair index, and -1 for
// every invalid (attribute, depth) combination.
func TestLevelSlotMapping(t *testing.T) {
	col := viewTestCollector(t)
	depths := col.Hierarchy().Depths()
	if got := col.LevelSlots(); got != 2*depths {
		t.Fatalf("LevelSlots = %d, want %d", got, 2*depths)
	}
	if got := col.GridSlots(); got != 1 {
		t.Fatalf("GridSlots = %d, want 1", got)
	}
	for pos, attr := range []int{0, 1} {
		for d := 1; d <= depths; d++ {
			if got, want := col.LevelIndex(attr, d), pos*depths+d-1; got != want {
				t.Errorf("LevelIndex(%d, %d) = %d, want %d", attr, d, got, want)
			}
		}
	}
	for _, bad := range [][2]int{{2, 1}, {-1, 1}, {3, 1}, {0, 0}, {0, depths + 1}} {
		if got := col.LevelIndex(bad[0], bad[1]); got != -1 {
			t.Errorf("LevelIndex(%d, %d) = %d, want -1", bad[0], bad[1], got)
		}
	}

	// Grids disabled: no grid slots, level slots unchanged.
	s, err := schema.New(
		schema.Attribute{Name: "x", Kind: schema.Numeric},
		schema.Attribute{Name: "y", Kind: schema.Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	ng, err := NewCollector(s, 1, Config{Buckets: 16, GridFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	if ng.GridSlots() != 0 {
		t.Fatalf("GridSlots with grids disabled = %d, want 0", ng.GridSlots())
	}
	if ng.LevelSlots() != 2*ng.Hierarchy().Depths() {
		t.Fatal("LevelSlots changed when grids were disabled")
	}
}

// foldTracked folds n randomized reports into st and records which
// level/grid slots they touched — the same event-driven marking the
// pipeline's shards do, from the column index Fold returns, which must be
// the report's LevelIndex or pair.
func foldTracked(t *testing.T, col *Collector, st *AccState, r *rng.Rand, n int, dLevel, dGrid map[int]bool) {
	t.Helper()
	tup := schema.NewTuple(col.Schema())
	for i := 0; i < n; i++ {
		tup.Num[0] = rng.Uniform(r, -1, 1)
		tup.Num[1] = rng.Uniform(r, -0.5, 1)
		rep, err := col.Perturb(tup, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Validate(rep); err != nil {
			t.Fatal(err)
		}
		slot := col.Fold(st, rep)
		if rep.Kind == KindHier {
			if want := col.LevelIndex(rep.Attr, rep.Depth); slot != want {
				t.Fatalf("Fold of attr %d depth %d returned slot %d, want %d", rep.Attr, rep.Depth, slot, want)
			}
			dLevel[slot] = true
		} else {
			if slot != rep.Pair {
				t.Fatalf("Fold of pair %d returned %d", rep.Pair, slot)
			}
			dGrid[slot] = true
		}
	}
}

// TestRebuildViewMatchesView checks the delta-proportional view rebuild:
// given an accurate dirty predicate, RebuildView must answer every query
// bit-exactly like a full View, copy the counts of exactly the dirty
// slots into fresh underived slots, and carry every clean slot over from
// the previous view — estimates a read already derived included.
func TestRebuildViewMatchesView(t *testing.T) {
	col := viewTestCollector(t)
	st := col.NewState()
	r := rng.New(23)
	dL, dG := map[int]bool{}, map[int]bool{}
	foldTracked(t, col, st, r, 3000, dL, dG)
	prev := col.View(st)
	// Derive a few slots of prev, so carried slots bring estimates along.
	readAll(t, prev)

	// A fresh delta touching only depths 1 and 2 of attribute 0's
	// hierarchy: perturb tuples and keep only the reports routed there.
	dL, dG = map[int]bool{}, map[int]bool{}
	tup := schema.NewTuple(col.Schema())
	added := 0
	for added < 40 {
		tup.Num[0] = rng.Uniform(r, -1, 1)
		tup.Num[1] = rng.Uniform(r, -0.5, 1)
		rep, err := col.Perturb(tup, r)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Kind != KindHier || rep.Attr != 0 || rep.Depth > 2 {
			continue
		}
		if err := add(col, st, rep); err != nil {
			t.Fatal(err)
		}
		dL[col.LevelIndex(rep.Attr, rep.Depth)] = true
		added++
	}

	got := col.RebuildView(prev, st, func(li int) bool { return dL[li] }, func(p int) bool { return dG[p] })
	assertCarriedOrCopied(t, col, st, prev, got, dL, dG)
	if got.Hier(0) == prev.Hier(0) || got.Hier(0).levels[2] != prev.Hier(0).levels[2] {
		t.Error("attribute 0 was not rebuilt around its clean depths")
	}
	// Attribute 1 saw no reports: its whole HierView is the previous one.
	if got.Hier(1) != prev.Hier(1) {
		t.Error("clean attribute's HierView was rebuilt, not carried")
	}
	assertViewsIdentical(t, got, col.View(st))

	// A mixed delta dirties levels of both attributes and the grid.
	prev = got
	readAll(t, prev)
	dL, dG = map[int]bool{}, map[int]bool{}
	foldTracked(t, col, st, r, 60, dL, dG)
	if !dG[0] {
		t.Fatal("mixed delta missed the grid; pick another seed")
	}
	got = col.RebuildView(prev, st, func(li int) bool { return dL[li] }, func(p int) bool { return dG[p] })
	assertCarriedOrCopied(t, col, st, prev, got, dL, dG)
	assertViewsIdentical(t, got, col.View(st))

	// A view holds copies: folding more reports moves none of its answers.
	before := col.View(st)
	foldTracked(t, col, st, r, 200, map[int]bool{}, map[int]bool{})
	assertViewsIdentical(t, got, before)

	// A nil prev copies every slot.
	full := col.RebuildView(nil, st, nil, nil)
	if lv, gv := derivedSlots(full); len(lv)+len(gv) != 0 {
		t.Fatalf("RebuildView(nil, ...) built derived slots: levels %v grids %v", lv, gv)
	}
	assertViewsIdentical(t, full, col.View(st))
}

// assertCarriedOrCopied checks every slot of a rebuilt view against the
// dirty sets: a dirty slot is a fresh, underived copy of st's current
// column; a clean slot is prev's slot itself, derived or not.
func assertCarriedOrCopied(t *testing.T, col *Collector, st *AccState, prev, got *View, dL, dG map[int]bool) {
	t.Helper()
	depths := col.Hierarchy().Depths()
	for pos, attr := range col.numeric {
		for d := 0; d < depths; d++ {
			li := pos*depths + d
			gs, ps := got.Hier(attr).levels[d], prev.Hier(attr).levels[d]
			if !dL[li] {
				if gs != ps {
					t.Errorf("clean level slot %d was copied, not carried", li)
				}
				continue
			}
			if gs == ps {
				t.Errorf("dirty level slot %d was carried, not copied", li)
			}
			if gs.est.Load() != nil {
				t.Errorf("dirty level slot %d was derived at build", li)
			}
			assertSlotCounts(t, gs, &st.Levels[li])
		}
	}
	for p := range col.pairs {
		gs, ps := got.GridFor(p), prev.GridFor(p)
		if !dG[p] {
			if gs != ps {
				t.Errorf("clean grid %d was copied, not carried", p)
			}
			continue
		}
		if gs == ps || gs.s.est.Load() != nil {
			t.Errorf("dirty grid %d: carried=%v derived=%v", p, gs == ps, gs.s.est.Load() != nil)
		}
		assertSlotCounts(t, gs.s, &st.Grids[p])
	}
}

// assertSlotCounts checks a slot holds a copy of column cs's current
// counts, not the column itself.
func assertSlotCounts(t *testing.T, s *slot, cs *freq.CountState) {
	t.Helper()
	if s.counts.N() != cs.N || s.counts.Len() != len(cs.Counts) {
		t.Fatalf("slot n/len %d/%d, column %d/%d", s.counts.N(), s.counts.Len(), cs.N, len(cs.Counts))
	}
	for i, c := range cs.Counts {
		if s.counts.Count(i) != c {
			t.Fatalf("slot count[%d] %v, column %v", i, s.counts.Count(i), c)
		}
	}
}
