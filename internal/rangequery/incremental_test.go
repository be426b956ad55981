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

// foldTracked folds n randomized reports into acc and records which
// level/grid slots they touched — the same event-driven marking the
// pipeline's shards do.
func foldTracked(t *testing.T, acc *Accumulator, r *rng.Rand, n int, dLevel, dGrid map[int]bool) {
	t.Helper()
	col := acc.Collector()
	tup := schema.NewTuple(col.Schema())
	for i := 0; i < n; i++ {
		tup.Num[0] = rng.Uniform(r, -1, 1)
		tup.Num[1] = rng.Uniform(r, -0.5, 1)
		rep, err := col.Perturb(tup, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.Add(rep); err != nil {
			t.Fatal(err)
		}
		if rep.Kind == KindHier {
			dLevel[col.LevelIndex(rep.Attr, rep.Depth)] = true
		} else {
			dGrid[rep.Pair] = true
		}
	}
}

// assertAccCountsIdentical compares two accumulators' raw support and
// reporter counts bit for bit across every level and grid slot.
func assertAccCountsIdentical(t *testing.T, got, want *Accumulator) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("N: got %d, want %d", got.N(), want.N())
	}
	depths := want.col.hier.depths
	for _, attr := range want.col.numeric {
		for d := 0; d < depths; d++ {
			ge, we := got.hier[attr].levels[d], want.hier[attr].levels[d]
			if ge.N() != we.N() {
				t.Fatalf("attr %d depth %d: n %d != %d", attr, d+1, ge.N(), we.N())
			}
			gc, wc := ge.Counts(), we.Counts()
			for i := range wc {
				if gc[i] != wc[i] {
					t.Fatalf("attr %d depth %d count[%d]: %v != %v", attr, d+1, i, gc[i], wc[i])
				}
			}
		}
	}
	for p := range want.grids {
		ge, we := got.grids[p].inner, want.grids[p].inner
		if ge.N() != we.N() {
			t.Fatalf("grid %d: n %d != %d", p, ge.N(), we.N())
		}
		gc, wc := ge.Counts(), we.Counts()
		for i := range wc {
			if gc[i] != wc[i] {
				t.Fatalf("grid %d count[%d]: %v != %v", p, i, gc[i], wc[i])
			}
		}
	}
}

// TestSyncDeltaMatchesDirect drives the shard-side sync primitives the
// way the pipeline does — two live shards, per-shard baselines, one
// aggregate, multiple rounds syncing only the slots each round's reports
// touched — and checks the aggregate stays bit-identical to an
// accumulator that folded every report directly.
func TestSyncDeltaMatchesDirect(t *testing.T) {
	col := viewTestCollector(t)
	shards := []*Accumulator{NewAccumulator(col), NewAccumulator(col)}
	bases := []*Accumulator{NewAccumulator(col), NewAccumulator(col)}
	agg := NewAccumulator(col)

	r := rng.New(17)
	for round := 0; round < 4; round++ {
		dirtyL := map[int]bool{}
		dirtyG := map[int]bool{}
		// Uneven folds: shard 0 gets reports every round, shard 1 only on
		// even rounds, so some syncs see an untouched shard.
		for si, sh := range shards {
			if si == 1 && round%2 == 1 {
				continue
			}
			perL, perG := map[int]bool{}, map[int]bool{}
			foldTracked(t, sh, r, 50+25*round, perL, perG)
			for li := range perL {
				dirtyL[li] = true
			}
			for p := range perG {
				dirtyG[p] = true
			}
		}
		// Sync only the dirty slots, every shard (clean shards contribute
		// zero deltas, which SyncDelta skips slot by slot).
		for si, sh := range shards {
			for li := range dirtyL {
				sh.SyncDeltaLevel(li, bases[si], agg)
			}
			for p := range dirtyG {
				sh.SyncDeltaGrid(p, bases[si], agg)
			}
			sh.SyncDeltaN(bases[si], agg)
		}
		// The reference is a direct merge of the live shards.
		ref := NewAccumulator(col)
		for _, sh := range shards {
			ref.Merge(sh)
		}
		assertAccCountsIdentical(t, agg, ref)
		// Baselines have caught up to the live shards.
		for si := range shards {
			assertAccCountsIdentical(t, bases[si], shards[si])
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
	acc := NewAccumulator(col)
	r := rng.New(23)
	dL, dG := map[int]bool{}, map[int]bool{}
	foldTracked(t, acc, r, 3000, dL, dG)
	prev := acc.View()
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
		if err := acc.Add(rep); err != nil {
			t.Fatal(err)
		}
		dL[col.LevelIndex(rep.Attr, rep.Depth)] = true
		added++
	}

	got := acc.RebuildView(prev, func(li int) bool { return dL[li] }, func(p int) bool { return dG[p] })
	assertCarriedOrCopied(t, acc, prev, got, dL, dG)
	if got.Hier(0) == prev.Hier(0) || got.Hier(0).levels[2] != prev.Hier(0).levels[2] {
		t.Error("attribute 0 was not rebuilt around its clean depths")
	}
	// Attribute 1 saw no reports: its whole HierView is the previous one.
	if got.Hier(1) != prev.Hier(1) {
		t.Error("clean attribute's HierView was rebuilt, not carried")
	}
	assertViewsIdentical(t, got, acc.View())

	// A mixed delta dirties levels of both attributes and the grid.
	prev = got
	readAll(t, prev)
	dL, dG = map[int]bool{}, map[int]bool{}
	foldTracked(t, acc, r, 60, dL, dG)
	if !dG[0] {
		t.Fatal("mixed delta missed the grid; pick another seed")
	}
	got = acc.RebuildView(prev, func(li int) bool { return dL[li] }, func(p int) bool { return dG[p] })
	assertCarriedOrCopied(t, acc, prev, got, dL, dG)
	assertViewsIdentical(t, got, acc.View())

	// A view holds copies: folding more reports moves none of its answers.
	before := acc.View()
	foldTracked(t, acc, r, 200, map[int]bool{}, map[int]bool{})
	assertViewsIdentical(t, got, before)

	// A nil prev copies every slot.
	full := acc.RebuildView(nil, nil, nil)
	if lv, gv := derivedSlots(full); len(lv)+len(gv) != 0 {
		t.Fatalf("RebuildView(nil, ...) built derived slots: levels %v grids %v", lv, gv)
	}
	assertViewsIdentical(t, full, acc.View())
}

// assertCarriedOrCopied checks every slot of a rebuilt view against the
// dirty sets: a dirty slot is a fresh, underived copy of the accumulator's
// current counts; a clean slot is prev's slot itself, derived or not.
func assertCarriedOrCopied(t *testing.T, acc *Accumulator, prev, got *View, dL, dG map[int]bool) {
	t.Helper()
	col := acc.Collector()
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
			assertSlotCounts(t, gs, acc.hier[attr].levels[d])
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
		assertSlotCounts(t, gs.s, acc.grids[p].inner)
	}
}

// assertSlotCounts checks a slot holds the estimator's current counts.
func assertSlotCounts(t *testing.T, s *slot, e *freq.Estimator) {
	t.Helper()
	want := e.CountsView()
	if s.counts.N() != want.N() || s.counts.Len() != want.Len() {
		t.Fatalf("slot n/len %d/%d, estimator %d/%d", s.counts.N(), s.counts.Len(), want.N(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if s.counts.Count(i) != want.Count(i) {
			t.Fatalf("slot count[%d] %v, estimator %v", i, s.counts.Count(i), want.Count(i))
		}
	}
}
