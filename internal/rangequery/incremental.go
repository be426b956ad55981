package rangequery

import "ldp/internal/freq"

// Incremental view maintenance support. The sharded pipeline keeps, per
// shard, dirty bits over a flat slot space of range-query components —
// one slot per (numeric attribute, hierarchy depth) pair and one per 2-D
// grid — so that a view rebuild copies only the slots whose support counts
// actually changed since the previous view. The slot layout is attribute-
// major and mirrors AccState.Levels: slot numPos[attr]*Depths() + depth-1
// for hierarchy levels, and the pair index for grids.

// LevelSlots returns the size of the flat hierarchy-level slot space:
// one slot per (numeric attribute, depth) pair.
func (c *Collector) LevelSlots() int { return len(c.numeric) * c.hier.depths }

// GridSlots returns the size of the flat grid slot space: one slot per
// attribute pair, or 0 when grids are disabled.
func (c *Collector) GridSlots() int {
	if c.grid == nil {
		return 0
	}
	return len(c.pairs)
}

// LevelIndex maps a (schema attribute, 1-based depth) pair to its flat
// level slot, or -1 when the attribute is not numeric or the depth is out
// of range.
func (c *Collector) LevelIndex(attr, depth int) int {
	if attr < 0 || attr >= len(c.numPos) || c.numPos[attr] < 0 ||
		depth < 1 || depth > c.hier.depths {
		return -1
	}
	return c.numPos[attr]*c.hier.depths + depth - 1
}

// SyncDeltaLevel folds the support-count delta of one hierarchy level slot
// (a's counts minus base's) into agg and advances base to match a: the
// shard-side half of an incremental rebuild. All three accumulators must
// share a's collector; the caller must exclude concurrent folds into a.
func (a *Accumulator) SyncDeltaLevel(li int, base, agg *Accumulator) {
	depths := a.col.hier.depths
	attr := a.col.numeric[li/depths]
	d := li % depths
	freq.SyncDelta(a.hier[attr].levels[d], base.hier[attr].levels[d], agg.hier[attr].levels[d])
}

// SyncDeltaGrid folds the support-count delta of one 2-D grid slot into
// agg and advances base to match a; see SyncDeltaLevel.
func (a *Accumulator) SyncDeltaGrid(p int, base, agg *Accumulator) {
	freq.SyncDelta(a.grids[p].inner, base.grids[p].inner, agg.grids[p].inner)
}

// SyncDeltaN folds the report-count delta into agg and advances base to
// match a. Unlike the per-slot syncs it is unconditional: a report can
// change an oracle's reporter count without touching any support count
// (an all-zero OUE bitset), so n is synced on every rebuild regardless of
// dirty bits.
func (a *Accumulator) SyncDeltaN(base, agg *Accumulator) {
	if d := a.n - base.n; d != 0 {
		agg.n += d
		base.n = a.n
	}
}

// RebuildView builds a query view of the accumulator that copies the
// counts of only the slots the dirty predicates flag and carries every
// other slot over from prev as it stands, with its estimate if a read has
// already derived it. A hierarchy with no dirty depth is carried whole.
// The copy is proportional to the ingest delta's footprint, and no slot is
// derived until a query reads it. A nil prev copies every slot (the
// predicates are then ignored). The caller must exclude concurrent folds
// for the duration of the call and must pass predicates consistent with
// the accumulator's actual changes since prev — a slot reported clean is
// served from prev verbatim.
func (a *Accumulator) RebuildView(prev *View, dirtyLevel, dirtyGrid func(int) bool) *View {
	depths := a.col.hier.depths
	v := &View{col: a.col, n: a.n, hier: make([]*HierView, a.col.disc.src.Dim())}
	for pos, attr := range a.col.numeric {
		var pv *HierView
		if prev != nil {
			pv = prev.hier[attr]
		}
		v.hier[attr] = a.hier[attr].rebuildView(pv, func(d int) bool { return dirtyLevel(pos*depths + d) })
	}
	if a.grids != nil {
		v.grids = make([]*GridView, len(a.grids))
		for p, g := range a.grids {
			if prev != nil && !dirtyGrid(p) {
				v.grids[p] = prev.grids[p]
			} else {
				v.grids[p] = g.View()
			}
		}
	}
	return v
}
