package rangequery

// Incremental view maintenance support. The sharded pipeline keeps, per
// shard, dirty bits over a flat slot space of range-query components —
// one slot per (numeric attribute, hierarchy depth) pair and one per 2-D
// grid — so that a view rebuild copies only the slots whose support counts
// actually changed since the previous view. The slot layout is attribute-
// major and is AccState's own: Levels[numPos[attr]*Depths() + depth-1]
// for hierarchy levels, and Grids[pair] for grids.

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

// RebuildView builds a query view of st that copies the counts of only
// the slots the dirty predicates flag and carries every other slot over
// from prev as it stands, with its estimate if a read has already derived
// it. A hierarchy with no dirty depth is carried whole. The copy is
// proportional to the ingest delta's footprint, and no slot is derived
// until a query reads it. A nil prev copies every slot (the predicates
// are then ignored). The caller must exclude concurrent folds into st for
// the duration of the call and must pass predicates consistent with st's
// actual changes since prev was built — a slot reported clean is served
// from prev verbatim.
func (c *Collector) RebuildView(prev *View, st *AccState, dirtyLevel, dirtyGrid func(int) bool) *View {
	v := &View{col: c, n: st.N, hier: make([]*HierView, c.disc.src.Dim())}
	for pos, attr := range c.numeric {
		var pv *HierView
		if prev != nil {
			pv = prev.hier[attr]
		}
		v.hier[attr] = c.rebuildHier(pv, st, pos*c.hier.depths, dirtyLevel)
	}
	if c.grid != nil {
		v.grids = make([]*GridView, len(st.Grids))
		for p := range st.Grids {
			if prev != nil && !dirtyGrid(p) {
				v.grids[p] = prev.grids[p]
			} else {
				v.grids[p] = &GridView{cells: c.grid.cells, s: newSlot(c.grid.oracle, &st.Grids[p])}
			}
		}
	}
	return v
}

// rebuildHier is RebuildView for the hierarchy whose level slots start at
// flat index base: prev's depths carry over wherever dirtyLevel reports
// no change, and with no dirty depth prev itself is returned. A nil prev
// copies every depth.
func (c *Collector) rebuildHier(prev *HierView, st *AccState, base int, dirtyLevel func(int) bool) *HierView {
	depths := c.hier.depths
	if prev != nil {
		d := 0
		for d < depths && !dirtyLevel(base+d) {
			d++
		}
		if d == depths {
			return prev
		}
	}
	v := &HierView{buckets: c.hier.buckets, levels: make([]*slot, depths)}
	for d := range v.levels {
		if prev != nil && !dirtyLevel(base+d) {
			v.levels[d] = prev.levels[d]
		} else {
			v.levels[d] = newSlot(c.hier.oracles[d], &st.Levels[base+d])
		}
	}
	return v
}
