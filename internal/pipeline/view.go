package pipeline

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ldp/internal/rangequery"
)

// defaultIncFrac is the default crossover threshold of WithIncrementalView:
// a rebuild whose delta exceeds this fraction of the watermark falls back
// to a full sync.
const defaultIncFrac = 0.25

// viewCache memoizes one immutable Result behind an atomic pointer: the
// read half of the pipeline's epoch machinery. A query loads the pointer,
// checks the lock-free ingest watermark against the staleness bound, and
// serves the cached result without touching a single shard lock; only
// when the watermark has moved past the bound (or the view has aged out)
// does one query rebuild, single-flight — a stampede of concurrent
// queries triggers at most one Snapshot, with the others serving the
// previous view until the fresh one lands.
type viewCache struct {
	cur atomic.Pointer[Result]
	seq atomic.Uint64 // build counter; stamped into Result.epoch

	// mu serializes rebuilds (single-flight). It is never taken on the
	// cached-hit path.
	mu sync.Mutex

	// maxStale is how many reports the cached view may trail the ingest
	// watermark before a query rebuilds it (0 = any ingest invalidates);
	// maxAge is the wall-clock analogue (0 = no age bound).
	maxStale int64
	maxAge   time.Duration

	// Incremental-rebuild state, all touched only by the builder under mu.
	// incFrac is the WithIncrementalView crossover (<= 0 disables); base
	// holds one sync point per shard; aggRange is the running cross-shard
	// sum of the range columns, synced in place, that every published view
	// copies its dirty slots from.
	// The bitsets are per-build scratch: the unions of the shards' dirty
	// bits (uFreq/uJoint by attribute, uLevel/uGrid by slot) and the
	// copy-on-write markers of the two count-column families.
	incFrac  float64
	slab     shellSlab
	base     []shardBaseline
	aggRange *rangequery.AccState
	uFreq    bitset
	uJoint   bitset
	uLevel   bitset
	uGrid    bitset
	cpF      bitset
	cpJ      bitset
}

// shellSlabSize is how many Result shells one slab refill allocates: large
// enough to amortize the five block mallocs across many rebuilds, small
// enough that a caller retaining one Result pins only a few kilobytes of
// neighbouring shells (never their count columns, which are not slabbed).
const shellSlabSize = 32

// shellSlab hands out Result shells carved from blocks allocated a slab at
// a time, so a rebuild does not pay one allocation per state slice.
// Only the single-flight builder touches it (under view.mu), so it needs
// no lock; make() zeroes the blocks, and each shell region is handed out
// exactly once, so popped shells are always pristine.
type shellSlab struct {
	res   []Result
	sums  []float64
	cols  [][]float64
	ns    []int64
	cache []atomic.Pointer[[]float64]
}

// shardBaseline is the incremental builder's per-shard sync point: a copy
// of exactly the state of that shard the cached aggregate already folded
// in. The invariant the dirty bits encode — bit clear implies baseline
// equals the shard's live counts for that component — is maintained by
// setting bits on every fold event and clearing them only after a sync
// under the same shard lock.
type shardBaseline struct {
	// st holds verbatim copies of the shard's counters, float sums, and
	// reporter counts at the last sync, and its support counts as of each
	// column's last sync. The builder re-sums the scalars in shard order
	// for every rebuild, which is bit-identical to sumShards over the live
	// shards (a skipped shard's copies equal its live state), while costing
	// clean shards no lock acquisition. Its range columns, like its support
	// counts, are as of each column's last sync.
	st AggState

	// epoch is the shard's epoch counter at the last sync. Every fold
	// path bumps the shard epoch under the shard lock together with
	// setting dirty bits, and every sync captures it under the same lock
	// while clearing them — so an unchanged epoch proves the shard saw no
	// fold since the last sync and the whole visit (lock included) can be
	// skipped: the baseline is still exact.
	epoch int64
}

// WithQueryStaleness bounds how stale the cached query view (Pipeline.View)
// may get before a query rebuilds it: a cached view is served as long as
// it trails the ingest watermark by at most `reports` reports AND is
// younger than maxAge (0 disables the age bound). The default bound is 0
// reports — the cached view is served only while no new report has been
// folded, so an uncontended query is exact — which already collapses a
// query stampede on an idle aggregator to one snapshot. Servers answering
// heavy dashboard traffic under full-rate ingest should set a real bound
// (say, 10k reports or 1s): estimates over millions of reports move by
// O(1/n) per report, so bounded staleness is statistically invisible while
// making the steady-state query cost a single atomic load.
//
// One exception to the bound: while a rebuild is in flight, concurrent
// View calls return the previous view (whatever its trail) instead of
// queueing behind the snapshot — availability over exactness for the
// duration of one rebuild. Callers that need a point-in-time-exact result
// regardless of concurrent ingest should call Snapshot directly.
func WithQueryStaleness(reports int64, maxAge time.Duration) Option {
	return func(c *config) error {
		if reports < 0 {
			return fmt.Errorf("pipeline: query staleness must be >= 0 reports, got %d", reports)
		}
		if maxAge < 0 {
			return fmt.Errorf("pipeline: query max age must be >= 0, got %v", maxAge)
		}
		c.staleReports = reports
		c.staleAge = maxAge
		return nil
	}
}

// WithIncrementalView tunes the crossover of incremental view rebuilds:
// when a cached view exists and the ingest delta since it is at most
// maxDeltaFrac of the total watermark, the rebuild folds only the dirty
// shards' count deltas into the previous view's immutable state —
// copying only the count columns, hierarchy levels and grids that
// actually changed, and carrying every other range slot over with any
// estimate a read already derived — instead of re-summing the whole
// domain. Every range slot is derived on its first read in a view, so
// the rebuild itself derives nothing. Estimates are unaffected: an
// incremental view is bit-identical to the full snapshot at the same
// watermark.
// maxDeltaFrac must be in [0, 1]; 0 disables incremental maintenance
// entirely (every rebuild is a full snapshot). The default without this
// option is 0.25.
func WithIncrementalView(maxDeltaFrac float64) Option {
	return func(c *config) error {
		if math.IsNaN(maxDeltaFrac) || maxDeltaFrac < 0 || maxDeltaFrac > 1 {
			return fmt.Errorf("pipeline: incremental view fraction must be in [0,1], got %v", maxDeltaFrac)
		}
		c.incFrac = maxDeltaFrac
		c.incSet = true
		return nil
	}
}

// View returns a point-in-time Result, served from the epoch cache when it
// is within the configured staleness bound (see WithQueryStaleness) and
// rebuilt single-flight otherwise; while one caller rebuilds, concurrent
// callers serve the previous view even past the bound rather than block
// (see the exception note on WithQueryStaleness). The cached-hit path is
// lock-free and allocation-free: one atomic pointer load plus one atomic
// load per shard for the watermark check. The returned Result is immutable
// and safe for concurrent use; successive rebuilds carry strictly
// increasing Epoch values, so transports can key response caches (and
// HTTP ETags) on it.
func (p *Pipeline) View() *Result {
	if v := p.view.cur.Load(); v != nil && p.viewFresh(v) {
		p.met.viewHits.Inc()
		return v
	}
	return p.refreshView()
}

// viewFresh reports whether a cached result is still within the staleness
// bound. It allocates nothing.
func (p *Pipeline) viewFresh(v *Result) bool {
	if p.view.maxAge > 0 && time.Since(v.built) > p.view.maxAge {
		return false
	}
	return p.Watermark()-v.Watermark() <= p.view.maxStale
}

// refreshView rebuilds the cached view single-flight. Losers of the build
// race serve the previous view rather than pile up behind the builder;
// they block only when there is no view at all yet.
func (p *Pipeline) refreshView() *Result {
	if !p.view.mu.TryLock() {
		// Another query is already snapshotting. Anything cached is at
		// worst one rebuild behind — serve it instead of stampeding.
		if v := p.view.cur.Load(); v != nil {
			p.met.viewLosers.Inc()
			return v
		}
		p.view.mu.Lock()
	}
	defer p.view.mu.Unlock()
	// The builder we waited on (or a freshness race winner) may have
	// stored a result that is already fresh enough.
	if v := p.view.cur.Load(); v != nil && p.viewFresh(v) {
		p.met.viewHits.Inc()
		return v
	}
	// The start timestamp is taken only when the rebuild histogram is
	// live, so the telemetry-disabled rebuild path skips the clock reads.
	var start time.Time
	if p.met.rebuild != nil {
		start = time.Now()
	}
	res := p.buildView()
	res.epoch = p.view.seq.Add(1)
	// The build timestamp only feeds the wall-clock staleness bound, so
	// pipelines without one (the default) skip the clock read per rebuild.
	if p.view.maxAge > 0 {
		res.built = time.Now()
	}
	p.view.cur.Store(res)
	p.met.viewMisses.Inc()
	p.met.rebuild.ObserveSince(start)
	return res
}

// buildView materializes the next cached view. With incremental
// maintenance disabled it is a plain full snapshot; otherwise it routes
// through buildSync, choosing the incremental path when a previous view
// exists and the ingest delta since it is within the crossover fraction.
// The caller holds view.mu (rebuilds are single-flight).
func (p *Pipeline) buildView() *Result {
	vc := &p.view
	if vc.incFrac <= 0 {
		p.met.rebuildFull.Inc()
		return p.Snapshot()
	}
	p.ensureBuilderState()
	prev := vc.cur.Load()
	full := prev == nil
	if !full {
		wm := p.Watermark()
		if delta := wm - prev.Watermark(); float64(delta) > vc.incFrac*float64(wm) {
			full = true
		}
	}
	return p.buildSync(prev, full)
}

// ensureBuilderState lazily allocates the incremental builder's per-shard
// baselines, running aggregate, and scratch bitsets. The caller holds
// view.mu; the state lives for the pipeline's lifetime once created.
func (p *Pipeline) ensureBuilderState() {
	vc := &p.view
	if vc.base != nil {
		return
	}
	d := p.sch.Dim()
	vc.base = make([]shardBaseline, len(p.shards))
	for i := range vc.base {
		vc.base[i].st = *p.newAggState()
	}
	if p.rangeT != nil {
		vc.aggRange = p.rangeT.col.NewState()
		vc.uLevel = newBits(p.rangeT.col.LevelSlots())
		vc.uGrid = newBits(p.rangeT.col.GridSlots())
	}
	if p.freq != nil {
		vc.uFreq = newBits(d)
		vc.cpF = newBits(d)
	}
	if p.joint.oracles != nil {
		vc.uJoint = newBits(d)
		vc.cpJ = newBits(d)
	}
}

// shellShape returns the two dimensions every shell block is sized by: the
// schema dimension and the number of registered count-column families.
func (p *Pipeline) shellShape() (d, fams int) {
	d = p.sch.Dim()
	if p.freq != nil {
		fams++
	}
	if p.joint.oracles != nil {
		fams++
	}
	return d, fams
}

// newResultShellSlab pops one Result shell off the builder's slab,
// refilling it (shellSlabSize shells per refill) when empty. The shell's
// state has its scalar slices and its count-column tables carved from the
// slab; the columns themselves are nil, for buildSync to seed. The caller
// holds view.mu.
func (p *Pipeline) newResultShellSlab() *Result {
	s := &p.view.slab
	if len(s.res) == 0 {
		d, fams := p.shellShape()
		s.res = make([]Result, shellSlabSize)
		s.sums = make([]float64, shellSlabSize*2*d)
		s.cols = make([][]float64, shellSlabSize*fams*d)
		s.ns = make([]int64, shellSlabSize*fams*d)
		s.cache = make([]atomic.Pointer[[]float64], shellSlabSize*d)
	}
	d, fams := p.shellShape()
	res := &s.res[0]
	s.res = s.res[1:]
	sums := s.sums[: 2*d : 2*d]
	s.sums = s.sums[2*d:]
	cols := s.cols[: fams*d : fams*d]
	s.cols = s.cols[fams*d:]
	ns := s.ns[: fams*d : fams*d]
	s.ns = s.ns[fams*d:]
	cache := s.cache[:d:d]
	s.cache = s.cache[d:]
	res.st.MeanSum = sums[:d:d]
	res.st.JointSum = sums[d : 2*d : 2*d]
	if p.freq != nil {
		res.st.FreqCounts, res.st.FreqN = cols[:d:d], ns[:d:d]
		cols, ns = cols[d:], ns[d:]
	}
	if p.joint.oracles != nil {
		res.st.JointCounts, res.st.JointN = cols[:d:d], ns[:d:d]
	}
	p.fillResult(res, cache)
	return res
}

// buildSync builds the next view by folding each shard's delta against the
// builder's per-shard baselines, in one shard-lock hold per shard: the
// scalar counters, float sums, and reporter counts are re-summed in shard
// order (cheap — O(shards x attrs) — and bit-identical to sumShards),
// while the expensive per-value support counts move by baseline delta
// only where dirty bits say something changed. In full mode every
// registered component syncs regardless of bits — the same machinery, so
// the baselines stay current and incremental rebuilds re-arm after any
// fallback. Support counts are integer-valued float64 sums of indicators,
// so baseline-delta arithmetic is exact and an incremental view is
// bit-identical to a full snapshot at the same watermark. Counts sync
// eagerly, the range columns into the running sum aggRange, but estimates
// do not: the range view copies aggRange's dirty levels and grids (every
// slot in full mode) and carries the rest over from prev, and each slot
// derives its estimate on its first read. The caller holds view.mu.
func (p *Pipeline) buildSync(prev *Result, full bool) *Result {
	vc := &p.view
	res := p.newResultShellSlab()
	fresh := prev == nil
	if fresh {
		// The first build has no view to alias: it syncs into zeroed
		// columns.
		full = true
		p.zeroCols(&res.st)
	} else {
		// Seed the count columns aliasing the previous view's; syncFamily
		// copies a column the moment its first delta lands (published
		// views are immutable), and clean columns stay shared.
		copy(res.st.FreqCounts, prev.st.FreqCounts)
		copy(res.st.JointCounts, prev.st.JointCounts)
		vc.cpF.zero()
		vc.cpJ.zero()
	}
	vc.uFreq.zero()
	vc.uJoint.zero()
	vc.uLevel.zero()
	vc.uGrid.zero()
	var rangeNBefore int64
	if vc.aggRange != nil {
		rangeNBefore = vc.aggRange.N
	}
	dirtyShards := 0
	for si, sh := range p.shards {
		base := &vc.base[si]
		// Unchanged epoch ⇒ no fold since the last sync (bump and sync
		// both happen under the shard lock): the baselines are exact and
		// the shard needs no lock at all. A fold racing this lock-free
		// read lands in the next rebuild, exactly as it would have had it
		// arrived just after this shard's lock was released.
		if epoch := sh.epoch.Load(); epoch == base.epoch {
			continue
		}
		sh.mu.Lock()
		base.epoch = sh.epoch.Load()
		b, cur := &base.st, &sh.st
		b.NMean, b.NFreq, b.NJoint, b.NRange = cur.NMean, cur.NFreq, cur.NJoint, cur.NRange
		copy(b.MeanSum, cur.MeanSum)
		copy(b.JointSum, cur.JointSum)
		copy(b.FreqN, cur.FreqN)
		copy(b.JointN, cur.JointN)
		if sh.dFreq.any() || sh.dJoint.any() || sh.dLevel.any() || sh.dGrid.any() {
			dirtyShards++
		}
		syncFamily(full, fresh, sh.dFreq, vc.uFreq, vc.cpF, res.st.FreqCounts, sh.st.FreqCounts, base.st.FreqCounts)
		syncFamily(full, fresh, sh.dJoint, vc.uJoint, vc.cpJ, res.st.JointCounts, sh.st.JointCounts, base.st.JointCounts)
		if rs := sh.st.Range; rs != nil {
			br := base.st.Range
			syncSlots(full, sh.dLevel, vc.uLevel, vc.aggRange.Levels, rs.Levels, br.Levels)
			syncSlots(full, sh.dGrid, vc.uGrid, vc.aggRange.Grids, rs.Grids, br.Grids)
			// Unconditional: a merged state can move the report count
			// without moving any column.
			vc.aggRange.N += rs.N - br.N
			br.N = rs.N
		}
		sh.dFreq.zero()
		sh.dJoint.zero()
		sh.dLevel.zero()
		sh.dGrid.zero()
		sh.mu.Unlock()
	}
	// Scalars re-sum from the baselines serially in shard order — the
	// same values in the same order as sumShards over the live shards, so
	// the float sums are bit-identical.
	for bi := range vc.base {
		res.st.addScalars(&vc.base[bi].st)
	}
	if vc.aggRange != nil {
		switch {
		case full || prev.rangeView == nil:
			res.rangeView = p.rangeT.col.View(vc.aggRange)
		case !vc.uLevel.any() && !vc.uGrid.any() && vc.aggRange.N == rangeNBefore:
			// Not a single range report arrived since the previous view
			// (every range fold bumps the reporter count), so the previous
			// range view is exact as-is — no per-slot walk, no allocation.
			res.rangeView = prev.rangeView
		default:
			res.rangeView = p.rangeT.col.RebuildView(prev.rangeView, vc.aggRange, vc.uLevel.get, vc.uGrid.get)
		}
	}
	if !full {
		// Forward the memoized debias results of untouched attributes:
		// their inputs are unchanged, so the cached combined estimates are
		// still exact and the first query per attribute stays a lookup.
		for j := range p.attrMeta {
			if p.attrMeta[j].numeric || vc.uFreq.get(j) || vc.uJoint.get(j) {
				continue
			}
			if ptr := prev.freqCache[j].Load(); ptr != nil {
				res.freqCache[j].Store(ptr)
			}
		}
	}
	if full {
		p.met.rebuildFull.Inc()
	} else {
		p.met.rebuildInc.Inc()
		p.met.dirtyShards.Observe(int64(dirtyShards))
		p.met.dirtyComps.Observe(int64(vc.uFreq.count() + vc.uJoint.count() +
			vc.uLevel.count() + vc.uGrid.count()))
	}
	return res
}

// syncFamily folds one shard's count-column deltas for one oracle family
// into the result and advances the shard's baselines to match (syncCols
// picks the columns). A result column still aliasing the previous view is
// copied before its first change. The caller holds the shard lock.
func syncFamily(full, fresh bool, dirty, union, copied bitset, resCols, shCols, baseCols [][]float64) {
	syncCols(full, len(shCols), dirty, union, func(j int) {
		if shCols[j] == nil {
			return
		}
		cow := !fresh && !copied.get(j)
		if dst, moved := syncCol(resCols[j], baseCols[j], shCols[j], cow); moved && cow {
			resCols[j] = dst
			copied.set(j)
		}
	})
}

// syncSlots is syncFamily for the range columns: it folds one shard's
// level or grid deltas, reporter counts included, into the builder's
// running sum in place (views copy their slots out of it, so nothing
// aliases it) and advances the shard's baselines to match. The caller
// holds the shard lock.
func syncSlots(full bool, dirty, union bitset, dst, cur, base []rangequery.CountState) {
	syncCols(full, len(cur), dirty, union, func(i int) {
		syncCol(dst[i].Counts, base[i].Counts, cur[i].Counts, false)
		dst[i].N += cur[i].N - base[i].N
		base[i].N = cur[i].N
	})
}

// syncCols calls sync for each column of one family that a build syncs:
// all n of them in full mode, otherwise only the shard's dirty ones, which
// accumulate into the build's union set. Union bits gate debias-cache
// forwarding and range-slot copies, so they are set for every event-dirty
// column even when its count delta turns out to be zero — the reporter
// count still moved.
func syncCols(full bool, n int, dirty, union bitset, sync func(int)) {
	if full {
		for i := 0; i < n; i++ {
			sync(i)
		}
		return
	}
	dirty.forEach(func(i int) {
		union.set(i)
		sync(i)
	})
}

// syncCol adds the delta cur - base of one count column into dst and
// advances base to match cur, touching only the entries that moved, so
// its cost beyond the scan is proportional to the delta's support. With
// cow set, dst is copied before its first write (it may still alias a
// published view). It returns the column written to and whether any
// entry moved. Support counts are integer-valued float64 sums of 0/1
// indicators, so the delta arithmetic is exact: after any interleaving of
// syncs, dst holds the same bits as a direct sum of the shards.
func syncCol(dst, base, cur []float64, cow bool) ([]float64, bool) {
	moved := false
	for v, c := range cur {
		if delta := c - base[v]; delta != 0 {
			if cow && !moved {
				dst = append([]float64(nil), dst...)
			}
			moved = true
			dst[v] += delta
			base[v] = c
		}
	}
	return dst, moved
}
