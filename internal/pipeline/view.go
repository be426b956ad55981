package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ldp/internal/freq"
	"ldp/internal/rangequery"
)

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

	// Builder state, touched only by the builder under mu: base holds one
	// sync point per shard; agg is the running cross-shard sum of every
	// count column, synced in place, that each published view copies its
	// changed columns and range slots out of (its scalars are unused); union
	// is per-build scratch, the union of the shards' dirty bits by family.
	base  []shardBaseline
	agg   AggState
	union [numFams]bitset
}

// shardBaseline is the view builder's per-shard sync point: a copy
// of exactly the state of that shard the cached aggregate already folded
// in. The invariant the dirty bits encode — bit clear implies baseline
// equals the shard's live counts for that component — is maintained by
// setting bits on every fold event and clearing them only after a sync
// under the same shard lock.
type shardBaseline struct {
	// st holds verbatim copies of the shard's report counters and float
	// sums at the last sync, and its count columns as of each column's last
	// sync. The builder re-sums the scalars in shard order for every
	// rebuild, which is bit-identical to sumShards over the live shards (a
	// skipped shard's copies equal its live state), while costing clean
	// shards no lock acquisition.
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

// WithIncrementalView is a no-op, kept so existing callers compile. Every
// view rebuild folds only the dirty shards' count deltas and copies only
// the changed count columns, hierarchy levels and grids, carrying every
// other one over from the previous view, so there is no crossover
// fraction to tune.
func WithIncrementalView(float64) Option {
	return func(*config) error { return nil }
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

// buildView builds the next cached view. It folds each shard's delta
// against the builder's per-shard baselines, in one shard-lock hold per
// shard: the report counters and float sums are re-summed in shard order
// (cheap — O(shards x attrs) — and bit-identical to sumShards), while the
// per-value support counts move by baseline delta into the running sum
// agg only where dirty bits say a column changed. A clear bit guarantees
// the baseline equals the live column, so on the first build, too, the
// dirty columns are all there is to sync. Support counts are
// integer-valued float64 sums of indicators, so baseline-delta arithmetic
// is exact and the view is bit-identical to Snapshot at the same
// watermark. Counts sync eagerly, estimates do not: the view copies the
// synced freq and joint columns and range slots out of agg (every one of
// them on the first build, which has no previous view), carries every
// other one over from the previous view with any estimate a read already
// derived, and each range slot derives its estimate on its first read.
// The caller holds view.mu.
func (p *Pipeline) buildView() *Result {
	vc := &p.view
	if vc.base == nil {
		vc.base = make([]shardBaseline, len(p.shards))
		for i := range vc.base {
			vc.base[i].st = *p.newAggState()
		}
		vc.agg = *p.newAggState()
		vc.union = newFamBits(&vc.agg)
	}
	for f := range vc.union {
		vc.union[f].zero()
	}
	agg := vc.agg.cols()
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
		if cur.Range != nil {
			// Unconditional: a merged state can move the report count
			// without moving any column.
			vc.agg.Range.N += cur.Range.N - b.Range.N
			b.Range.N = cur.Range.N
		}
		bc, cc := b.cols(), cur.cols()
		dirty := false
		for f := range sh.dirty {
			sh.dirty[f].forEach(func(i int) {
				dirty = true
				vc.union[f].set(i)
				syncCol(&agg[f][i], &bc[f][i], &cc[f][i])
			})
			sh.dirty[f].zero()
		}
		if dirty {
			dirtyShards++
		}
		sh.mu.Unlock()
	}

	d := p.sch.Dim()
	res := &Result{}
	sums := make([]float64, 2*d)
	res.st.MeanSum, res.st.JointSum = sums[:d:d], sums[d:]
	// Scalars re-sum from the baselines serially in shard order — the
	// same values in the same order as sumShards over the live shards, so
	// the float sums are bit-identical.
	for bi := range vc.base {
		res.st.addScalars(&vc.base[bi].st)
	}
	p.fillResult(res, make([]atomic.Pointer[[]float64], d))
	prev := vc.cur.Load()
	var pc [numFams][]freq.CountState
	var pv *rangequery.View
	if prev != nil {
		pc, pv = prev.st.cols(), prev.rangeView
	}
	res.st.Freq = vc.viewCols(famFreq, pc[famFreq])
	res.st.Joint = vc.viewCols(famJoint, pc[famJoint])
	if rs := vc.agg.Range; rs != nil {
		if pv != nil && !vc.union[famLevel].any() && !vc.union[famGrid].any() && rs.N == pv.N() {
			// Not a single range report arrived since the previous view
			// (every range fold bumps the reporter count), so the previous
			// range view is exact as-is — no per-slot walk, no allocation.
			res.rangeView = pv
		} else {
			res.rangeView = p.rangeT.col.RebuildView(pv, rs, vc.union[famLevel].get, vc.union[famGrid].get)
		}
	}
	if prev == nil {
		p.met.rebuildFull.Inc()
		return res
	}
	// Forward the memoized debias results of untouched attributes: their
	// inputs are unchanged, so the cached combined estimates are still
	// exact and the first query per attribute stays a lookup.
	for j := range p.attrMeta {
		if p.attrMeta[j].numeric || vc.union[famFreq].get(j) || vc.union[famJoint].get(j) {
			continue
		}
		if ptr := prev.freqCache[j].Load(); ptr != nil {
			res.freqCache[j].Store(ptr)
		}
	}
	comps := 0
	for f := range vc.union {
		comps += vc.union[f].count()
	}
	p.met.rebuildInc.Inc()
	p.met.dirtyShards.Observe(int64(dirtyShards))
	p.met.dirtyComps.Observe(int64(comps))
	return res
}

// viewCols returns a view's attribute-indexed columns of family f: a copy
// of every column this build synced, taken out of the running sum, and
// the previous view's column for every other one. Published views are
// immutable, so clean columns are shared, not copied. With no previous
// view (prev nil) every column is copied.
func (vc *viewCache) viewCols(f int, prev []freq.CountState) []freq.CountState {
	sum := vc.agg.cols()[f]
	if sum == nil {
		return nil
	}
	out := make([]freq.CountState, len(sum))
	for i := range sum {
		if prev != nil && !vc.union[f].get(i) {
			out[i] = prev[i]
		} else {
			out[i] = sum[i].Clone()
		}
	}
	return out
}

// syncCol adds the delta cur - base of one count column, reporter count
// included, into sum and advances base to match cur, touching only the
// entries that moved, so its cost beyond the scan is proportional to the
// delta's support. Support counts are integer-valued float64 sums of 0/1
// indicators, so the delta arithmetic is exact: after any interleaving of
// syncs, sum holds the same bits as a direct sum of the shards.
func syncCol(sum, base, cur *freq.CountState) {
	for v, c := range cur.Counts {
		if delta := c - base.Counts[v]; delta != 0 {
			sum.Counts[v] += delta
			base.Counts[v] = c
		}
	}
	sum.N += cur.N - base.N
	base.N = cur.N
}
