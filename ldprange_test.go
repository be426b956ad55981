package ldp

import (
	"math"
	"testing"
)

func TestFacadeRangeQueries(t *testing.T) {
	sch, err := NewSchema(
		Attribute{Name: "x", Kind: Numeric},
		Attribute{Name: "y", Kind: Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(sch, 1, WithRange(RangeConfig{Buckets: 32, GridCells: 4}), WithTaskWeight(TaskMean, 0))
	if err != nil {
		t.Fatal(err)
	}

	const n = 20_000
	inX := 0.0
	for i := 0; i < n; i++ {
		r := NewRandStream(13, uint64(i))
		tup := NewTuple(sch)
		tup.Num[0] = r.Float64()*2 - 1
		tup.Num[1] = r.Float64()*2 - 1
		if tup.Num[0] >= -0.5 && tup.Num[0] <= 0.5 {
			inX++
		}
		rep, err := p.Randomize(tup, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Add(rep); err != nil {
			t.Fatal(err)
		}

		// Wire round trip preserves the report.
		frame, err := EncodeReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeReport(frame)
		if err != nil {
			t.Fatal(err)
		}
		if back.Task != TaskRange || back.Range.Kind != rep.Range.Kind {
			t.Fatal("wire round trip changed report kind")
		}
	}

	res := p.Snapshot()
	got, err := res.Range(RangeQuery{Attr: "x", Lo: -0.5, Hi: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-inX/n) > 0.2 {
		t.Errorf("Range1D = %.4f, true %.4f", got, inX/n)
	}
	got2, err := res.Range(RangeQuery{Attr: "x", Lo: -1, Hi: 1, Attr2: "y", Lo2: -1, Hi2: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got2-1) > 1e-9 {
		t.Errorf("whole-square Range2D = %v, want 1", got2)
	}
}
