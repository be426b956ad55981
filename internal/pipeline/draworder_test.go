package pipeline

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"ldp/internal/core"
	"ldp/internal/dataset"
	"ldp/internal/freq"
	"ldp/internal/mech"
	"ldp/internal/rng"
)

// TestRandomizerDrawOrder pins every report the four sampling tasks emit
// for fixed tuples at fixed seeds: the attributes sampled, their order,
// and each entry's value bits or oracle response. A randomizer that
// consumes the PRNG in a different order (perturbing before sampling,
// perturbing in index order instead of shuffle order) changes a digest.
// The BR schema has 6 numeric and 10 categorical attributes, so eps=1
// samples k=1 and eps=8 samples k=3 in every task; the gradient task
// runs over 20 coordinates.
func TestRandomizerDrawOrder(t *testing.T) {
	mechs := map[string]mech.Factory{
		"pm": func(e float64) (mech.Mechanism, error) { return core.NewPiecewise(e) },
		"hm": func(e float64) (mech.Mechanism, error) { return core.NewHybrid(e) },
	}
	oracles := map[string]freq.Factory{
		"oue": func(e float64, k int) (freq.Oracle, error) { return freq.NewOUE(e, k) },
		"grr": func(e float64, k int) (freq.Oracle, error) { return freq.NewGRR(e, k) },
	}
	// want holds the digests of the mean, freq, joint and gradient
	// reports, in that order.
	cases := []struct {
		mech, oracle string
		eps          float64
		k            int
		want         [4]uint64
	}{
		{"pm", "oue", 1, 1, [4]uint64{0x3f982781bb9f0c95, 0x55d9fbff3502ed27, 0xc7a828dea1c7e3cb, 0xaaa1ba2823236f28}},
		{"pm", "oue", 8, 3, [4]uint64{0xf467d115d59a78d8, 0xc804fda6e9fa3c3, 0x6ccb9783a90103de, 0xc2009b4ffae32810}},
		{"pm", "grr", 1, 1, [4]uint64{0x3f982781bb9f0c95, 0xfea1976cdc996e0a, 0xd3c157749e1d18cd, 0xaaa1ba2823236f28}},
		{"pm", "grr", 8, 3, [4]uint64{0xf467d115d59a78d8, 0x10bf8af8d1575bcc, 0x4b97f6faff4919b5, 0xc2009b4ffae32810}},
		{"hm", "oue", 1, 1, [4]uint64{0x29d6fdea965ec5fb, 0x55d9fbff3502ed27, 0x335dacfb85a56c09, 0x339010b4d0376b04}},
		{"hm", "oue", 8, 3, [4]uint64{0x441861ff0e8f1a90, 0xc804fda6e9fa3c3, 0xbb5da451225ddaf9, 0x89fc85f09d36ac8}},
		{"hm", "grr", 1, 1, [4]uint64{0x29d6fdea965ec5fb, 0xfea1976cdc996e0a, 0xb8ecff9b86bfc4cf, 0x339010b4d0376b04}},
		{"hm", "grr", 8, 3, [4]uint64{0x441861ff0e8f1a90, 0x10bf8af8d1575bcc, 0x61c3f7a23e3e41fe, 0x89fc85f09d36ac8}},
	}
	const users, dim = 64, 20
	census := dataset.NewBR()
	for _, c := range cases {
		name := fmt.Sprintf("%s/%s/eps=%g", c.mech, c.oracle, c.eps)
		p, err := New(census.Schema(), c.eps,
			WithMechanism(mechs[c.mech]), WithOracle(oracles[c.oracle]),
			WithGradient(GradientConfig{Dim: dim, Rounds: 1, GroupSize: users, Eta: 1}))
		if err != nil {
			t.Fatal(err)
		}
		if got := [4]int{p.MeanTask().K(), p.FreqTask().K(), p.JointTask().K(), p.GradientTask().K()}; got != [4]int{c.k, c.k, c.k, c.k} {
			t.Fatalf("%s: task k = %v, want %d", name, got, c.k)
		}
		randomizers := [4]func(i int, r *rng.Rand) (Report, error){
			func(i int, r *rng.Rand) (Report, error) {
				return p.MeanTask().Randomize(census.Tuple(rng.NewStream(3, uint64(i))), r)
			},
			func(i int, r *rng.Rand) (Report, error) {
				return p.FreqTask().Randomize(census.Tuple(rng.NewStream(3, uint64(i))), r)
			},
			func(i int, r *rng.Rand) (Report, error) {
				return p.JointTask().Randomize(census.Tuple(rng.NewStream(3, uint64(i))), r)
			},
			func(i int, r *rng.Rand) (Report, error) {
				g, gr := make([]float64, dim), rng.NewStream(5, uint64(i))
				for j := range g {
					g[j] = 3*gr.Float64() - 1.5 // beyond [-1, 1], so clipping shows
				}
				return p.GradientTask().RandomizeGradient(0, g, r)
			},
		}
		for task, randomize := range randomizers {
			h := fnv.New64a()
			var buf []byte
			for i := 0; i < users; i++ {
				rep, err := randomize(i, rng.NewStream(uint64(11+task), uint64(i)))
				if err != nil {
					t.Fatalf("%s task %d user %d: %v", name, task, i, err)
				}
				buf = append(buf[:0], byte(rep.Task))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(rep.Round))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rep.Entries)))
				for _, e := range rep.Entries {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Attr))
					buf = append(buf, byte(e.Kind))
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Value))
					buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Resp.Value))
					buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Resp.Bits)))
					for _, word := range e.Resp.Bits {
						buf = binary.LittleEndian.AppendUint64(buf, word)
					}
				}
				h.Write(buf)
			}
			if got := h.Sum64(); got != c.want[task] {
				t.Errorf("%s %v reports: digest %#x, want %#x", name, []string{"mean", "freq", "joint", "gradient"}[task], got, c.want[task])
			}
		}
	}
}
