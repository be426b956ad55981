package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the output must match.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// shortRun runs one workload for about a second on a small preload.
func shortRun(t *testing.T, workload string, seed uint64, trace bool) (*result, string, map[string]any) {
	t.Helper()
	cfg := config{root: "..", workload: workload, seed: seed, seconds: 1, trace: trace,
		setups: 2, scale: 1.0 / 32}
	var out bytes.Buffer
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	text := out.String()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: run not correct: %+v\n%s", workload, res, text)
	}
	var stamp map[string]any
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "stamp "); ok {
			if err := json.Unmarshal([]byte(rest), &stamp); err != nil {
				t.Fatal(err)
			}
		}
		if strings.HasPrefix(line, "check ") && !strings.HasSuffix(line, " ok") {
			t.Errorf("%s: %s", workload, line)
		}
	}
	if stamp == nil {
		t.Fatalf("%s: no stamp line", workload)
	}
	return res, text, stamp
}

// printed reports whether the output names the metric with its unit.
func printed(text, tag, name, unit string) bool {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[0] == tag && f[1] == name && f[3] == unit {
			return true
		}
	}
	return false
}

func TestWorkloads(t *testing.T) {
	s := loadSpec(t)
	for _, wl := range []string{"ingest", "dashboard", "fanin"} {
		t.Run(wl, func(t *testing.T) {
			a, text, stampA := shortRun(t, wl, 7, false)
			for _, m := range s.EndToEnd {
				got, ok := a.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
				if !printed(text, "metric", m.Name, m.Unit) {
					t.Errorf("%s not printed with unit %s", m.Name, m.Unit)
				}
			}
			if len(a.Metrics) != len(s.EndToEnd) {
				t.Errorf("untraced run reports %d metrics, want %d", len(a.Metrics), len(s.EndToEnd))
			}

			// The program's own counts repeat exactly for one seed: the
			// warm-up is a fixed number of ops, and with one loop the same
			// ops reach the same servers in the same order.
			_, _, stampB := shortRun(t, wl, 7, false)
			ca, cb := stampA["count_window"], stampB["count_window"]
			if wl != "ingest" && !reflect.DeepEqual(ca, cb) {
				t.Errorf("count window differs across runs of one seed:\n%v\n%v", ca, cb)
			}
			for _, k := range []string{"transport.shed", "transport.decode_errors", "cluster.push_failed"} {
				if v := ca.(map[string]any)[k]; v != 0.0 {
					t.Errorf("%s = %v, want 0", k, v)
				}
			}

			tr, text, _ := shortRun(t, wl, 7, true)
			if len(tr.Metrics) != len(s.PerLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(tr.Metrics), len(s.PerLayer))
			}
			// Layers only some workloads run are printed for those.
			for _, m := range perLayer {
				if appliesTo(m.in, wl) && !printed(text, "layer", m.name, m.unit) {
					t.Errorf("layer %s not printed with unit %s", m.name, m.unit)
				}
			}
			for _, m := range s.PerLayer {
				got, ok := tr.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s = %+v, want unit %s", m.Name, got, m.Unit)
				}
				if !printed(text, "layer", m.Name, m.Unit) {
					t.Errorf("layer %s not printed with unit %s", m.Name, m.Unit)
				}
			}
			if c := tr.Metrics["trace.op_coverage"].Value; c < 0.9 {
				t.Errorf("direct child spans cover %.3f of an op, want >= 0.9", c)
			}
		})
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(config{root: "..", workload: "nope", seconds: 1}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
