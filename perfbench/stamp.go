package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// scrape reads every node's /metrics and sums each series across nodes.
func scrape(c *http.Client, nodes []*node) (map[string]float64, error) {
	out := map[string]float64{}
	for _, n := range nodes {
		resp, err := c.Get(n.url + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			k := strings.LastIndexByte(line, ' ')
			if k < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[k+1:], 64)
			if err != nil {
				continue
			}
			out[line[:k]] += v
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// programCounts are the /metrics series the program itself counts,
// reported per op. A name ending in "*" sums every labelled series of
// that family.
var programCounts = []struct{ name, series string }{
	{"pipeline.view_rebuilds_incremental", `ldp_view_rebuilds_total{kind="incremental"}`},
	{"pipeline.view_rebuilds_full", `ldp_view_rebuilds_total{kind="full"}`},
	{"pipeline.view_dirty_components", `ldp_view_dirty_components_sum`},
	{"pipeline.ingest_batches", `ldp_ingest_batches_total`},
	{"transport.shed", `ldp_http_shed_total*`},
	{"transport.decode_errors", `ldp_report_decode_errors_total*`},
	{"cluster.merges_applied", `ldp_cluster_merges_total{result="applied"}`},
	{"cluster.merges_duplicate", `ldp_cluster_merges_total{result="duplicate"}`},
	{"cluster.pushes_applied", `ldp_forwarder_pushes_total{result="applied"}`},
	{"cluster.pushes_duplicate", `ldp_forwarder_pushes_total{result="duplicate"}`},
	{"cluster.push_failed", `ldp_forwarder_pushes_total{result="failed"}`},
	{"cluster.pushed_bytes", `ldp_forwarder_pushed_bytes_total`},
}

// perThousand marks the counts reported per 1000 ops (expected 0).
var perThousand = map[string]bool{"transport.shed": true, "transport.decode_errors": true, "cluster.push_failed": true}

func seriesValue(m map[string]float64, series string) float64 {
	fam, all := strings.CutSuffix(series, "*")
	if !all {
		return m[series]
	}
	var v float64
	for k, x := range m {
		if k == fam || strings.HasPrefix(k, fam+"{") {
			v += x
		}
	}
	return v
}

// countsPerOp turns two scrapes into the program's counts per op.
func countsPerOp(before, after map[string]float64, ops int64) map[string]float64 {
	out := map[string]float64{}
	for _, c := range programCounts {
		d := seriesValue(after, c.series) - seriesValue(before, c.series)
		if perThousand[c.name] {
			d *= 1000
		}
		if ops > 0 {
			out[c.name] = d / float64(ops)
		}
	}
	return out
}

// stealTicks is the host steal time from /proc/stat, in clock ticks
// (0 when the file is unreadable, as outside Linux).
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source tree: the git commit when the checkout is a
// repository, else "none".
func commit(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// medium names the file system holding dir, from /proc/self/mounts.
func medium(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, kind = mp, f[2]+" on "+f[0]
		}
	}
	return kind
}

func goInfo() string {
	return fmt.Sprintf("%s %s/%s", runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
