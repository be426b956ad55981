// Command ldpbench regenerates the tables and figures of the paper's
// evaluation (Section VI) and the design-choice ablations.
//
// Usage:
//
//	ldpbench -list
//	ldpbench -exp fig4 [-n 200000] [-runs 10] [-eps 0.5,1,2,4] [-format tsv]
//	ldpbench -exp all
//
// Results print to stdout (or -out FILE) as aligned text or TSV. -list
// prints the experiment index; TestGoldenTables in internal/experiment
// pins the paper tables' output bit for bit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"ldp/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ldpbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ldpbench", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list available experiments and exit")
		exp      = fs.String("exp", "", "experiment to run (e.g. fig4, table1, ablation-k, or 'all')")
		n        = fs.Int("n", 0, "population size per run (0 = default)")
		runs     = fs.Int("runs", 0, "repetitions to average (0 = default)")
		seed     = fs.Uint64("seed", 0, "base PRNG seed (0 = default)")
		workers  = fs.Int("workers", 0, "max concurrent runs (0 = GOMAXPROCS)")
		epsList  = fs.String("eps", "", "comma-separated privacy budgets (default 0.5,1,2,4)")
		eps1     = fs.Float64("eps1", 0, "fixed budget for non-eps-axis figures (default 1)")
		ermUsers = fs.Int("ermusers", 0, "dataset size for SGD experiments (0 = default)")
		splits   = fs.Int("splits", 0, "train/test splits per SGD configuration (0 = default)")
		format   = fs.String("format", "text", "output format: text or tsv")
		out      = fs.String("out", "", "write output to this file instead of stdout")
		jsonOut  = fs.String("json", "", "additionally write all result tables to this file as JSON")
		quiet    = fs.Bool("q", false, "suppress progress messages on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, r := range experiment.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", r.Name, r.Desc)
		}
		return nil
	}
	if *exp == "" {
		return fmt.Errorf("no experiment selected; use -exp NAME or -list")
	}

	opts := experiment.Defaults()
	opts.N = orDefault(*n, opts.N)
	opts.Runs = orDefault(*runs, opts.Runs)
	opts.ERMUsers = orDefault(*ermUsers, opts.ERMUsers)
	opts.Splits = orDefault(*splits, opts.Splits)
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *workers > 0 {
		opts.Workers = *workers
	}
	if *eps1 > 0 {
		opts.Eps = *eps1
	}
	if *epsList != "" {
		parsed, err := parseEpsList(*epsList)
		if err != nil {
			return err
		}
		opts.EpsList = parsed
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	var runners []experiment.Runner
	if *exp == "all" {
		runners = experiment.All()
	} else {
		for _, name := range strings.Split(*exp, ",") {
			r, err := experiment.Get(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			runners = append(runners, r)
		}
	}

	var allTables []experiment.Table
	for _, r := range runners {
		start := time.Now()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "running %s...\n", r.Name)
		}
		tables, err := r.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%s done in %v\n", r.Name, time.Since(start).Round(time.Millisecond))
		}
		allTables = append(allTables, tables...)
		for _, tb := range tables {
			var err error
			if *format == "tsv" {
				_, err = fmt.Fprintf(w, "# %s — %s\n", tb.ID, tb.Title)
				if err == nil {
					err = experiment.RenderTSV(w, tb)
				}
				if err == nil {
					_, err = fmt.Fprintln(w)
				}
			} else {
				err = experiment.Render(w, tb)
			}
			if err != nil {
				return err
			}
		}
	}
	if *jsonOut != "" {
		blob, err := json.MarshalIndent(allTables, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

func parseEpsList(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad eps value %q: %w", part, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("eps must be positive, got %v", v)
		}
		out = append(out, v)
	}
	return out, nil
}
