// Command ldpgen generates synthetic census datasets (the BR-like and
// MX-like populations of internal/dataset) as CSV files.
//
// Usage:
//
//	ldpgen -dataset br -n 100000 -seed 1 -out br.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"ldp/internal/dataset"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ldpgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ldpgen", flag.ContinueOnError)
	var (
		name = fs.String("dataset", "br", "dataset to generate: br or mx")
		n    = fs.Int("n", 100000, "number of records")
		seed = fs.Uint64("seed", 1, "PRNG seed")
		out  = fs.String("out", "", "output CSV path (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var c *dataset.Census
	switch *name {
	case "br":
		c = dataset.NewBR()
	case "mx":
		c = dataset.NewMX()
	default:
		return fmt.Errorf("unknown dataset %q (want br or mx)", *name)
	}
	if *n <= 0 {
		return fmt.Errorf("n must be positive, got %d", *n)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return dataset.WriteCSV(w, c, *n, *seed)
}
