// Command bingobench regenerates the paper's evaluation tables and figures
// on synthetic stand-ins for its datasets (see DESIGN.md for the
// substitution arguments and EXPERIMENTS.md for paper-vs-measured records).
//
// Usage:
//
//	bingobench -exp table3
//	bingobench -exp fig12 -datasets AM,GO -scale 0.005
//	bingobench -exp concurrent,sharded -out reports
//	bingobench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/bingo-rw/bingo/internal/bench"
	"github.com/bingo-rw/bingo/internal/obs"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment(s) to run, comma-separated (see -list); 'all' runs everything")
		list     = flag.Bool("list", false, "list available experiments")
		scale    = flag.Float64("scale", 0.01, "dataset scale relative to the paper's sizes")
		maxEdges = flag.Int64("max-edges", 2_000_000, "cap on generated edges per dataset")
		batch    = flag.Int("batch", 0, "update batch size (0 = paper's 100K × scale)")
		rounds   = flag.Int("rounds", 10, "update+walk rounds (paper: 10)")
		length   = flag.Int("length", 80, "walk length (paper: 80)")
		walkers  = flag.Int("walkers", 5000, "max walkers per round")
		workers  = flag.Int("workers", 0, "parallel workers (0 = 1)")
		seed     = flag.Uint64("seed", 42, "experiment seed")
		datasets = flag.String("datasets", "", "comma-separated dataset abbrs (default all: AM,GO,CT,LJ,TW)")
		systems  = flag.String("systems", "", "comma-separated systems for table3 (default Bingo,KnightKing,RebuildITS,FlowWalker)")
		apps     = flag.String("apps", "", "comma-separated apps for table3 (default DeepWalk,node2vec,PPR)")
		outDir   = flag.String("out", "", "directory for the serving scenarios' BENCH_<scenario>.json reports ('' writes none)")
		transp   = flag.String("transports", "", "comma-separated sharded-scenario transports (default inproc,tcp)")
		cacheM   = flag.String("cache-modes", "", "comma-separated sharded-scenario hub-cache modes (default on,off)")
		kernelM  = flag.String("kernel-modes", "", "comma-separated stepping-kernel modes for the concurrent/sharded scenarios (default sparse,dense,auto)")
		procsF   = flag.String("procs", "", "comma-separated GOMAXPROCS sweep for the kernel dimension (default 1,4)")
		verbose  = flag.Bool("v", false, "progress output")
		debugA   = flag.String("debug-addr", "", "expose the observability plane (/metrics, /statusz, /eventz, /debug/pprof) while experiments run")
		pprofA   = flag.String("pprof", "", "alias for -debug-addr (kept for compatibility)")
	)
	flag.Parse()

	if *debugA == "" {
		*debugA = *pprofA
	}
	if *debugA != "" {
		dbg, err := obs.Serve(*debugA, nil, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bingobench: debug-addr:", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Printf("debug: serving /metrics, /statusz, /eventz, /debug/pprof on http://%s/\n", dbg.Addr())
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Println(e)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "bingobench: -exp required (or -list)")
		flag.Usage()
		os.Exit(2)
	}
	split := func(s string) []string {
		if s == "" {
			return nil
		}
		return strings.Split(s, ",")
	}
	o := bench.DefaultOptions(os.Stdout)
	o.Scale = *scale
	o.MaxEdges = *maxEdges
	o.BatchSize = *batch
	o.Rounds = *rounds
	o.WalkLength = *length
	o.MaxWalkers = *walkers
	o.Workers = *workers
	o.Seed = *seed
	o.Datasets = split(*datasets)
	o.Systems = split(*systems)
	o.Apps = split(*apps)
	o.OutDir = *outDir
	o.Transports = split(*transp)
	o.CacheModes = split(*cacheM)
	o.KernelModes = split(*kernelM)
	for _, p := range split(*procsF) {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bingobench: bad -procs value %q: %v\n", p, err)
			os.Exit(2)
		}
		o.Procs = append(o.Procs, n)
	}
	o.Verbose = *verbose

	if err := bench.Run(*exp, o); err != nil {
		fmt.Fprintln(os.Stderr, "bingobench:", err)
		os.Exit(1)
	}
}
