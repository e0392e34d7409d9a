// Command benchreport regenerates every experiment (E1–E20, defined in
// internal/experiment): it assembles each experiment's fixture, times
// its cases and prints one table per experiment. Pass -markdown to emit
// GitHub-flavored tables and -json-dir to also write BENCH_<id>.json
// artifacts. An unknown experiment id exits with status 2, a failed
// experiment with status 1.
//
// Usage:
//
//	benchreport [-runs N] [-markdown] [-experiments E1,E4,...] [-json-dir DIR]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vnfguard/internal/experiment"
	"vnfguard/internal/metrics"
)

var (
	runs     = flag.Int("runs", 5, "iterations per measured point")
	markdown = flag.Bool("markdown", false, "emit markdown tables")
	selected = flag.String("experiments", "", "comma-separated experiment ids (default: all)")
	jsonDir  = flag.String("json-dir", "", "directory for machine-readable BENCH_<id>.json artifacts (empty disables)")
)

func main() {
	flag.Parse()
	experiments, err := experiment.Select(*selected)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(2)
	}
	for _, e := range experiments {
		start := time.Now()
		table, results, err := experiment.Run(e, *runs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *markdown {
			fmt.Println(table.Markdown())
		} else {
			fmt.Println(table.String())
		}
		if *jsonDir != "" {
			data := table.Data()
			art := metrics.BenchArtifact{
				Name: e.ID, Description: e.Desc, Table: &data, UnixTime: time.Now().Unix(),
			}
			for _, s := range results {
				art.Summaries = append(art.Summaries, s.Data())
			}
			if err := metrics.WriteBenchJSON(*jsonDir, art); err != nil {
				fmt.Fprintf(os.Stderr, "%s artifact: %v\n", e.ID, err)
				os.Exit(1)
			}
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
