// Command results is the query side of the experiment-results service: a
// longitudinal, content-addressed store of every experiment run — paper
// figures, chaos soaks, fleet matrices, live dataplane audits, and the
// BENCH_*.json history in internal/results/testdata — with byte-stable output.
//
// Usage:
//
//	results -dir DIR import internal/results/testdata/BENCH_*.json
//	results -dir DIR list [-kind bench]
//	results -dir DIR show <id-prefix>
//	results -dir DIR diff <id-prefix> <id-prefix>
//	results -dir DIR trend [-kind bench] [-metric pkts_per_sec]
//	results -dir DIR blob <addr>              (raw artifact blob to stdout)
//
// Runs are content-hashed — canonical serialization of config, records and
// blob addresses — so re-ingesting the same evidence deduplicates, and
// "identical run" is an ID comparison. Query output is sorted by
// (kind, PR, name, ID), never by ingestion order, so it is byte-identical
// across runs and across the -workers counts of the producing experiments.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"linkguardian/internal/results"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: results -dir DIR {import FILES... | list | show ID | diff ID ID | trend | blob ADDR}")
	flag.PrintDefaults()
}

func main() {
	dir := flag.String("dir", "", "results store directory (required)")
	kind := flag.String("kind", "", "list/trend: filter by run kind (trend default: bench)")
	metric := flag.String("metric", "", "trend: only metrics whose name contains this substring")
	flag.Usage = usage
	flag.Parse()
	if *dir == "" || flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	if err := run(*dir, *kind, *metric, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "results:", err)
		os.Exit(1)
	}
}

func run(dir, kind, metric string, args []string) error {
	cmd, args := args[0], args[1:]
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	if cmd == "import" {
		if len(args) == 0 {
			return fmt.Errorf("import: no files named")
		}
		runs, err := results.ImportBenchFiles(args)
		if err != nil {
			return err
		}
		summary, err := results.Ingest(dir, runs...)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, summary)
		return nil
	}

	// Query commands only read the backend.
	b, err := results.OpenFile(dir)
	if err != nil {
		return err
	}
	defer b.Close()

	switch cmd {
	case "list":
		return results.WriteList(out, b, kind)
	case "show":
		if len(args) != 1 {
			return fmt.Errorf("show: want exactly one run ID")
		}
		r, err := results.ResolveID(b, args[0])
		if err != nil {
			return err
		}
		return results.WriteShow(out, r)
	case "diff":
		if len(args) != 2 {
			return fmt.Errorf("diff: want exactly two run IDs")
		}
		a, err := results.ResolveID(b, args[0])
		if err != nil {
			return err
		}
		r, err := results.ResolveID(b, args[1])
		if err != nil {
			return err
		}
		return results.WriteDiff(out, a, r)
	case "trend":
		return results.WriteTrend(out, b, kind, metric)
	case "blob":
		if len(args) != 1 {
			return fmt.Errorf("blob: want exactly one blob address")
		}
		data, err := b.GetBlob(args[0])
		if err != nil {
			return err
		}
		_, err = out.Write(data)
		return err
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}
