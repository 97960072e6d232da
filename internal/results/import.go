package results

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

var benchName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// ImportBenchFile converts one checked-in BENCH_<pr>.json benchmark
// artifact into a Run of kind "bench": numeric leaves flatten into records
// named "<section>.<field>" (or the bare field at the top level) and
// non-numeric top-level fields become config. The PR number comes from the
// file name, so the whole BENCH_* history backfills into one longitudinal
// trajectory.
func ImportBenchFile(path string) (*Run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	base := filepath.Base(path)
	m := benchName.FindStringSubmatch(base)
	if m == nil {
		return nil, fmt.Errorf("results: %s does not match BENCH_<pr>.json", base)
	}
	pr, _ := strconv.Atoi(m[1])
	run, err := ImportBench(data, pr)
	if err != nil {
		return nil, fmt.Errorf("results: %s: %w", base, err)
	}
	run.Source = base
	return run, nil
}

// ImportBench flattens a benchmark JSON document into a Run for the given
// PR number. The shape is the generic one every BENCH_*.json shares: a
// top-level object whose scalar fields are run config (strings, ints like
// cpus/count) or summary metrics (floats), and whose object fields are
// metric sections of numeric leaves.
func ImportBench(data []byte, pr int) (*Run, error) {
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	run := &Run{
		Kind:   "bench",
		Name:   fmt.Sprintf("BENCH_%d", pr),
		PR:     pr,
		Config: map[string]string{},
	}
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch v := doc[k].(type) {
		case float64:
			run.Records = append(run.Records, Record{Name: k, Value: v})
		case string:
			run.Config[k] = v
		case bool:
			run.Config[k] = strconv.FormatBool(v)
		case map[string]any:
			subKeys := make([]string, 0, len(v))
			for sk := range v {
				subKeys = append(subKeys, sk)
			}
			sort.Strings(subKeys)
			for _, sk := range subKeys {
				if f, ok := v[sk].(float64); ok {
					run.Records = append(run.Records, Record{Name: k + "." + sk, Value: f})
				}
			}
		}
	}
	if len(run.Records) == 0 {
		return nil, fmt.Errorf("no numeric metrics found")
	}
	run.Normalize()
	run.ID = run.Hash()
	return run, nil
}

// ImportBenchFiles converts every named BENCH_*.json into its run,
// stopping at the first file that fails.
func ImportBenchFiles(paths []string) ([]*Run, error) {
	runs := make([]*Run, 0, len(paths))
	for _, p := range paths {
		r, err := ImportBenchFile(p)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}
