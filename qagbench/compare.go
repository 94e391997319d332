package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// record is one line of a -out results file.
type record struct {
	Stamp  map[string]any `json:"stamp"`
	Trace  bool           `json:"trace"`
	Valid  bool           `json:"valid"`
	Result struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// stampKey is a record's stamp without the fields that may differ between
// comparable results: the seed, and the commit under comparison.
func stampKey(r record) string {
	s := map[string]any{}
	for k, v := range r.Stamp {
		if k != "seed" && k != "commit" {
			s[k] = v
		}
	}
	b, _ := json.Marshal(s)
	return string(b)
}

// compareMain sets the untraced records of two results files side by side:
// per workload and end-to-end metric, each side's median and quartiles and
// the change of the medians against the metric's bound in the benchmark
// description. It refuses records of one workload whose stamps differ
// unless -force is given, and leaves out runs whose open loop missed its
// schedule. It exits 3 when a median got worse by more than its bound,
// when a head run gave a wrong answer, or when the head runs failed a
// larger share of their ops than the base runs.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("qagbench compare", flag.ContinueOnError)
	force := fs.Bool("force", false, "compare results whose stamps differ")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description with the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: qagbench compare [-force] [-spec BENCHMARK.json] base.jsonl head.jsonl")
		return 2
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qagbench compare:", err)
		return 1
	}
	sides := make([][]record, 2)
	for i := range sides {
		if sides[i], err = readRecords(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "qagbench compare:", err)
			return 1
		}
	}
	byWorkload := map[string][2][]record{}
	for i, recs := range sides {
		for _, r := range recs {
			w := fmt.Sprint(r.Stamp["workload"])
			g := byWorkload[w]
			g[i] = append(g[i], r)
			byWorkload[w] = g
		}
	}
	workloads := make([]string, 0, len(byWorkload))
	for w := range byWorkload {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	worse := false
	for _, w := range workloads {
		g := byWorkload[w]
		all := append(append([]record(nil), g[0]...), g[1]...)
		key := stampKey(all[0])
		for _, r := range all {
			if k := stampKey(r); k != key && !*force {
				fmt.Fprintf(os.Stderr, "qagbench compare: %s: stamps differ (use -force to compare anyway):\n  %s\n  %s\n", w, key, k)
				return 1
			}
		}
		// Every run counts for correctness, valid or not.
		var failed, attempted [2]int
		var valid [2][]record
		wrong := 0
		for i := range g {
			for _, r := range g[i] {
				failed[i] += r.Result.Failed
				attempted[i] += r.Result.Attempted
				if i == 1 && !r.Result.Correct {
					wrong++
				}
				if r.Valid {
					valid[i] = append(valid[i], r)
				}
			}
		}
		fmt.Printf("%s (%d base runs, %d head runs; %d and %d valid)\n", w, len(g[0]), len(g[1]), len(valid[0]), len(valid[1]))
		verdict := "no worse"
		if wrong > 0 || ratio(failed[1], attempted[1]) > ratio(failed[0], attempted[0]) {
			verdict, worse = "WORSE", true
		}
		fmt.Printf("  %-18s base %d of %d  head %d of %d, %d head runs with wrong answers: %s\n",
			"failed ops", failed[0], attempted[0], failed[1], attempted[1], wrong, verdict)
		if len(valid[0]) < 2 || len(valid[1]) < 2 {
			fmt.Printf("  medians need at least two valid runs on each side\n")
			continue
		}
		for _, m := range spec.EndToEnd {
			var v [2][]float64
			for i := range valid {
				for _, r := range valid[i] {
					v[i] = append(v[i], r.Result.Metrics[m.Name].Value)
				}
			}
			m0, m1 := median(v[0]), median(v[1])
			q01, q03 := quartiles(v[0])
			q11, q13 := quartiles(v[1])
			change := 0.0
			if m0 != 0 {
				change = (m1 - m0) / m0
			}
			if m.Better == "higher" {
				change = -change
			}
			verdict := "within bound"
			if change > m.Bound {
				verdict, worse = "WORSE than bound", true
			}
			fmt.Printf("  %-18s base %.4g [%.4g, %.4g]  head %.4g [%.4g, %.4g]  worse by %+.1f%% (bound %.0f%%): %s\n",
				m.Name, m0, q01, q03, m1, q11, q13, 100*change, 100*m.Bound, verdict)
		}
	}
	if worse {
		return 3
	}
	return 0
}
