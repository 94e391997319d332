// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON object on stdout, mapping each benchmark name to its
// ns/op, B/op, and allocs/op. CI emits this next to the raw bench.txt (see
// `make bench`), so the perf trajectory across PRs can be diffed and plotted
// without re-parsing the text format.
//
// Usage:
//
//	go test -bench . -benchmem | benchjson > BENCH.json
//
// Lines that are not benchmark results (headers, PASS/ok, warnings) are
// ignored. Repeated runs of the same benchmark (-count > 1) are averaged.
// -loc names a file holding `make loc` output; its per-package production
// and test line counts go under the "loc" key, next to the benchmarks.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is the per-benchmark measurement set; pointer fields are omitted
// from the JSON when the run did not report them (-benchmem absent).
type Result struct {
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	Runs        int      `json:"runs"`
}

// LineCount is one package's production and test Go line counts.
type LineCount struct {
	Prod int `json:"prod"`
	Test int `json:"test"`
}

func main() {
	locPath := flag.String("loc", "", "file holding `make loc` output to embed under \"loc\"")
	flag.Parse()
	results, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fail(err)
	}
	out := make(map[string]any, len(results)+1)
	for name, r := range results {
		out[name] = r
	}
	if *locPath != "" {
		f, err := os.Open(*locPath)
		if err != nil {
			fail(err)
		}
		loc, err := parseLoc(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		out["loc"] = loc
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// parseLoc reads `make loc` output: a header line, then one
// "<package> <prod> <test>" line per package and a final "total" line.
func parseLoc(r io.Reader) (map[string]LineCount, error) {
	out := map[string]LineCount{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 || f[0] == "package" {
			continue
		}
		prod, perr := strconv.Atoi(f[1])
		test, terr := strconv.Atoi(f[2])
		if perr != nil || terr != nil {
			return nil, fmt.Errorf("loc line %q: want <package> <prod> <test>", sc.Text())
		}
		out[f[0]] = LineCount{Prod: prod, Test: test}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if _, ok := out["total"]; !ok {
		return nil, fmt.Errorf("loc output has no total line")
	}
	return out, nil
}

// accum sums repeated runs of one benchmark for averaging.
type accum struct {
	ns, bytes, allocs float64
	nBytes, nAllocs   int
	runs              int
}

func parse(sc *bufio.Scanner) (map[string]Result, error) {
	acc := map[string]*accum{}
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		name, fields, ok := benchLine(sc.Text())
		if !ok {
			continue
		}
		a := acc[name]
		if a == nil {
			a = &accum{}
			acc[name] = a
		}
		a.runs++
		// Direct lookups, not a range over fields: accumulation order across a
		// map iteration is randomized, and these are float sums.
		if v, ok := fields["ns/op"]; ok {
			a.ns += v
		}
		if v, ok := fields["B/op"]; ok {
			a.bytes += v
			a.nBytes++
		}
		if v, ok := fields["allocs/op"]; ok {
			a.allocs += v
			a.nAllocs++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]Result, len(acc))
	for name, a := range acc {
		r := Result{NsPerOp: a.ns / float64(a.runs), Runs: a.runs}
		if a.nBytes > 0 {
			v := a.bytes / float64(a.nBytes)
			r.BytesPerOp = &v
		}
		if a.nAllocs > 0 {
			v := a.allocs / float64(a.nAllocs)
			r.AllocsPerOp = &v
		}
		out[name] = r
	}
	return out, nil
}

// benchLine parses one "BenchmarkX-8  100  123 ns/op  45 B/op  6 allocs/op"
// line into its name (CPU suffix stripped) and unit → value map.
func benchLine(line string) (string, map[string]float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the GOMAXPROCS suffix go test appends (Benchmark/case-8).
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	vals := map[string]float64{}
	// fields[1] is the iteration count; the rest alternate value, unit.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		vals[fields[i+1]] = v
	}
	if _, ok := vals["ns/op"]; !ok {
		return "", nil, false
	}
	return name, vals, true
}
