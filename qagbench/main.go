// Command qagbench is the repository benchmark. It drives a qagviewd built
// from the tree, as a separate process over loopback HTTP, with one of three
// seeded workloads (explore, cold, live), checks every reply against an
// in-process oracle, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 1 the metrics are the per-layer ones: the measured run's
// /metrics counters, plus span self times from an in-process replay of the
// same seeded operations. See README.md for the workloads and metrics.
//
// Usage (from the repository root, after building both binaries):
//
//	qagbench -daemon qagviewd -workload explore -seed 1 -seconds 20 -trace 0
//	qagbench compare [-force] [-spec BENCHMARK.json] base.jsonl head.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, the ones a change is judged
// by. All four stay within their bounds when other machines take the
// host's CPU (steal): on a 2-vCPU sandbox whose steal swung between 1% and
// 30%, the request latencies moved by up to 4x, and server CPU per op by
// at most a quarter. The latencies are per-layer metrics (bench.*),
// reported without a bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"cpu_ms_per_op", "ms"},
	{"success_ratio", "ratio"},
}

// spanMetrics map per-layer time metrics to the spans they summarize: the
// median self time of that span name over the replayed ops (relation spans
// also count set-up, where tables load).
var spanMetrics = []struct{ metric, span string }{
	{"server.handler_ms.solution", "server.handler.solution"},
	{"server.handler_ms.diff", "server.handler.diff"},
	{"server.handler_ms.create", "server.handler.create"},
	{"server.handler_ms.append", "server.handler.append"},
	{"relation.csv_load_ms", "relation.csv_load"},
	{"relation.dict_encode_ms", "relation.dict_encode"},
	{"engine.exec_ms.flat", "engine.exec.flat"},
	{"engine.exec_ms.join", "engine.exec.join"},
	{"lattice.build_ms", "lattice.build"},
	{"lattice.refresh_ms", "lattice.refresh"},
	{"summarize.hybrid_ms", "summarize.hybrid"},
	{"precompute.sweep_ms", "precompute.sweep"},
	{"precompute.retrieve_ms", "precompute.retrieve"},
	{"precompute.guidance_ms", "precompute.guidance"},
	{"sankey.diff_ms", "sankey.diff"},
	{"wal.append_ms", "wal.append"},
}

// layers are the span prefixes reported as self time per replayed op. The
// server is not among them: its handler spans have no child spans, so they
// time the whole request, every layer below the server included.
var layers = []string{"relation", "engine", "lattice", "summarize", "precompute", "sankey", "wal"}

// countMetrics are the per-layer metrics that are not span times.
var countMetrics = []metricDef{
	{"server.response_bytes.solution", "B"},
	{"server.response_bytes.diff", "B"},
	{"server.store_hit_ratio", "ratio"},
	{"server.session_reuse_ratio", "ratio"},
	{"server.evictions", "count"},
	{"server.refreshes", "count"},
	{"server.refresh_noops", "count"},
	{"server.admission_rejects", "count"},
	{"engine.rows_per_group", "rows"},
	{"lattice.clusters", "count"},
	{"precompute.store_bytes", "B"},
	{"precompute.lca_hit_ratio", "ratio"},
	{"wal.records_per_fsync", "ratio"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.cpu_steal_pct", "%"},
	{"bench.summary_p50_ms", "ms"},
	{"bench.summary_tail_ms", "ms"},
	{"bench.op2_p50_ms", "ms"},
	{"bench.op2_tail_ms", "ms"},
	{"bench.op3_p50_ms", "ms"},
	{"bench.op3_tail_ms", "ms"},
}

// perLayer lists every per-layer metric in output order.
func perLayer() []metricDef {
	var out []metricDef
	for _, m := range spanMetrics {
		out = append(out, metricDef{m.metric, "ms"})
	}
	for _, l := range layers {
		out = append(out, metricDef{"self_ms_per_op." + l, "ms"})
	}
	return append(out, countMetrics...)
}

// env is one benchmark invocation.
type env struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	saturate bool   // explore: closed loop instead of the open loop
	daemon   string // qagviewd binary
	dir      string // scratch directory of this run, removed at exit
	nproc    int
}

// report collects a run's outcome.
type report struct {
	attempted, failed int
	wrong             int    // failed ops whose reply disagreed with the oracle
	invalid           string // why the open loop missed its schedule; "" when valid
	e2e, layer        map[string]float64
	lines             []string // human-readable detail printed before the result
	load              map[string]any
	fsync             string
	tr                *tracer // the traced replay's spans
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, load: map[string]any{}, fsync: "n/a"}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*env) (*report, error){
	"explore": runExplore,
	"cold":    runCold,
	"live":    runLive,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("qagbench", flag.ContinueOnError)
	workload := fs.String("workload", "explore", "workload: explore, cold or live")
	seed := fs.Int64("seed", 1, "seed for the generated data and the op schedule")
	seconds := fs.Int("seconds", 20, "measured window in seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics (adds an in-process traced replay)")
	daemon := fs.String("daemon", ".bench_build/qagviewd", "qagviewd binary to benchmark")
	workdir := fs.String("workdir", ".bench_build", "directory for per-run scratch files")
	out := fs.String("out", "", "append a stamped result record to this JSON-lines file")
	spans := fs.String("spans", "", "traced runs: write the spans here as JSON lines (default <workdir>/spans-<workload>-<seed>.jsonl)")
	saturate := fs.Bool("saturate", false, "explore only: send the op mix back to back on nproc connections and report the rate sustained")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || (*saturate && (*workload != "explore" || *trace != 0)) {
		fmt.Fprintf(os.Stderr, "qagbench: bad -workload %q, -seconds %d, -trace %d or -saturate %v\n", *workload, *seconds, *trace, *saturate)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "qagbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "qagbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{
		workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, saturate: *saturate, daemon: *daemon, dir: dir, nproc: runtime.NumCPU(),
	}
	rep, err := w(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qagbench:", err)
		return 1
	}
	if tr := rep.tr; tr != nil {
		path := *spans
		if path == "" {
			path = fmt.Sprintf("%s/spans-%s-%d.jsonl", *workdir, e.workload, e.seed)
		}
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "qagbench:", err)
			return 1
		}
		rep.linef("spans: %d written to %s", len(tr.spans), path)
	}
	defs, vals := endToEnd, rep.e2e
	if e.traced {
		defs, vals = perLayer(), rep.layer
	}
	metrics := map[string]any{}
	for _, m := range defs {
		metrics[m.name] = map[string]any{"value": vals[m.name], "unit": m.unit}
	}
	stamp := e.stamp(rep)
	if rep.invalid != "" {
		rep.linef("run invalid: %s; compare leaves it out", rep.invalid)
	}
	for _, l := range rep.lines {
		fmt.Println("# " + l)
	}
	for _, m := range defs {
		fmt.Printf("# %-34s %14.6g %s\n", m.name, vals[m.name], m.unit)
	}
	sb, _ := json.Marshal(stamp)
	fmt.Printf("# stamp %s\n", sb)
	result := map[string]any{"correct": rep.wrong == 0, "attempted": rep.attempted, "failed": rep.failed, "metrics": metrics}
	if *out != "" {
		if err := appendRecord(*out, stamp, e.traced, rep.invalid == "", result); err != nil {
			fmt.Fprintln(os.Stderr, "qagbench:", err)
			return 1
		}
	}
	rb, _ := json.Marshal(result)
	fmt.Println(string(rb))
	return 0
}

// stamp records what a result depends on besides the code. compare refuses
// to set results side by side when any field other than seed and commit
// differs.
func (e *env) stamp(rep *report) map[string]any {
	return map[string]any{
		"workload":             e.workload,
		"seconds":              e.window.Seconds(),
		"nproc":                e.nproc,
		"gomaxprocs":           runtime.GOMAXPROCS(0),
		"generator_gomaxprocs": generatorProcs,
		"execpar":              e.nproc,
		"cpu_model":            cpuModel(),
		"go_version":           runtime.Version(),
		"commit":               commit(),
		"seed":                 e.seed,
		"load":                 rep.load,
		"fsync":                rep.fsync,
	}
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

// commit is the checkout's git commit, or "unknown" outside a repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func appendRecord(path string, stamp map[string]any, traced, valid bool, result map[string]any) error {
	rec, err := json.Marshal(map[string]any{"stamp": stamp, "trace": traced, "valid": valid, "result": result})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(rec, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- shared run structure ----

// generatorProcs is the generator's GOMAXPROCS during a measured window.
const generatorProcs = 1

// failedLatency stands in for the latency of a failed op: a failure misses
// every latency limit, so it sorts above every answered op.
const failedLatency = time.Hour

// opClass is the latency sample of one request type.
type opClass struct {
	name    string // the request's name in the README, e.g. "solution"
	lat     []time.Duration
	planned int // planned sample count, which fixes the tail percentile
}

func (c *opClass) add(d time.Duration, ok bool) {
	if !ok {
		d = failedLatency
	}
	c.lat = append(c.lat, d)
}

// put reports the class's median and tail as bench.<role>_p50_ms and
// bench.<role>_tail_ms.
func (c *opClass) put(r *report, role string) {
	pm := tailPerMille(c.planned)
	p50, tail := percentileMs(c.lat, 500), percentileMs(c.lat, pm)
	r.layer["bench."+role+"_p50_ms"] = p50
	r.layer["bench."+role+"_tail_ms"] = tail
	r.linef("%s = %s: p50 %.4g ms, %s %.4g ms (n=%d, planned %d)", role, c.name, p50, pctName(pm), tail, len(c.lat), c.planned)
	if len(c.lat) < c.planned/2 {
		r.linef("warning: %s has %d samples, fewer than half the %d planned", c.name, len(c.lat), c.planned)
	}
}

// serve starts qagviewd with args(i) and brings it to the workload's ready
// state with ready, three times in an untraced run (once when traced). It
// keeps the last server and returns the median set-up time, measured from
// process start until ready returns.
func (e *env) serve(args func(i int) []string, ready func(c caller) error) (*daemon, *httpCaller, float64, error) {
	n := 3
	if e.traced {
		n = 1
	}
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		d, err := startDaemon(e.daemon, e.dir, append([]string{"-execpar", fmt.Sprint(e.nproc)}, args(i)...)...)
		if err != nil {
			return nil, nil, 0, err
		}
		c := newHTTPCaller(d.base, e.nproc)
		if err := ready(c); err != nil {
			d.stop()
			return nil, nil, 0, fmt.Errorf("set-up: %w (server log: %s)", err, d.logTail())
		}
		times = append(times, time.Since(t0).Seconds())
		if i == n-1 {
			return d, c, median(times), nil
		}
		d.stop()
	}
}

// serverMetrics is the part of qagviewd's /metrics the benchmark reads.
type serverMetrics struct {
	Sessions struct {
		Events struct {
			Evictions    int64 `json:"evictions"`
			Refreshes    int64 `json:"refreshes"`
			RefreshNoops int64 `json:"refresh_noops"`
		} `json:"events"`
	} `json:"sessions"`
	AdmissionRejects int64 `json:"admission_rejects"`
	WAL              struct {
		Appends int64 `json:"appends"`
		Fsyncs  int64 `json:"fsyncs"`
		Bytes   int64 `json:"bytes"`
	} `json:"wal"`
}

// measure runs fn as the measured window: it records the server's CPU time
// and /metrics counters around it, and afterwards its peak RSS. It returns
// the bytes the WAL wrote during the window.
func (e *env) measure(d *daemon, c caller, rep *report, ops func() int, fn func()) (walBytes int64, err error) {
	var before, after serverMetrics
	if err := callJSON(c, "GET", "/metrics", nil, 200, &before); err != nil {
		return 0, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return 0, err
	}
	// The generator shares the cores with the server: during the window it
	// runs on one thread with its garbage collector off (a window allocates
	// tens of MiB at most).
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(generatorProcs)
	steal0, total0, err := cpuTicks()
	if err != nil {
		return 0, err
	}
	fn()
	steal1, total1, err := cpuTicks()
	if err != nil {
		return 0, err
	}
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(gc)
	rep.layer["bench.cpu_steal_pct"] = 100 * float64(steal1-steal0) / float64(max(total1-total0, 1))
	rep.linef("cpu steal during the window: %.1f%% of machine CPU time", rep.layer["bench.cpu_steal_pct"])
	cpu1, err := d.cpuTime()
	if err != nil {
		return 0, err
	}
	if err := callJSON(c, "GET", "/metrics", nil, 200, &after); err != nil {
		return 0, err
	}
	if rep.e2e["peak_rss_mb"], err = d.peakRSSMB(); err != nil {
		return 0, err
	}
	if n := ops(); n > 0 {
		rep.e2e["cpu_ms_per_op"] = float64(cpu1-cpu0) / float64(time.Millisecond) / float64(n)
	}
	ev0, ev1 := before.Sessions.Events, after.Sessions.Events
	rep.layer["server.evictions"] = float64(ev1.Evictions - ev0.Evictions)
	rep.layer["server.refreshes"] = float64(ev1.Refreshes - ev0.Refreshes)
	rep.layer["server.refresh_noops"] = float64(ev1.RefreshNoops - ev0.RefreshNoops)
	rep.layer["server.admission_rejects"] = float64(after.AdmissionRejects - before.AdmissionRejects)
	if f := after.WAL.Fsyncs - before.WAL.Fsyncs; f > 0 {
		rep.layer["wal.records_per_fsync"] = float64(after.WAL.Appends-before.WAL.Appends) / float64(f)
	}
	return after.WAL.Bytes - before.WAL.Bytes, nil
}

// finish sets success_ratio from the ops counted so far.
func (r *report) finish() {
	r.e2e["success_ratio"] = ratio(r.attempted-r.failed, r.attempted)
	r.linef("ops: %d attempted, %d failed (%d wrong answers), error_ratio %.6g",
		r.attempted, r.failed, r.wrong, ratio(r.failed, r.attempted))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// medianLen returns the median length of the replies.
func medianLen(replies [][]byte) float64 {
	var ls []float64
	for _, b := range replies {
		ls = append(ls, float64(len(b)))
	}
	return median(ls)
}

// spanReport sets the span-derived per-layer metrics from a replay of ops
// operations.
func spanReport(tr *tracer, ops int, r *report) {
	self := selfTimes(tr.spans)
	byName := map[string][]float64{}
	byLayer := map[string]float64{}
	for i, s := range tr.spans {
		ms := float64(self[i]) / float64(time.Millisecond)
		if s.Op >= 0 || layerOf(s.Name) == "relation" {
			byName[s.Name] = append(byName[s.Name], ms)
		}
		if s.Op >= 0 {
			byLayer[layerOf(s.Name)] += ms
		}
	}
	for _, m := range spanMetrics {
		r.layer[m.metric] = median(byName[m.span])
	}
	for _, l := range layers {
		r.layer["self_ms_per_op."+l] = byLayer[l] / float64(max(ops, 1))
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.linef("span %-26s n=%-6d median self %.4g ms", n, len(byName[n]), median(byName[n]))
	}
}
