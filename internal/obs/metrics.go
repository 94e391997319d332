package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count. The zero value is ready to
// use; Inc and Add are one atomic add each.
type Counter struct{ n atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Load returns the count.
func (c *Counter) Load() int64 { return c.n.Load() }

// bucketsMs are the upper bounds, in milliseconds, of every Histogram's
// buckets: log-linear, nine linear steps per decade (1, 2, …, 9 × 10^e)
// from 0.01 ms to 90 s. A +Inf bucket follows the last bound.
var bucketsMs = func() (b [63]float64) {
	for i := range b {
		// Parsed, not multiplied: 3e-2 is exactly the double nearest 0.03.
		b[i], _ = strconv.ParseFloat(strconv.Itoa(i%9+1)+"e"+strconv.Itoa(i/9-2), 64)
	}
	return b
}()

// bucketLabels are the le label values of the buckets, +Inf last.
var bucketLabels = func() (l [len(bucketsMs) + 1]string) {
	for i, b := range bucketsMs {
		l[i] = strconv.FormatFloat(b, 'g', -1, 64)
	}
	l[len(bucketsMs)] = "+Inf"
	return l
}()

// Histogram counts durations into the fixed bucketsMs buckets. The zero
// value is ready to use; Observe is two atomic adds and takes no lock.
type Histogram struct {
	counts [len(bucketsMs) + 1]atomic.Int64
	sumNs  atomic.Int64
}

// Observe counts one duration.
func (h *Histogram) Observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	h.counts[sort.SearchFloat64s(bucketsMs[:], ms)].Add(1)
	h.sumNs.Add(int64(d))
}

// snapshot loads the bucket counts and their total. The total is the sum of
// the loaded buckets, so a render's +Inf bucket always equals its count.
func (h *Histogram) snapshot() (counts [len(bucketsMs) + 1]int64, total int64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, total
}

// quantile estimates the q-quantile in milliseconds, interpolating linearly
// inside the bucket the rank falls in; ranks in the +Inf bucket report the
// largest finite bound. It is 0 for an empty histogram.
func quantile(counts []int64, total int64, q float64) float64 {
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 || float64(cum+c) < rank {
			cum += c
			continue
		}
		if i == len(bucketsMs) {
			break
		}
		lo := 0.0
		if i > 0 {
			lo = bucketsMs[i-1]
		}
		return lo + (bucketsMs[i]-lo)*(rank-float64(cum))/float64(c)
	}
	if total == 0 {
		return 0
	}
	return bucketsMs[len(bucketsMs)-1]
}

// Opts declares one metric series.
type Opts struct {
	// Name is the Prometheus family; Help its help text.
	Name, Help string
	// Labels are the series' constant label pairs: key, value, ...
	Labels []string
	// JSON is the dot-separated path of the value in the JSON report. A
	// histogram reports <JSON>count, <JSON>p50_ms and <JSON>p99_ms.
	JSON string
}

type series struct {
	Opts
	typ     string // "counter", "gauge" or "histogram"
	counter *Counter
	gauge   func() float64
	hist    *Histogram
}

// Registry is the one list of a process's metrics: the Prometheus text and
// the JSON report both render from it, so neither can carry a number the
// other lacks. Declaring a series takes a lock; updating one never does.
type Registry struct {
	mu     sync.Mutex
	series []*series
	seen   map[string]string // family -> type, plus series ids and JSON keys
}

// Counter declares c.
func (r *Registry) Counter(c *Counter, o Opts) { r.add(&series{Opts: o, typ: "counter", counter: c}) }

// Gauge declares a value f reports at render time.
func (r *Registry) Gauge(f func() float64, o Opts) { r.add(&series{Opts: o, typ: "gauge", gauge: f}) }

// Histogram declares h.
func (r *Registry) Histogram(h *Histogram, o Opts) {
	r.add(&series{Opts: o, typ: "histogram", hist: h})
}

// add panics on a series or JSON key declared twice and on a family
// declared with two types: programming errors that would make the two
// renderings disagree.
func (r *Registry) add(s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen == nil {
		r.seen = map[string]string{}
	}
	id := "series " + s.Name + "{" + strings.Join(s.Labels, ",") + "}"
	if typ, ok := r.seen["family "+s.Name]; ok && typ != s.typ {
		panic(fmt.Sprintf("obs: family %s declared as %s and %s", s.Name, typ, s.typ))
	}
	for _, k := range []string{id, "json " + s.JSON} {
		if _, dup := r.seen[k]; dup {
			panic("obs: metric declared twice: " + k)
		}
		r.seen[k] = ""
	}
	r.seen["family "+s.Name] = s.typ
	r.series = append(r.series, s)
}

// sorted returns the series ordered by family name, then label values, so
// successive scrapes list samples identically.
func (r *Registry) sorted() []*series {
	r.mu.Lock()
	out := append([]*series(nil), r.series...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		return a.Name < b.Name || a.Name == b.Name && strings.Join(a.Labels, "\xff") < strings.Join(b.Labels, "\xff")
	})
	return out
}

// Prometheus renders every series in the text exposition format (version
// 0.0.4). Histograms render cumulative _bucket{le} series, _sum (ms) and
// _count.
func (r *Registry) Prometheus() string {
	var w promWriter
	prev := ""
	for _, s := range r.sorted() {
		if s.Name != prev {
			w.family(s.Name, s.typ, s.Help)
			prev = s.Name
		}
		switch s.typ {
		case "counter":
			w.sample(s.Name, float64(s.counter.Load()), s.Labels...)
		case "gauge":
			w.sample(s.Name, s.gauge(), s.Labels...)
		case "histogram":
			counts, total := s.hist.snapshot()
			labels := append(s.Labels[:len(s.Labels):len(s.Labels)], "le", "")
			var cum int64
			for i, c := range counts {
				cum += c
				labels[len(labels)-1] = bucketLabels[i]
				w.sample(s.Name+"_bucket", float64(cum), labels...)
			}
			w.sample(s.Name+"_sum", float64(s.hist.sumNs.Load())/float64(time.Millisecond), s.Labels...)
			w.sample(s.Name+"_count", float64(total), s.Labels...)
		}
	}
	return w.String()
}

// JSON renders every series into a nested map along its JSON path.
// Histogram quantiles come from the buckets, counted since the start.
func (r *Registry) JSON() map[string]any {
	root := map[string]any{}
	for _, s := range r.sorted() {
		switch s.typ {
		case "counter":
			put(root, s.JSON, s.counter.Load())
		case "gauge":
			put(root, s.JSON, s.gauge())
		case "histogram":
			counts, total := s.hist.snapshot()
			put(root, s.JSON+"count", total)
			put(root, s.JSON+"p50_ms", quantile(counts[:], total, 0.50))
			put(root, s.JSON+"p99_ms", quantile(counts[:], total, 0.99))
		}
	}
	return root
}

// put stores v at the dot-separated path under root.
func put(root map[string]any, path string, v any) {
	keys := strings.Split(path, ".")
	m := root
	for _, k := range keys[:len(keys)-1] {
		next, ok := m[k].(map[string]any)
		if !ok {
			next = map[string]any{}
			m[k] = next
		}
		m = next
	}
	m[keys[len(keys)-1]] = v
}
