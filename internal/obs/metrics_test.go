package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundsAscendAndPrintExactly(t *testing.T) {
	for i := 1; i < len(bucketsMs); i++ {
		if bucketsMs[i] <= bucketsMs[i-1] {
			t.Fatalf("bound %d (%v) not above bound %d (%v)", i, bucketsMs[i], i-1, bucketsMs[i-1])
		}
	}
	for i, want := range map[int]string{0: "0.01", 2: "0.03", 8: "0.09", 9: "0.1", 24: "7", 62: "90000"} {
		if got := bucketLabels[i]; got != want {
			t.Errorf("bound %d renders %q, want %q", i, got, want)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	counts, total := h.snapshot()
	if q := quantile(counts[:], total, 0.5); q != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", q)
	}
	// 90 fast observations in (1, 2] ms, 10 slow ones in (40, 50] ms.
	for i := 0; i < 90; i++ {
		h.Observe(1500 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(45 * time.Millisecond)
	}
	counts, total = h.snapshot()
	if total != 100 {
		t.Fatalf("total = %d, want 100", total)
	}
	if p50 := quantile(counts[:], total, 0.5); p50 <= 1 || p50 > 2 {
		t.Fatalf("p50 = %v, want in (1, 2]", p50)
	}
	if p99 := quantile(counts[:], total, 0.99); p99 <= 40 || p99 > 50 {
		t.Fatalf("p99 = %v, want in (40, 50]", p99)
	}
	// Past the last bound: the +Inf bucket reports the largest bound.
	var slow Histogram
	slow.Observe(time.Hour)
	counts, total = slow.snapshot()
	if q := quantile(counts[:], total, 0.5); q != bucketsMs[len(bucketsMs)-1] {
		t.Fatalf("+Inf quantile = %v", q)
	}
}

func TestRegistryRendersOneList(t *testing.T) {
	var reg Registry
	var hits, misses Counter
	var lat Histogram
	reg.Counter(&misses, Opts{Name: "qag_lookups_total", Help: "Lookups.", Labels: []string{"result", "miss"}, JSON: "lookups.miss"})
	reg.Counter(&hits, Opts{Name: "qag_lookups_total", Help: "Lookups.", Labels: []string{"result", "hit"}, JSON: "lookups.hit"})
	reg.Gauge(func() float64 { return 3 }, Opts{Name: "qag_live", Help: "Live things.", JSON: "live"})
	reg.Histogram(&lat, Opts{Name: "qag_latency_ms", Help: "Latency.", Labels: []string{"route", "r"}, JSON: "routes.r."})
	hits.Add(5)
	misses.Inc()
	lat.Observe(2 * time.Millisecond)

	fams, err := ParseExposition(reg.Prometheus())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, reg.Prometheus())
	}
	if got := strings.Join(familyNames(fams), ","); got != "qag_latency_ms,qag_live,qag_lookups_total" {
		t.Fatalf("families %s", got)
	}
	// Series of a family list in label order, whatever the declaration order.
	if fams[2].Samples[0].Labels["result"] != "hit" {
		t.Fatalf("series not sorted by label: %+v", fams[2].Samples)
	}
	if s, ok := findSample(fams, "qag_lookups_total", map[string]string{"result": "hit"}); !ok || s.Value != 5 {
		t.Fatalf("hit counter: %+v ok=%v", s, ok)
	}
	if s, ok := findSample(fams, "qag_latency_ms", map[string]string{"le": "+Inf"}); !ok || s.Value != 1 {
		t.Fatalf("+Inf bucket: %+v ok=%v", s, ok)
	}
	if s, ok := findSample(fams, "qag_latency_ms", map[string]string{"le": "2"}); !ok || s.Value != 1 {
		t.Fatalf("le=2 bucket: %+v ok=%v", s, ok)
	}

	js := reg.JSON()
	if js["lookups"].(map[string]any)["hit"] != int64(5) || js["live"] != 3.0 {
		t.Fatalf("JSON %v", js)
	}
	r := js["routes"].(map[string]any)["r"].(map[string]any)
	if r["count"] != int64(1) || r["p50_ms"].(float64) <= 1 || r["p99_ms"].(float64) > 2 {
		t.Fatalf("histogram JSON %v", r)
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	for name, second := range map[string]Opts{
		"same series":   {Name: "m", Labels: []string{"a", "1"}, JSON: "other"},
		"same JSON key": {Name: "m", Labels: []string{"a", "2"}, JSON: "m.one"},
	} {
		var reg Registry
		var c Counter
		reg.Counter(&c, Opts{Name: "m", Labels: []string{"a", "1"}, JSON: "m.one"})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: declared twice without a panic", name)
				}
			}()
			reg.Counter(&c, second)
		}()
	}
	var reg Registry
	reg.Gauge(func() float64 { return 0 }, Opts{Name: "m", JSON: "a"})
	defer func() {
		if recover() == nil {
			t.Error("a family declared with two types did not panic")
		}
	}()
	var h Histogram
	reg.Histogram(&h, Opts{Name: "m", Labels: []string{"x", "y"}, JSON: "b."})
}

// TestRegistryObserveRendersRace renders both formats while observers run;
// under -race it pins that the request path shares no unsynchronized state
// with a scrape.
func TestRegistryObserveRendersRace(t *testing.T) {
	var reg Registry
	var h Histogram
	var c Counter
	reg.Histogram(&h, Opts{Name: "m_ms", JSON: "m."})
	reg.Counter(&c, Opts{Name: "n_total", JSON: "n"})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
				c.Inc()
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := ParseExposition(reg.Prometheus()); err != nil {
			t.Fatal(err)
		}
		_ = reg.JSON()
	}
	wg.Wait()
}

func TestParseExpositionRejectsMalformedHistograms(t *testing.T) {
	const head = "# HELP h x\n# TYPE h histogram\n"
	cases := map[string]string{
		"bucket without le":    `h_bucket{a="1"} 1` + "\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"bounds not ascending": "h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"counts decrease":      "h_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"+Inf differs":         "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"no +Inf":              "h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"no _count":            "h_bucket{le=\"+Inf\"} 1\nh_sum 1\n",
		"no _sum":              "h_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"bare sample":          "h 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"bad le":               "h_bucket{le=\"x\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"second series broken": "h_bucket{r=\"a\",le=\"+Inf\"} 1\nh_sum{r=\"a\"} 1\nh_count{r=\"a\"} 1\nh_bucket{r=\"b\",le=\"+Inf\"} 1\nh_count{r=\"b\"} 1\n",
	}
	for name, body := range cases {
		if _, err := ParseExposition(head + body); err == nil {
			t.Errorf("%s: expected an error for\n%s", name, body)
		}
	}
	ok := head + "h_bucket{r=\"a\",le=\"1\"} 0\nh_bucket{r=\"a\",le=\"+Inf\"} 2\nh_sum{r=\"a\"} 3.5\nh_count{r=\"a\"} 2\n"
	if _, err := ParseExposition(ok); err != nil {
		t.Fatalf("well-formed histogram rejected: %v", err)
	}
}
