package obs

import (
	"math"
	"sort"
	"strings"
	"testing"
)

// findSample locates a sample by family name and an exact label subset
// match (every given label must be present with the given value).
func findSample(fams []PromFamily, name string, labels map[string]string) (PromSample, bool) {
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			match := true
			for k, v := range labels {
				match = match && s.Labels[k] == v
			}
			if match {
				return s, true
			}
		}
	}
	return PromSample{}, false
}

// familyNames returns the sorted names of all parsed families.
func familyNames(fams []PromFamily) []string {
	var names []string
	for _, f := range fams {
		names = append(names, f.Name)
	}
	sort.Strings(names)
	return names
}

func TestPromRoundTrip(t *testing.T) {
	var reg Registry
	var queries, health Counter
	queries.Add(12)
	health.Add(3)
	reg.Counter(&queries, Opts{Name: "qag_requests_total", Help: "Requests by route and code.", Labels: []string{"route", "POST /v1/queries", "code", "200"}, JSON: "q"})
	reg.Counter(&health, Opts{Name: "qag_requests_total", Help: "Requests by route and code.", Labels: []string{"route", "GET /healthz", "code", "200"}, JSON: "h"})
	reg.Gauge(func() float64 { return 1048576 }, Opts{Name: "qag_heap_bytes", Help: "Heap in use.", JSON: "heap"})
	reg.Gauge(func() float64 { return math.Inf(1) }, Opts{Name: "qag_weird", Help: `escapes \ and "quotes"`, Labels: []string{"v", "a\\b\"c\nd"}, JSON: "weird"})

	body := reg.Prometheus()
	fams, err := ParseExposition(body)
	if err != nil {
		t.Fatalf("our own output failed to parse: %v\n%s", err, body)
	}
	if len(fams) != 3 {
		t.Fatalf("families %d, want 3", len(fams))
	}
	s, ok := findSample(fams, "qag_requests_total", map[string]string{"route": "POST /v1/queries"})
	if !ok || s.Value != 12 || s.Labels["code"] != "200" {
		t.Fatalf("lookup failed: %+v ok=%v", s, ok)
	}
	if s, ok := findSample(fams, "qag_heap_bytes", nil); !ok || s.Value != 1048576 {
		t.Fatalf("unlabeled lookup: %+v ok=%v", s, ok)
	}
	s, ok = findSample(fams, "qag_weird", nil)
	if !ok || !math.IsInf(s.Value, 1) {
		t.Fatalf("inf value: %+v", s)
	}
	if s.Labels["v"] != "a\\b\"c\nd" {
		t.Fatalf("label escaping roundtrip: %q", s.Labels["v"])
	}
	names := familyNames(fams)
	if strings.Join(names, ",") != "qag_heap_bytes,qag_requests_total,qag_weird" {
		t.Fatalf("names %v", names)
	}
}

func TestParseExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample without family": "orphan_metric 1\n",
		"bad type":              "# HELP m h\n# TYPE m enum\nm 1\n",
		"no TYPE":               "# HELP m h\nm 1\n",
		"family without sample": "# HELP m h\n# TYPE m gauge\n",
		"bad metric name":       "# HELP 9bad h\n# TYPE 9bad gauge\n9bad 1\n",
		"bad value":             "# HELP m h\n# TYPE m gauge\nm notafloat\n",
		"unterminated labels":   "# HELP m h\n# TYPE m gauge\nm{a=\"x\n",
		"duplicate family":      "# HELP m h\n# TYPE m gauge\nm 1\n# HELP m h\n# TYPE m gauge\nm 2\n",
		"duplicate label":       "# HELP m h\n# TYPE m gauge\nm{a=\"1\",a=\"2\"} 3\n",
		"reserved label":        "# HELP m h\n# TYPE m gauge\nm{__a=\"1\"} 3\n",
	}
	for name, body := range cases {
		if _, err := ParseExposition(body); err == nil {
			t.Errorf("%s: expected parse error for %q", name, body)
		}
	}
}

func TestParseExpositionAcceptsTimestampAndComments(t *testing.T) {
	body := "# scraped by test\n# HELP m h\n# TYPE m counter\nm{a=\"b\"} 4 1712345678\n"
	fams, err := ParseExposition(body)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if s, ok := findSample(fams, "m", nil); !ok || s.Value != 4 {
		t.Fatalf("sample %+v ok=%v", s, ok)
	}
}
