// Command promlint validates Prometheus text-exposition output on stdin
// with the same parser the server tests use (internal/obs.ParseExposition),
// histograms included: every _bucket carries le, bounds ascend, counts
// never decrease, the +Inf bucket equals _count, and _sum is present.
// The e2e smoke pipes /metrics?format=prometheus through it so a scrape
// that drifts out of the exposition grammar fails the suite, not just a
// human eyeball.
//
// Usage:
//
//	curl -s localhost:8080/metrics?format=prometheus | promlint \
//	    -require qagviewd_requests_total,qagviewd_goroutines
//
// Exit status is non-zero when the input does not parse or a -require'd
// metric family is absent.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"qagview/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "promlint:", err)
		os.Exit(1)
	}
}

func run() error {
	require := flag.String("require", "", "comma-separated metric family names that must be present")
	flag.Parse()

	raw, err := io.ReadAll(os.Stdin)
	if err != nil {
		return fmt.Errorf("reading stdin: %w", err)
	}
	fams, err := obs.ParseExposition(string(raw))
	if err != nil {
		return fmt.Errorf("exposition does not parse: %w", err)
	}
	have := make(map[string]int, len(fams))
	samples := 0
	for _, f := range fams {
		have[f.Name] = len(f.Samples)
		samples += len(f.Samples)
	}
	if *require != "" {
		var missing []string
		for _, name := range strings.Split(*require, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if have[name] == 0 {
				missing = append(missing, name)
			}
		}
		if len(missing) > 0 {
			return fmt.Errorf("missing required families: %s", strings.Join(missing, ", "))
		}
	}
	fmt.Printf("ok: %d families, %d samples\n", len(fams), samples)
	return nil
}
