package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promWriter renders the Prometheus text exposition format (version
// 0.0.4) by hand: the module takes no dependencies, and the subset the
// registry emits — counters, gauges and histograms with constant labels —
// is small. ParseExposition below is the matching validator used by unit
// tests and the e2e smoke scrape.
type promWriter struct{ strings.Builder }

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
)

// family starts a metric family: its # HELP and # TYPE lines.
func (w *promWriter) family(name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, helpEscaper.Replace(help), name, typ)
}

// sample writes one sample line; labels are key, value pairs.
func (w *promWriter) sample(name string, value float64, labels ...string) {
	w.WriteString(name)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(w, `%s%s="%s"`, sep, labels[i], labelEscaper.Replace(labels[i+1]))
	}
	if len(labels) > 0 {
		w.WriteByte('}')
	}
	// FormatFloat spells the special values as the format does: NaN, ±Inf.
	w.WriteString(" " + strconv.FormatFloat(value, 'g', -1, 64) + "\n")
}

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromFamily is one parsed metric family.
type PromFamily struct {
	Name    string
	Type    string
	Help    string
	Samples []PromSample
}

// ParseExposition parses and validates a Prometheus text-format body.
// It enforces the invariants our encoder (and the scrapers we care
// about) rely on: every sample belongs to a declared family, TYPE is
// counter/gauge/histogram/summary/untyped, metric and label names match
// the Prometheus grammar, values parse as floats, no family is declared
// twice, and every histogram is well formed (see checkHistogram).
func ParseExposition(body string) ([]PromFamily, error) {
	var fams []PromFamily
	byName := map[string]int{}
	for ln, line := range strings.Split(body, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, _ := strings.Cut(rest, " ")
			if !validMetricName(name) {
				return nil, fmt.Errorf("line %d: invalid metric name %q in HELP", lineNo, name)
			}
			if _, dup := byName[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate family %q", lineNo, name)
			}
			byName[name] = len(fams)
			fams = append(fams, PromFamily{Name: name, Help: strings.TrimPrefix(rest, name+" ")})
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: malformed TYPE line", lineNo)
			}
			name, typ := fields[0], fields[1]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: invalid metric type %q", lineNo, typ)
			}
			idx, ok := byName[name]
			if !ok {
				byName[name] = len(fams)
				fams = append(fams, PromFamily{Name: name})
				idx = len(fams) - 1
			}
			if fams[idx].Type != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
			}
			fams[idx].Type = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		famName := s.Name
		// Histogram/summary series attach to their base family.
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(s.Name, suf); base != s.Name {
				if _, ok := byName[base]; ok {
					famName = base
					break
				}
			}
		}
		idx, ok := byName[famName]
		if !ok {
			return nil, fmt.Errorf("line %d: sample %q has no declared family", lineNo, s.Name)
		}
		fams[idx].Samples = append(fams[idx].Samples, s)
	}
	for _, f := range fams {
		if f.Type == "" {
			return nil, fmt.Errorf("family %q has HELP but no TYPE", f.Name)
		}
		if len(f.Samples) == 0 {
			return nil, fmt.Errorf("family %q declared but has no samples", f.Name)
		}
		if f.Type == "histogram" {
			if err := checkHistogram(f); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

// checkHistogram validates each series of a histogram family: only
// _bucket, _sum and _count samples; every _bucket carries le; bounds
// ascend and cumulative counts never decrease; a +Inf bucket equals
// _count; and _sum is present.
func checkHistogram(f PromFamily) error {
	type hseries struct {
		le, cum, inf, count float64 // inf and count stay NaN until seen
		hasSum              bool
	}
	var keys []string
	byKey := map[string]*hseries{}
	for _, s := range f.Samples {
		var parts []string
		for k, v := range s.Labels {
			if k != "le" {
				parts = append(parts, k+"="+v)
			}
		}
		sort.Strings(parts)
		key := strings.Join(parts, ",")
		h := byKey[key]
		if h == nil {
			h = &hseries{le: math.Inf(-1), inf: math.NaN(), count: math.NaN()}
			byKey[key] = h
			keys = append(keys, key)
		}
		switch s.Name {
		case f.Name + "_bucket":
			raw, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram %q {%s}: bucket without le", f.Name, key)
			}
			le, err := parsePromValue(raw)
			if err != nil || math.IsNaN(le) {
				return fmt.Errorf("histogram %q {%s}: bad le %q", f.Name, key, raw)
			}
			if le <= h.le {
				return fmt.Errorf("histogram %q {%s}: bucket bounds do not ascend at le=%q", f.Name, key, raw)
			}
			if s.Value < h.cum {
				return fmt.Errorf("histogram %q {%s}: bucket count decreases at le=%q", f.Name, key, raw)
			}
			h.le, h.cum = le, s.Value
			if math.IsInf(le, 1) {
				h.inf = s.Value
			}
		case f.Name + "_sum":
			h.hasSum = true
		case f.Name + "_count":
			h.count = s.Value
		default:
			return fmt.Errorf("histogram %q: sample %q is not _bucket, _sum or _count", f.Name, s.Name)
		}
	}
	for _, key := range keys {
		h := byKey[key]
		switch {
		case math.IsNaN(h.inf):
			return fmt.Errorf("histogram %q {%s}: no +Inf bucket", f.Name, key)
		case h.count != h.inf: // also when _count is missing (NaN)
			return fmt.Errorf("histogram %q {%s}: _count %v does not equal the +Inf bucket %v", f.Name, key, h.count, h.inf)
		case !h.hasSum:
			return fmt.Errorf("histogram %q {%s}: no _sum", f.Name, key)
		}
	}
	return nil
}

func parseSampleLine(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	rest := line
	brace := strings.IndexByte(rest, '{')
	var nameEnd int
	if brace >= 0 {
		nameEnd = brace
	} else if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		nameEnd = sp
	} else {
		return s, fmt.Errorf("no value on sample line %q", line)
	}
	s.Name = rest[:nameEnd]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[nameEnd:]
	if brace >= 0 {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, err
		}
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " ")
	// A timestamp may follow the value; we only emit value-only lines but
	// accept timestamps for generality.
	valStr, _, _ := strings.Cut(rest, " ")
	v, err := parsePromValue(valStr)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", valStr, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a {k="v",...} block at the start of rest, filling
// into. It returns the index just past the closing brace.
func parseLabels(rest string, into map[string]string) (int, error) {
	i := 1 // past '{'
	for {
		if i >= len(rest) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if rest[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(rest[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("label without '='")
		}
		key := rest[i : i+eq]
		if !validLabelName(key) {
			return 0, fmt.Errorf("invalid label name %q", key)
		}
		i += eq + 1
		if i >= len(rest) || rest[i] != '"' {
			return 0, fmt.Errorf("label value for %q not quoted", key)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(rest) {
				return 0, fmt.Errorf("unterminated label value for %q", key)
			}
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					return 0, fmt.Errorf("dangling escape in label %q", key)
				}
				switch rest[i+1] {
				case '\\':
					val.WriteByte('\\')
				case 'n':
					val.WriteByte('\n')
				case '"':
					val.WriteByte('"')
				default:
					return 0, fmt.Errorf("bad escape \\%c in label %q", rest[i+1], key)
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := into[key]; dup {
			return 0, fmt.Errorf("duplicate label %q", key)
		}
		into[key] = val.String()
		if i < len(rest) && rest[i] == ',' {
			i++
		}
	}
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "NaN":
		return math.NaN(), nil
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// validMetricName reports whether s matches the metric name grammar.
func validMetricName(s string) bool { return validName(s, true) }

// validLabelName reports whether s matches the label name grammar (no
// colons, and the __ prefix is reserved).
func validLabelName(s string) bool { return !strings.HasPrefix(s, "__") && validName(s, false) }

func validName(s string, colons bool) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || colons && c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return s != ""
}
