package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"wmcs/internal/detorder"
)

// This file is the scrape side of prom.go: a strict parser for the text
// exposition format, used by wmcsload's run report and by the /metricsz
// tests. Strict means every line must be a well-formed comment or
// sample — a malformed line is an error, not a skip — because the
// parser's main job here is to certify that the daemon's exposition is
// valid, not to survive someone else's.

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromFamily groups the samples of one metric family with its declared
// type. Histogram families collect their _bucket/_sum/_count samples.
type PromFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []PromSample
}

// PromDoc is one parsed exposition document.
type PromDoc struct {
	Families map[string]*PromFamily
	// Order preserves first-appearance family order (tests diff layouts).
	Order []string
}

// ParseProm parses a text exposition document.
func ParseProm(r io.Reader) (*PromDoc, error) {
	doc := &PromDoc{Families: make(map[string]*PromFamily)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := doc.parseComment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		f := doc.family(familyName(s.Name))
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return doc, nil
}

// familyName strips the histogram/summary sample suffixes so _bucket,
// _sum and _count land in their family.
func familyName(sample string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		s := strings.TrimSuffix(sample, suf)
		if s != sample {
			return s
		}
	}
	return sample
}

func (d *PromDoc) family(name string) *PromFamily {
	if f, ok := d.Families[name]; ok {
		return f
	}
	f := &PromFamily{Name: name, Type: "untyped"}
	d.Families[name] = f
	d.Order = append(d.Order, name)
	return f
}

func (d *PromDoc) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare "#" comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		f := d.family(fields[2])
		if len(fields) == 4 {
			f.Help = fields[3]
		}
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		d.family(fields[2]).Type = fields[3]
	}
	return nil
}

func parseSample(line string) (PromSample, error) {
	s := PromSample{}
	rest := line
	// Metric name: up to '{' or whitespace.
	end := strings.IndexAny(rest, "{ \t")
	if end <= 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = rest[:end]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[end:]
	if rest[0] == '{' {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		s.Labels = labels
		rest = tail
	}
	rest = strings.TrimSpace(rest)
	// A timestamp may follow the value; the daemon never emits one, but
	// accept it (split on whitespace, value first).
	valStr, _, _ := strings.Cut(rest, " ")
	if valStr == "" {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	v, err := parsePromValue(valStr)
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", valStr, line)
	}
	s.Value = v
	return s, nil
}

func parsePromValue(v string) (float64, error) {
	switch v {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(v, 64)
}

func validMetricName(s string) bool {
	for i, c := range s {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return s != ""
}

// parseLabels consumes a {k="v",...} block, returning the map and the
// remaining tail after '}'.
func parseLabels(s string) (map[string]string, string, error) {
	labels := make(map[string]string)
	i := 1 // past '{'
	for {
		// Skip whitespace and a trailing comma.
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return labels, s[i+1:], nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		key := s[i : i+eq]
		if !validMetricName(key) {
			return nil, "", fmt.Errorf("invalid label name %q", key)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return nil, "", fmt.Errorf("label %q value is not quoted", key)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return nil, "", fmt.Errorf("unterminated label value for %q", key)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("dangling escape in label %q", key)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("bad escape %q in label %q", s[i:i+2], key)
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels[key] = val.String()
	}
}

// Get returns the value of the sample with exactly the given name whose
// labels include every pair in match (nil matches any sample of the
// name; the first match in document order wins).
func (d *PromDoc) Get(name string, match map[string]string) (float64, bool) {
	f, ok := d.Families[familyName(name)]
	if !ok {
		return 0, false
	}
	for _, s := range f.Samples {
		if s.Name != name || !labelsMatch(s.Labels, match) {
			continue
		}
		return s.Value, true
	}
	return 0, false
}

// Sum adds the values of every sample with the given name whose labels
// include every pair in match.
func (d *PromDoc) Sum(name string, match map[string]string) float64 {
	f, ok := d.Families[familyName(name)]
	if !ok {
		return 0
	}
	total := 0.0
	for _, s := range f.Samples {
		if s.Name == name && labelsMatch(s.Labels, match) {
			total += s.Value
		}
	}
	return total
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// CheckHistograms validates every histogram family: cumulative buckets
// must be monotone in le within each series, the +Inf bucket must equal
// the series' _count, and _sum must be present and non-negative for
// all-non-negative observations (latencies). It returns the first
// violation found.
func (d *PromDoc) CheckHistograms() error {
	for _, name := range d.Order {
		f := d.Families[name]
		if f.Type != "histogram" {
			continue
		}
		series := map[string][]PromSample{} // key: labels minus le
		sums := map[string]float64{}
		counts := map[string]float64{}
		haveSum := map[string]bool{}
		haveCount := map[string]bool{}
		for _, s := range f.Samples {
			key := seriesKey(s.Labels)
			switch s.Name {
			case name + "_bucket":
				series[key] = append(series[key], s)
			case name + "_sum":
				sums[key] = s.Value
				haveSum[key] = true
			case name + "_count":
				counts[key] = s.Value
				haveCount[key] = true
			}
		}
		for key, buckets := range series {
			sort.Slice(buckets, func(i, j int) bool {
				return leOf(buckets[i]) < leOf(buckets[j])
			})
			prev := -1.0
			var inf float64
			haveInf := false
			for _, b := range buckets {
				if b.Value < prev {
					return fmt.Errorf("%s{%s}: bucket counts not monotone (le=%g: %g < %g)",
						name, key, leOf(b), b.Value, prev)
				}
				prev = b.Value
				if math.IsInf(leOf(b), 1) {
					inf, haveInf = b.Value, true
				}
			}
			if !haveInf {
				return fmt.Errorf("%s{%s}: no +Inf bucket", name, key)
			}
			if !haveCount[key] || !haveSum[key] {
				return fmt.Errorf("%s{%s}: missing _sum or _count", name, key)
			}
			if inf != counts[key] {
				return fmt.Errorf("%s{%s}: +Inf bucket %g != count %g", name, key, inf, counts[key])
			}
			if sums[key] < 0 {
				return fmt.Errorf("%s{%s}: negative sum %g", name, key, sums[key])
			}
		}
	}
	return nil
}

func leOf(s PromSample) float64 {
	v, err := parsePromValue(s.Labels["le"])
	if err != nil {
		return math.NaN()
	}
	return v
}

// seriesKey renders labels-minus-le deterministically.
func seriesKey(labels map[string]string) string {
	parts := make([]string, 0, len(labels))
	for k, v := range detorder.Sorted(labels) {
		if k != "le" {
			parts = append(parts, k+"="+v)
		}
	}
	return strings.Join(parts, ",")
}
