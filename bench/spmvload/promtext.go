package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// metricsText is one scrape of the daemon's /metrics: series name, with its
// label set exactly as printed (`spmvd_requests_total{endpoint="spmv"}`),
// to value.
type metricsText map[string]float64

// parseMetrics reads the daemon's text exposition: one `name value` or
// `name{labels} value` per line; blank lines and # comments are skipped.
// A line that is neither is an error — the scrape feeds asserted
// invariants, so a format drift must not read as zeros.
func parseMetrics(text string) (metricsText, error) {
	m := metricsText{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is the last field; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: no value in line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		m[strings.TrimSpace(line[:i])] = v
	}
	return m, sc.Err()
}

// get returns a series that must exist: a missing name means the daemon's
// exposition changed under the benchmark.
func (m metricsText) get(name string) (float64, error) {
	v, ok := m[name]
	if !ok {
		return 0, fmt.Errorf("metrics: series %q missing from /metrics", name)
	}
	return v, nil
}

// endpoint names a per-endpoint series.
func endpoint(family, ep string) string {
	return fmt.Sprintf("%s{endpoint=%q}", family, ep)
}

// delta is after − before for every series of after.
func (after metricsText) delta(before metricsText) metricsText {
	d := metricsText{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
