package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scrape fetches one daemon's Prometheus exposition from its admin plane.
func scrape(adminAddr string) ([]byte, error) {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", adminAddr, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrapeAll scrapes the daemons' admin planes, one sample list per daemon:
// two backends emit the same series, which only their origin tells apart.
func scrapeAll(daemons []*daemon) ([][]promSample, error) {
	var all [][]promSample
	for _, d := range daemons {
		text, err := scrape(d.admin)
		if err != nil {
			return nil, err
		}
		samples, err := parseProm(text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		all = append(all, samples)
	}
	return all, nil
}

// promSample is one exposition line: metric name, raw label block, value.
type promSample struct {
	name   string
	labels string
	value  float64
}

// parseProm splits exposition text into samples, skipping comments.
func parseProm(text []byte) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("prom: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: value of %q: %w", line, err)
		}
		s := promSample{name: line[:sp], value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			s.name, s.labels = s.name[:i], strings.TrimSuffix(s.name[i+1:], "}")
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// promSum adds up every sample of a counter or gauge across daemons and
// label sets.
func promSum(scrapes [][]promSample, name string) float64 {
	var sum float64
	for _, samples := range scrapes {
		for _, s := range samples {
			if s.name == name {
				sum += s.value
			}
		}
	}
	return sum
}

// mergedHist merges the named histogram across daemons and label sets.
func mergedHist(scrapes [][]promSample, name string) promHist {
	h := promHist{}
	for _, samples := range scrapes {
		h.add(samples, name)
	}
	return h
}

// promHist is a histogram merged across label sets and daemons: observation
// counts keyed by bucket upper bound in seconds.
type promHist map[float64]float64

// add folds in every series of the named histogram found in one daemon's
// samples. A
// series' buckets are cumulative and the daemons emit only buckets where
// the count changes, so each series is first turned back into per-bucket
// counts; series are told apart by their labels other than le.
func (h promHist) add(samples []promSample, name string) {
	prev := make(map[string]float64) // series → cumulative count so far
	for _, s := range samples {
		if s.name != name+"_bucket" {
			continue
		}
		var series []string
		le := ""
		for _, kv := range strings.Split(s.labels, ",") {
			if v, ok := strings.CutPrefix(kv, `le="`); ok {
				le = strings.TrimSuffix(v, `"`)
			} else {
				series = append(series, kv)
			}
		}
		bound := math.Inf(1)
		if le != "+Inf" {
			var err error
			if bound, err = strconv.ParseFloat(le, 64); err != nil {
				continue
			}
		}
		key := strings.Join(series, ",")
		h[bound] += s.value - prev[key]
		prev[key] = s.value
	}
}

func (h promHist) count() float64 {
	var n float64
	for _, c := range h {
		n += c
	}
	return n
}

// quantile returns the upper bound of the bucket holding rank q×count, the
// same rule obs.HistSnapshot.Quantile applies in-process; 0 when empty.
func (h promHist) quantile(q float64) time.Duration {
	bounds := make([]float64, 0, len(h))
	for b := range h {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	target := math.Ceil(q * h.count())
	var cum float64
	for _, b := range bounds {
		if cum += h[b]; cum >= target && cum > 0 {
			if math.IsInf(b, 1) {
				break
			}
			return time.Duration(b * float64(time.Second))
		}
	}
	return 0
}
