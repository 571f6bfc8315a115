package obs

import (
	"bytes"
	"fmt"
	"strings"
)

// PromWriter accumulates Prometheus text-exposition-format output. Layers
// that own counters implement a WriteProm(w *obs.PromWriter) method; the
// admin plane calls them per scrape. The exposition groups each metric
// family's lines — its HELP and TYPE header, written on the name's first
// sample, then every sample of that name, a histogram's _bucket, _sum and
// _count lines included — in the order the families first appear, so a
// layer may emit its names in any interleaving (per shard, per backend).
type PromWriter struct {
	families []*bytes.Buffer          // in order of first appearance
	byName   map[string]*bytes.Buffer // family name → its lines
}

// NewPromWriter returns an empty exposition buffer.
func NewPromWriter() *PromWriter {
	return &PromWriter{byName: make(map[string]*bytes.Buffer)}
}

// Labels is an ordered label set. Order is preserved in the exposition so
// output is deterministic (tests and diffs depend on it).
type Labels [][2]string

// L builds a single-label set; chain with Add for more.
func L(key, value string) Labels { return Labels{{key, value}} }

// Add appends a label and returns the extended set.
func (l Labels) Add(key, value string) Labels { return append(l, [2]string{key, value}) }

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// family returns the buffer of family name, opening it with its header on
// the name's first sample.
func (w *PromWriter) family(name, typ, help string) *bytes.Buffer {
	buf := w.byName[name]
	if buf == nil {
		buf = new(bytes.Buffer)
		if help != "" {
			fmt.Fprintf(buf, "# HELP %s %s\n", name, help)
		}
		fmt.Fprintf(buf, "# TYPE %s %s\n", name, typ)
		w.byName[name] = buf
		w.families = append(w.families, buf)
	}
	return buf
}

func sample(buf *bytes.Buffer, name string, labels Labels, value string) {
	buf.WriteString(name)
	if len(labels) > 0 {
		buf.WriteByte('{')
		for i, kv := range labels {
			if i > 0 {
				buf.WriteByte(',')
			}
			fmt.Fprintf(buf, `%s="%s"`, kv[0], escapeLabel(kv[1]))
		}
		buf.WriteByte('}')
	}
	buf.WriteByte(' ')
	buf.WriteString(value)
	buf.WriteByte('\n')
}

// Counter emits one monotonically-increasing sample.
func (w *PromWriter) Counter(name, help string, labels Labels, v uint64) {
	sample(w.family(name, "counter", help), name, labels, fmt.Sprintf("%d", v))
}

// Gauge emits one instantaneous sample.
func (w *PromWriter) Gauge(name, help string, labels Labels, v float64) {
	sample(w.family(name, "gauge", help), name, labels, formatFloat(v))
}

// Histogram emits a snapshot as a classic Prometheus histogram: cumulative
// buckets in seconds, _sum and _count. Only buckets where the cumulative
// count changes are emitted (plus +Inf), keeping the exposition proportional
// to the number of distinct latencies, not the 2k internal buckets.
func (w *PromWriter) Histogram(name, help string, labels Labels, s HistSnapshot) {
	buf := w.family(name, "histogram", help)
	var cum uint64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		le := float64(bucketUpper(i)) / 1e9
		sample(buf, name+"_bucket", labels.Add("le", formatFloat(le)), fmt.Sprintf("%d", cum))
	}
	sample(buf, name+"_bucket", labels.Add("le", "+Inf"), fmt.Sprintf("%d", s.Count))
	sample(buf, name+"_sum", labels, formatFloat(float64(s.Sum)/1e9))
	sample(buf, name+"_count", labels, fmt.Sprintf("%d", s.Count))
}

// Bytes returns the exposition accumulated so far, family by family.
func (w *PromWriter) Bytes() []byte {
	var out []byte
	for _, buf := range w.families {
		out = append(out, buf.Bytes()...)
	}
	return out
}

// formatFloat renders a float without exponent notation surprises for
// integral values (Prometheus accepts both; plain decimals read better).
func formatFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
