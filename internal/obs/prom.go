package obs

import (
	"bytes"
	"fmt"
	"strings"
)

// PromWriter accumulates Prometheus text-exposition-format output. Layers
// that own counters implement a WriteProm(w *obs.PromWriter) method; the
// admin plane calls them per scrape. Emit metrics for one name together —
// the TYPE header is written once, on the name's first sample.
type PromWriter struct {
	buf   bytes.Buffer
	typed map[string]string // name → emitted TYPE
}

// NewPromWriter returns an empty exposition buffer.
func NewPromWriter() *PromWriter {
	return &PromWriter{typed: make(map[string]string)}
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

func (w *PromWriter) header(name, typ, help string) {
	if w.typed[name] == "" {
		if help != "" {
			fmt.Fprintf(&w.buf, "# HELP %s %s\n", name, help)
		}
		fmt.Fprintf(&w.buf, "# TYPE %s %s\n", name, typ)
		w.typed[name] = typ
	}
}

func (w *PromWriter) sample(name string, labels Labels, value string) {
	w.buf.WriteString(name)
	if len(labels) > 0 {
		w.buf.WriteByte('{')
		for i, kv := range labels {
			if i > 0 {
				w.buf.WriteByte(',')
			}
			fmt.Fprintf(&w.buf, `%s="%s"`, kv[0], escapeLabel(kv[1]))
		}
		w.buf.WriteByte('}')
	}
	w.buf.WriteByte(' ')
	w.buf.WriteString(value)
	w.buf.WriteByte('\n')
}

// Counter emits one monotonically-increasing sample.
func (w *PromWriter) Counter(name, help string, labels Labels, v uint64) {
	w.header(name, "counter", help)
	w.sample(name, labels, fmt.Sprintf("%d", v))
}

// Gauge emits one instantaneous sample.
func (w *PromWriter) Gauge(name, help string, labels Labels, v float64) {
	w.header(name, "gauge", help)
	w.sample(name, labels, formatFloat(v))
}

// Histogram emits a snapshot as a classic Prometheus histogram: cumulative
// buckets in seconds, _sum and _count. Only buckets where the cumulative
// count changes are emitted (plus +Inf), keeping the exposition proportional
// to the number of distinct latencies, not the 2k internal buckets.
func (w *PromWriter) Histogram(name, help string, labels Labels, s HistSnapshot) {
	w.header(name, "histogram", help)
	var cum uint64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		le := float64(bucketUpper(i)) / 1e9
		w.sample(name+"_bucket", labels.Add("le", formatFloat(le)), fmt.Sprintf("%d", cum))
	}
	w.sample(name+"_bucket", labels.Add("le", "+Inf"), fmt.Sprintf("%d", s.Count))
	w.sample(name+"_sum", labels, formatFloat(float64(s.Sum)/1e9))
	w.sample(name+"_count", labels, fmt.Sprintf("%d", s.Count))
}

// Bytes returns the exposition accumulated so far.
func (w *PromWriter) Bytes() []byte { return w.buf.Bytes() }

// formatFloat renders a float without exponent notation surprises for
// integral values (Prometheus accepts both; plain decimals read better).
func formatFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
