package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// promLadder is the bucket ladder (seconds) the exposition format
// reports. The internal histogram is much finer; exposition buckets are
// computed by summing every internal bucket whose upper bound fits, so
// the cumulative counts are monotone by construction and +Inf always
// equals the observation count.
var promLadder = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// PromWriter accumulates Prometheus text-format (version 0.0.4)
// exposition output. Metrics of the same name must be written
// consecutively; the writer emits # HELP/# TYPE headers once per name.
type PromWriter struct {
	buf  bytes.Buffer
	seen map[string]bool
}

func (w *PromWriter) header(name, help, typ string) {
	if w.seen == nil {
		w.seen = make(map[string]bool)
	}
	if w.seen[name] {
		return
	}
	w.seen[name] = true
	fmt.Fprintf(&w.buf, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// labelString renders alternating key,value pairs as {k="v",...}.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (w *PromWriter) sample(name, help, typ, value string, labels []string) {
	w.header(name, help, typ)
	fmt.Fprintf(&w.buf, "%s%s %s\n", name, labelString(labels), value)
}

// Counter writes one counter sample. labels are alternating key,value.
func (w *PromWriter) Counter(name, help string, value int64, labels ...string) {
	w.sample(name, help, "counter", strconv.FormatInt(value, 10), labels)
}

// Gauge writes one gauge sample.
func (w *PromWriter) Gauge(name, help string, value float64, labels ...string) {
	w.sample(name, help, "gauge", formatFloat(value), labels)
}

// Fields writes one sample per integer field of the struct snapshot that
// carries a `prom:"name,help"` tag, in declaration order. A name ending in
// _total is written as a counter and any other as a gauge; a field whose Go
// name ends in Nanos is written in seconds, with its fraction.
func (w *PromWriter) Fields(snapshot any) {
	v := reflect.ValueOf(snapshot)
	for i := range v.NumField() {
		f := v.Type().Field(i)
		name, help, ok := strings.Cut(f.Tag.Get("prom"), ",")
		if !ok {
			continue
		}
		n := v.Field(i).Int()
		typ, value := "gauge", formatFloat(float64(n))
		if strings.HasSuffix(name, "_total") {
			typ, value = "counter", strconv.FormatInt(n, 10)
		}
		if strings.HasSuffix(f.Name, "Nanos") {
			value = formatFloat(float64(n) / 1e9)
		}
		w.sample(name, help, typ, value, nil)
	}
}

// Histogram writes one histogram in exposition format: cumulative
// `_bucket{le=...}` samples over promLadder, then `_sum` and `_count`.
// The snapshot's nanosecond values are reported in seconds.
func (w *PromWriter) Histogram(name, help string, s HistSnapshot, labels ...string) {
	w.header(name, help, "histogram")
	idxs := s.sortedBuckets()
	var cum int64
	k := 0
	for _, le := range promLadder {
		leNanos := int64(le * 1e9)
		for k < len(idxs) {
			_, hi := bucketBounds(idxs[k])
			if hi > leNanos {
				break
			}
			cum += int64(s.Buckets[idxs[k]])
			k++
		}
		fmt.Fprintf(&w.buf, "%s_bucket%s %d\n",
			name, labelString(append(append([]string(nil), labels...), "le", formatFloat(le))), cum)
	}
	fmt.Fprintf(&w.buf, "%s_bucket%s %d\n",
		name, labelString(append(append([]string(nil), labels...), "le", "+Inf")), s.Count)
	fmt.Fprintf(&w.buf, "%s_sum%s %s\n", name, labelString(labels), formatFloat(float64(s.SumNanos)/1e9))
	fmt.Fprintf(&w.buf, "%s_count%s %d\n", name, labelString(labels), s.Count)
}

// HistogramMap writes one histogram per map entry, with the map key as
// the given label, in sorted key order (the exposition format requires
// same-name metrics to be consecutive).
func (w *PromWriter) HistogramMap(name, help, label string, m map[string]HistSnapshot) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.Histogram(name, help, m[k], label, k)
	}
}

// Bytes returns the accumulated exposition body.
func (w *PromWriter) Bytes() []byte { return w.buf.Bytes() }
