package obs

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sampleLine matches one exposition sample against the 0.0.4 text-format
// grammar: metric name, optional label set, and a float value.
var sampleLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$`)

func TestPromExpositionGrammar(t *testing.T) {
	var h Hist
	h.Record(50 * time.Microsecond)
	h.Record(3 * time.Millisecond)
	h.Record(40 * time.Millisecond)
	h.Record(2 * time.Second)

	var w PromWriter
	w.Counter("lsm_requests_total", "Requests.", 42)
	w.Gauge("lsm_active", "Active.", 3)
	w.Histogram("lsm_latency_seconds", "Latency.", h.Snapshot(), "op", "get")
	w.Histogram("lsm_latency_seconds", "Latency.", h.Snapshot(), "op", `we"ird\`)
	w.Fields(JournalSummary{Flushes: 1, FlushNanos: 97_000, ActiveMerges: 2})
	body := string(w.Bytes())
	for _, want := range []string{
		"# TYPE lsm_maintenance_flushes_total counter\nlsm_maintenance_flushes_total 1\n",
		"# TYPE lsm_maintenance_flush_seconds_total counter\nlsm_maintenance_flush_seconds_total 9.7e-05\n",
		"# TYPE lsm_maintenance_active_merges gauge\nlsm_maintenance_active_merges 2\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("Fields did not write %q", want)
		}
	}

	helpSeen := map[string]int{}
	typeSeen := map[string]int{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			helpSeen[strings.Fields(line)[2]]++
		case strings.HasPrefix(line, "# TYPE "):
			typeSeen[strings.Fields(line)[2]]++
		default:
			if !sampleLine.MatchString(line) {
				t.Errorf("line fails exposition grammar: %q", line)
			}
		}
	}
	for _, name := range []string{"lsm_requests_total", "lsm_active", "lsm_latency_seconds"} {
		if helpSeen[name] != 1 || typeSeen[name] != 1 {
			t.Errorf("%s: HELP×%d TYPE×%d, want exactly one each", name, helpSeen[name], typeSeen[name])
		}
	}
}

func TestPromHistogramCumulativity(t *testing.T) {
	var h Hist
	durations := []time.Duration{
		30 * time.Microsecond, // ≤ 0.0001
		200 * time.Microsecond,
		700 * time.Microsecond,
		2 * time.Millisecond,
		2 * time.Millisecond,
		30 * time.Millisecond,
		400 * time.Millisecond,
		3 * time.Second,
		30 * time.Second, // beyond the ladder → only +Inf
	}
	for _, d := range durations {
		h.Record(d)
	}
	var w PromWriter
	w.Histogram("lat", "L.", h.Snapshot())
	body := string(w.Bytes())

	bucketRe := regexp.MustCompile(`^lat_bucket\{le="([^"]+)"\} (\d+)$`)
	var prevCum int64 = -1
	var prevLe float64
	var infCum, count, bucketLines int64
	for _, line := range strings.Split(body, "\n") {
		if m := bucketRe.FindStringSubmatch(line); m != nil {
			bucketLines++
			cum, err := strconv.ParseInt(m[2], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket count %q: %v", m[2], err)
			}
			if cum < prevCum {
				t.Fatalf("cumulative count decreased at le=%s: %d < %d", m[1], cum, prevCum)
			}
			if m[1] == "+Inf" {
				infCum = cum
			} else {
				le, err := strconv.ParseFloat(m[1], 64)
				if err != nil || le <= prevLe {
					t.Fatalf("le ladder not increasing: %q after %v", m[1], prevLe)
				}
				prevLe = le
				// The cumulative count must equal the number of recorded
				// durations ≤ le (every recorded value sits far from bucket
				// edges, so histogram bucketing cannot blur the comparison).
				var want int64
				for _, d := range durations {
					if d.Seconds() <= le {
						want++
					}
				}
				if cum != want {
					t.Errorf("le=%s: cum = %d, want %d", m[1], cum, want)
				}
			}
			prevCum = cum
		}
		if strings.HasPrefix(line, "lat_count ") {
			var err error
			if count, err = strconv.ParseInt(strings.Fields(line)[1], 10, 64); err != nil {
				t.Fatalf("bad _count line %q: %v", line, err)
			}
		}
	}
	if bucketLines != int64(len(promLadder))+1 {
		t.Fatalf("bucket lines = %d, want %d", bucketLines, len(promLadder)+1)
	}
	if infCum != int64(len(durations)) || count != int64(len(durations)) {
		t.Fatalf("+Inf = %d, _count = %d, want both %d", infCum, count, len(durations))
	}
}
