package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): a # HELP/# TYPE header per
// family, families sorted by name, series sorted by label set, and
// histograms expanded into _bucket{le=...}/_sum/_count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.gather() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			if f.kind == KindHistogram {
				writeHistogram(bw, f.name, s)
				continue
			}
			fmt.Fprintf(bw, "%s%s %s\n", f.name, s.labels, formatFloat(s.value))
		}
	}
	return bw.Flush()
}

// writeHistogram expands one histogram series into buckets/sum/count.
// The le label is appended to any registered labels; the _count line
// is the +Inf cumulative count so buckets and count always agree
// within one exposition even under concurrent Observes.
func writeHistogram(w io.Writer, name string, s gatheredSeries) {
	for i, c := range s.cumulative {
		le := "+Inf"
		if i < len(s.bounds) {
			le = formatFloat(s.bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(s.labels, "le", le), c)
	}
	total := int64(0)
	if n := len(s.cumulative); n > 0 {
		total = s.cumulative[n-1]
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatFloat(s.sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, total)
}

// mergeLabels appends key="value" to an already-rendered label set.
func mergeLabels(rendered, key, value string) string {
	extra := key + `="` + escapeLabel(value) + `"`
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

// varsSeries is one series in the /debug/vars JSON snapshot.
type varsSeries struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  *float64          `json:"value,omitempty"`
	// Histogram fields.
	Count   *int64           `json:"count,omitempty"`
	Sum     *float64         `json:"sum,omitempty"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

type varsFamily struct {
	Type   string       `json:"type"`
	Help   string       `json:"help,omitempty"`
	Series []varsSeries `json:"series"`
}

// WriteJSON renders the registry as a JSON snapshot: a map from family
// name to {type, help, series}. This is the GET /debug/vars body.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make(map[string]varsFamily)
	for _, f := range r.gather() {
		vf := varsFamily{Type: f.kind.String(), Help: f.help}
		for _, s := range f.series {
			vs := varsSeries{Labels: parseLabelString(s.labels)}
			if f.kind == KindHistogram {
				total := int64(0)
				if n := len(s.cumulative); n > 0 {
					total = s.cumulative[n-1]
				}
				sum := s.sum
				vs.Count, vs.Sum = &total, &sum
				vs.Buckets = make(map[string]int64, len(s.cumulative))
				for i, c := range s.cumulative {
					le := "+Inf"
					if i < len(s.bounds) {
						le = formatFloat(s.bounds[i])
					}
					vs.Buckets[le] = c
				}
			} else {
				v := s.value
				vs.Value = &v
			}
			vf.Series = append(vf.Series, vs)
		}
		out[f.name] = vf
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Handler serves the registry as Prometheus text, whatever the request
// asks for; WriteJSON is its one JSON view (swpfd's GET /debug/vars).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// ParseText is a minimal Prometheus text-format parser covering what
// WritePrometheus emits: HELP/TYPE comments, counter/gauge/histogram
// samples, escaped label values. It exists so tests and swpfctl top
// consume the wire format itself rather than a parallel code path.
// Histogram _bucket/_sum/_count lines come back as individual samples
// named as written (with Kind inherited from the family's TYPE line).
func ParseText(r io.Reader) ([]Sample, error) {
	var out []Sample
	kinds := make(map[string]Kind)
	helps := make(map[string]string)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 4 && fields[1] == "HELP" {
				helps[fields[2]] = fields[3]
			}
			if len(fields) >= 4 && fields[1] == "TYPE" {
				switch fields[3] {
				case "counter":
					kinds[fields[2]] = KindCounter
				case "gauge":
					kinds[fields[2]] = KindGauge
				case "histogram":
					kinds[fields[2]] = KindHistogram
				}
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", n, err)
		}
		base := s.Name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if k, ok := kinds[strings.TrimSuffix(s.Name, suf)]; ok && k == KindHistogram {
				base = strings.TrimSuffix(s.Name, suf)
				break
			}
		}
		s.Kind = kinds[base]
		s.Help = helps[base]
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseSampleLine parses `name{k="v",...} value`.
func parseSampleLine(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := labelEnd(rest)
		if end < 0 {
			return s, fmt.Errorf("unterminated labels in %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, fmt.Errorf("%v in %q", err, line)
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	val := strings.TrimSpace(rest)
	// Drop an optional timestamp (we never emit one, but tolerate it).
	if i := strings.IndexByte(val, ' '); i >= 0 {
		val = val[:i]
	}
	v, err := parseValue(val)
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", val, line)
	}
	s.Value = v
	return s, nil
}

// labelEnd finds the index of the closing brace of a label set,
// respecting quoted values with escapes.
func labelEnd(s string) int {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i
			}
		}
	}
	return -1
}

// parseLabels parses the inside of a rendered label set.
func parseLabels(s string) ([]Label, error) {
	var out []Label
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label in %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		rest := s[eq+2:]
		var b strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
		}
		if i >= len(rest) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		out = append(out, Label{Key: key, Value: b.String()})
		s = strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), ",")
		s = strings.TrimSpace(s)
	}
	return out, nil
}

// parseLabelString re-parses a rendered label set into a map (used by
// the JSON exposition, which stores labels structurally).
func parseLabelString(rendered string) map[string]string {
	if rendered == "" {
		return nil
	}
	labels, err := parseLabels(rendered[1 : len(rendered)-1])
	if err != nil {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Find returns the first parsed sample matching name and every given
// label, or nil. A convenience for tests and swpfctl top.
func Find(samples []Sample, name string, labels ...Label) *Sample {
	for i := range samples {
		s := &samples[i]
		if s.Name != name {
			continue
		}
		ok := true
		for _, want := range labels {
			found := false
			for _, have := range s.Labels {
				if have == want {
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok {
			return s
		}
	}
	return nil
}

// Names returns the sorted distinct sample names, for stable-name
// assertions.
func Names(samples []Sample) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range samples {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}
