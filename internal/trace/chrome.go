// Chrome trace-event JSON export. The output is the "JSON object
// format" ({"traceEvents": [...]}) with complete ("X") duration events,
// counter ("C") events and process/thread metadata ("M") events —
// loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
//
// The writer is canonical: events are emitted in a total order derived
// only from the recorded data (tracks in registration order, spans
// sorted by start/track/end/name with emission order as the final
// tie-break), and all numbers are formatted deterministically, so the
// same simulation always exports byte-identical JSON.

package trace

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Export pairs a tracer with a label for multi-unit documents (one
// scenario unit each). Labels prefix the exported process names.
type Export struct {
	Label string
	T     *Tracer
}

// WriteChrome writes one tracer as a Chrome trace-event JSON document.
func (t *Tracer) WriteChrome(w io.Writer) error {
	return WriteChrome(w, []Export{{T: t}})
}

// WriteChrome writes several tracers (e.g. one per scenario unit) into a
// single Chrome trace-event JSON document. Each (unit, proc) pair
// becomes one Chrome process; each track one thread. Nil tracers are
// skipped. A span or counter on a track (or a span with a label) its
// tracer never registered is an error, reported before anything is
// written.
//
// Encoding a span allocates nothing: each line is appended into one
// reused buffer from a per-track prefix, a per-label quoted name and
// category, and integer timestamps.
func WriteChrome(w io.Writer, units []Export) error {
	for _, u := range units {
		if err := u.T.checkRefs(); err != nil {
			return err
		}
	}
	cw := chromeWriter{bw: bufio.NewWriterSize(w, 64<<10)}
	if _, err := cw.bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for _, u := range units {
		if u.T == nil {
			continue
		}
		if err := cw.unit(u); err != nil {
			return err
		}
	}
	if _, err := cw.bw.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n"); err != nil {
		return err
	}
	return cw.bw.Flush()
}

// checkRefs reports the first span or counter whose track or label ID
// was never registered. Safe on nil.
func (t *Tracer) checkRefs() error {
	if t == nil {
		return nil
	}
	for _, s := range t.spans {
		if int(s.Track) < 0 || int(s.Track) >= len(t.tracks) {
			return fmt.Errorf("trace: span on unregistered track %d (%d registered)", s.Track, len(t.tracks))
		}
		if int(s.Label) < 0 || int(s.Label) >= len(t.labels) {
			return fmt.Errorf("trace: span with unregistered label %d (%d registered)", s.Label, len(t.labels))
		}
	}
	for _, c := range t.counters {
		if int(c.Track) < 0 || int(c.Track) >= len(t.tracks) {
			return fmt.Errorf("trace: counter on unregistered track %d (%d registered)", c.Track, len(t.tracks))
		}
	}
	return nil
}

// chromeWriter is the state of one WriteChrome call.
type chromeWriter struct {
	bw    *bufio.Writer
	line  []byte  // the event being encoded, reused for every line
	lines int     // events written so far
	pid   int     // last Chrome pid handed out
	order []int32 // span sort order, reused across units
}

// begin starts a new event line, with the separator after the first.
func (cw *chromeWriter) begin() {
	cw.line = cw.line[:0]
	if cw.lines > 0 {
		cw.line = append(cw.line, ",\n"...)
	}
	cw.lines++
}

// end writes the encoded line.
func (cw *chromeWriter) end() error {
	_, err := cw.bw.Write(cw.line)
	return err
}

// unit writes one tracer's metadata, spans and counters.
func (cw *chromeWriter) unit(u Export) error {
	t := u.T
	// One Chrome pid per distinct proc label, in track registration
	// order; tid is the track's index within its proc.
	pidOf := make(map[string]int, 4)
	nextTID := make(map[string]int, 4)
	procs := make([]string, 0, 4)
	pids := make([]int, len(t.tracks))
	tids := make([]int, len(t.tracks))
	for i, tk := range t.tracks {
		if _, ok := pidOf[tk.Proc]; !ok {
			cw.pid++
			pidOf[tk.Proc] = cw.pid
			procs = append(procs, tk.Proc)
		}
		pids[i], tids[i] = pidOf[tk.Proc], nextTID[tk.Proc]
		nextTID[tk.Proc]++
	}
	for _, proc := range procs {
		name := proc
		if name == "" {
			name = "sim"
		}
		if u.Label != "" {
			name = u.Label + "/" + name
		}
		if err := cw.meta(pidOf[proc], 0, "process_name", "name", jsonStr(name)); err != nil {
			return err
		}
	}
	for i, tk := range t.tracks {
		if err := cw.meta(pids[i], tids[i], "thread_name", "name", jsonStr(tk.Name)); err != nil {
			return err
		}
		if err := cw.meta(pids[i], tids[i], "thread_sort_index", "sort_index", strconv.Itoa(i)); err != nil {
			return err
		}
	}

	// Per track `{"ph":"X","pid":P,"tid":T,"name":`; per label
	// `"NAME","cat":"CAT","ts":`.
	head := make([][]byte, len(t.tracks))
	for i := range t.tracks {
		head[i] = appendHead(nil, 'X', pids[i], tids[i])
	}
	body := make([][]byte, len(t.labels))
	for i, l := range t.labels {
		b := append([]byte(jsonStr(l.Name)), `,"cat":`...)
		b = append(b, jsonStr(l.Cat)...)
		body[i] = append(b, `,"ts":`...)
	}
	cw.order = sortSpans(cw.order, t.spans, nameRanks(t.labels))
	for _, si := range cw.order {
		s := &t.spans[si]
		cw.begin()
		cw.line = append(cw.line, head[s.Track]...)
		cw.line = append(cw.line, body[s.Label]...)
		cw.line = appendMicros(cw.line, s.Start)
		cw.line = append(cw.line, `,"dur":`...)
		cw.line = appendMicros(cw.line, s.End-s.Start)
		cw.line = append(cw.line, `,"args":{"bytes":`...)
		cw.line = strconv.AppendInt(cw.line, s.Arg, 10)
		cw.line = append(cw.line, "}}"...)
		if err := cw.end(); err != nil {
			return err
		}
	}

	// Counter names quote "<track>.<name>" once per distinct pair.
	type counterKey struct {
		track TrackID
		name  string
	}
	quoted := make(map[counterKey]string)
	for _, c := range t.counters {
		k := counterKey{c.Track, c.Name}
		q, ok := quoted[k]
		if !ok {
			q = jsonStr(t.tracks[c.Track].Name + "." + c.Name)
			quoted[k] = q
		}
		cw.begin()
		cw.line = appendHead(cw.line, 'C', pids[c.Track], tids[c.Track])
		cw.line = append(cw.line, q...)
		cw.line = append(cw.line, `,"ts":`...)
		cw.line = appendMicros(cw.line, c.At)
		cw.line = append(cw.line, `,"args":{"value":`...)
		cw.line = strconv.AppendFloat(cw.line, c.Value, 'g', -1, 64)
		cw.line = append(cw.line, "}}"...)
		if err := cw.end(); err != nil {
			return err
		}
	}
	return nil
}

// meta writes one metadata event whose args hold the single key with
// the JSON value val.
func (cw *chromeWriter) meta(pid, tid int, name, key, val string) error {
	cw.begin()
	cw.line = appendHead(cw.line, 'M', pid, tid)
	cw.line = append(cw.line, '"')
	cw.line = append(cw.line, name...)
	cw.line = append(cw.line, `","args":{"`...)
	cw.line = append(cw.line, key...)
	cw.line = append(cw.line, `":`...)
	cw.line = append(cw.line, val...)
	cw.line = append(cw.line, "}}"...)
	return cw.end()
}

// appendHead appends an event's opening through its "name" key:
// `{"ph":"<ph>","pid":<pid>,"tid":<tid>,"name":`.
func appendHead(dst []byte, ph byte, pid, tid int) []byte {
	dst = append(dst, `{"ph":"`...)
	dst = append(dst, ph)
	dst = append(dst, `","pid":`...)
	dst = strconv.AppendInt(dst, int64(pid), 10)
	dst = append(dst, `,"tid":`...)
	dst = strconv.AppendInt(dst, int64(tid), 10)
	return append(dst, `,"name":`...)
}

// nameRanks orders the label table by name once: equal names share a
// rank, so comparing ranks is comparing names.
func nameRanks(labels []Label) []int32 {
	idx := make([]int32, len(labels))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int { return strings.Compare(labels[a].Name, labels[b].Name) })
	rank := make([]int32, len(labels))
	r := int32(0)
	for k, i := range idx {
		if k > 0 && labels[i].Name != labels[idx[k-1]].Name {
			r++
		}
		rank[i] = r
	}
	return rank
}

// sortSpans fills order (reusing its storage) with span indices sorted
// by (start, track, end, name), emission order breaking the remaining
// ties — a pure function of the recorded spans.
func sortSpans(order []int32, spans []Span, rank []int32) []int32 {
	order = slices.Grow(order[:0], len(spans))
	for i := range spans {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int {
		sa, sb := &spans[a], &spans[b]
		switch {
		case sa.Start != sb.Start:
			return cmp.Compare(sa.Start, sb.Start)
		case sa.Track != sb.Track:
			return cmp.Compare(sa.Track, sb.Track)
		case sa.End != sb.End:
			return cmp.Compare(sa.End, sb.End)
		case rank[sa.Label] != rank[sb.Label]:
			return cmp.Compare(rank[sa.Label], rank[sb.Label])
		}
		return cmp.Compare(a, b)
	})
	return order
}

// micros renders a picosecond timestamp as a microsecond decimal with a
// fixed 6-digit fraction — exact (1 ps = 1e-6 µs) and deterministic.
func micros(ps int64) string { return string(appendMicros(nil, ps)) }

// appendMicros appends micros(ps).
func appendMicros(dst []byte, ps int64) []byte {
	u := uint64(ps)
	if ps < 0 {
		dst = append(dst, '-')
		u = -u
	}
	dst = strconv.AppendUint(dst, u/1e6, 10)
	frac := [7]byte{'.'}
	for i, f := 6, u%1e6; i > 0; i, f = i-1, f/10 {
		frac[i] = byte('0' + f%10)
	}
	return append(dst, frac[:]...)
}

// jsonStr renders s as a JSON string literal, with encoding/json's
// escaping (HTML characters included).
func jsonStr(s string) string {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for string input
		return `"?"`
	}
	return string(b)
}

// chromeEvent mirrors the subset of the trace-event format the
// validator checks.
type chromeEvent struct {
	Ph   string   `json:"ph"`
	Pid  *int     `json:"pid"`
	Tid  *int     `json:"tid"`
	Name string   `json:"name"`
	Cat  string   `json:"cat"`
	Ts   *float64 `json:"ts"`
	Dur  *float64 `json:"dur"`
	Args map[string]any
}

// ChromeStats summarizes a validated trace-event document.
type ChromeStats struct {
	Spans    int // "X" events
	Counters int // "C" events
	Meta     int // "M" events
	Procs    int // distinct pids
}

// ValidateChrome parses a Chrome trace-event JSON document and checks
// the schema invariants the exporter guarantees: every event is X, C or
// M with pid/tid; X events carry a name and a non-negative ts and dur;
// M events are process_name / thread_name / thread_sort_index records.
// Unknown fields are rejected. It streams: one event at a time is
// decoded into reused storage, so memory does not grow with the
// document.
func ValidateChrome(r io.Reader) (ChromeStats, error) {
	var st ChromeStats
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := expectDelim(dec, '{'); err != nil {
		return st, err
	}
	pids := make(map[int]bool)
	var ev chromeEvent
	n := 0
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return st, invalidJSON(err)
		}
		switch key {
		case "displayTimeUnit":
			var unit string
			if err := dec.Decode(&unit); err != nil {
				return st, invalidJSON(err)
			}
			continue
		case "traceEvents":
		default:
			return st, invalidJSON(fmt.Errorf("unknown field %v", key))
		}
		if err := expectDelim(dec, '['); err != nil {
			return st, err
		}
		for ; dec.More(); n++ {
			args := ev.Args
			clear(args)
			ev = chromeEvent{Args: args}
			if err := dec.Decode(&ev); err != nil {
				return st, invalidJSON(err)
			}
			if err := ev.check(n, &st, pids); err != nil {
				return st, err
			}
		}
		if err := expectDelim(dec, ']'); err != nil {
			return st, err
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return st, err
	}
	if st.Spans == 0 {
		return st, fmt.Errorf("trace: document has no span events")
	}
	st.Procs = len(pids)
	return st, nil
}

func invalidJSON(err error) error {
	return fmt.Errorf("trace: invalid chrome JSON: %w", err)
}

// expectDelim reads the next token and requires it to be d.
func expectDelim(dec *json.Decoder, d json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return invalidJSON(err)
	}
	if tok != d {
		return invalidJSON(fmt.Errorf("got %v, want %v", tok, d))
	}
	return nil
}

// check validates event i, counting it into st and its pid into pids.
func (ev *chromeEvent) check(i int, st *ChromeStats, pids map[int]bool) error {
	if ev.Pid == nil || ev.Tid == nil {
		return fmt.Errorf("trace: event %d: missing pid/tid", i)
	}
	pids[*ev.Pid] = true
	switch ev.Ph {
	case "X":
		st.Spans++
		if ev.Name == "" {
			return fmt.Errorf("trace: event %d: X event without name", i)
		}
		if ev.Ts == nil || *ev.Ts < 0 {
			return fmt.Errorf("trace: event %d: X event with missing or negative ts", i)
		}
		if ev.Dur == nil || *ev.Dur < 0 {
			return fmt.Errorf("trace: event %d: X event with missing or negative dur", i)
		}
	case "C":
		st.Counters++
		if ev.Name == "" || ev.Ts == nil {
			return fmt.Errorf("trace: event %d: C event without name/ts", i)
		}
	case "M":
		st.Meta++
		switch ev.Name {
		case "process_name", "thread_name":
			if _, ok := ev.Args["name"].(string); !ok {
				return fmt.Errorf("trace: event %d: %s without args.name", i, ev.Name)
			}
		case "thread_sort_index":
			if _, ok := ev.Args["sort_index"].(float64); !ok {
				return fmt.Errorf("trace: event %d: thread_sort_index without args.sort_index", i)
			}
		default:
			return fmt.Errorf("trace: event %d: unexpected metadata %q", i, ev.Name)
		}
	default:
		return fmt.Errorf("trace: event %d: unexpected phase %q", i, ev.Ph)
	}
	return nil
}
