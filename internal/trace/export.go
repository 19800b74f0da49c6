package trace

// Chrome trace-event JSON export. The emitted file loads directly in
// Perfetto (ui.perfetto.dev) and chrome://tracing: simulated processes
// appear as threads of one process (ranks as threads), fluid transfers as
// async spans, resources as counter tracks plotting allocated bandwidth,
// and named counter series as one counter track each. Virtual times are
// exported in microseconds, the format's native unit.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Process ids of the exported trace: tracks (ranks), resource timelines,
// fluid flows and named counter series render as four Perfetto process
// groups.
const (
	pidTracks    = 1
	pidResources = 2
	pidFlows     = 3
	pidCounters  = 4
)

// chromeEvent is one entry of the trace-event array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds of virtual time
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level JSON object.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// usec converts virtual seconds to the format's microseconds.
func usec(t float64) float64 { return t * 1e6 }

// chromeEvents flattens the recording into trace-event entries, in a
// deterministic order: metadata, then per-track events, flows, resource
// timelines, and counter series in registration order.
func (r *Recorder) chromeEvents() []chromeEvent {
	var out []chromeEvent
	meta := func(pid int, name string) {
		out = append(out, chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name}})
	}
	meta(pidTracks, "ranks")
	meta(pidResources, "resources")
	meta(pidFlows, "flows")
	meta(pidCounters, "counters")
	for i, tr := range r.tracks {
		out = append(out, chromeEvent{Name: "thread_name", Ph: "M", Pid: pidTracks,
			Tid: i + 1, Args: map[string]any{"name": tr.name}})
	}
	for i, tr := range r.tracks {
		tid := i + 1
		for _, ev := range tr.events {
			ce := chromeEvent{Name: ev.Name, Cat: string(ev.Cat),
				Ts: usec(float64(ev.Start)), Pid: pidTracks, Tid: tid}
			switch {
			case ev.Dur == instantDur:
				ce.Ph = "i"
				ce.S = "t"
			default:
				d := ev.Dur
				if d == openDur { // never ended: clamp at the trace end
					d = float64(r.maxTime - ev.Start)
				}
				du := usec(d)
				ce.Ph = "X"
				ce.Dur = &du
			}
			out = append(out, ce)
		}
	}
	for _, f := range r.flows {
		end := f.end
		if f.open {
			end = r.maxTime
		}
		b := chromeEvent{Name: f.name, Cat: string(CatFlow), Ph: "b",
			Ts: usec(float64(f.start)), Pid: pidFlows, Tid: 1,
			ID: fmt.Sprintf("%#x", f.id)}
		e := b
		e.Ph = "e"
		e.Ts = usec(float64(end))
		out = append(out, b, e)
	}
	for _, res := range r.timelineOrder {
		c := r.timelines[res]
		for _, s := range c.samples {
			out = append(out, chromeEvent{Name: c.name, Ph: "C",
				Ts: usec(float64(s.t)), Pid: pidResources, Tid: 1,
				Args: map[string]any{"bytes_per_sec": s.rate}})
		}
	}
	for _, sr := range r.series {
		for _, pt := range sr.points {
			out = append(out, chromeEvent{Name: sr.name, Ph: "C",
				Ts: usec(float64(pt.t)), Pid: pidCounters, Tid: 1,
				Args: map[string]any{"value": pt.v}})
		}
	}
	return out
}

// WriteChrome writes the recording as Chrome trace-event JSON.
func (r *Recorder) WriteChrome(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("trace: cannot export a disabled (nil) recorder")
	}
	f := chromeFile{TraceEvents: r.chromeEvents(), DisplayTimeUnit: "ms"}
	if f.TraceEvents == nil {
		f.TraceEvents = []chromeEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// ExportChromeFile writes the recording to the named file, creating or
// truncating it.
func (r *Recorder) ExportChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CheckReport summarizes a validated Chrome trace-event file.
type CheckReport struct {
	// Events is the total trace-event count, metadata included.
	Events int
	// Spans is the number of complete ("X") span events.
	Spans int
	// Categories lists the distinct span/instant categories, sorted.
	Categories []string
	// Resources lists the distinct resource-timeline counter tracks, sorted.
	Resources []string
	// Counters lists the distinct named-series counter tracks, sorted.
	Counters []string
	// Flows is the number of async begin events.
	Flows int
}

// ValidateChrome parses data as Chrome trace-event JSON and verifies the
// structural invariants the exporter guarantees (and Perfetto needs):
// a traceEvents array whose events carry a name and a known phase, with
// finite non-negative timestamps and durations. It reports what the trace
// contains, so callers can assert coverage.
func ValidateChrome(data []byte) (*CheckReport, error) {
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("trace: invalid JSON: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return nil, fmt.Errorf("trace: no traceEvents")
	}
	rep := &CheckReport{Events: len(f.TraceEvents)}
	cats := map[string]bool{}
	resources, counters := map[string]bool{}, map[string]bool{}
	for i, ev := range f.TraceEvents {
		if ev.Name == "" {
			return nil, fmt.Errorf("trace: event %d has no name", i)
		}
		if math.IsNaN(ev.Ts) || math.IsInf(ev.Ts, 0) || ev.Ts < 0 {
			return nil, fmt.Errorf("trace: event %d (%s) has bad ts %v", i, ev.Name, ev.Ts)
		}
		switch ev.Ph {
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 || math.IsNaN(*ev.Dur) || math.IsInf(*ev.Dur, 0) {
				return nil, fmt.Errorf("trace: span %d (%s) has bad dur", i, ev.Name)
			}
			rep.Spans++
			if ev.Cat != "" {
				cats[ev.Cat] = true
			}
		case "i", "I":
			if ev.Cat != "" {
				cats[ev.Cat] = true
			}
		case "b":
			if ev.ID == "" {
				return nil, fmt.Errorf("trace: async begin %d (%s) has no id", i, ev.Name)
			}
			rep.Flows++
		case "e":
			if ev.ID == "" {
				return nil, fmt.Errorf("trace: async end %d (%s) has no id", i, ev.Name)
			}
		case "C":
			if ev.Pid == pidResources {
				resources[ev.Name] = true
			} else {
				counters[ev.Name] = true
			}
		case "M":
		default:
			return nil, fmt.Errorf("trace: event %d (%s) has unknown phase %q", i, ev.Name, ev.Ph)
		}
	}
	rep.Categories = sortedKeys(cats)
	rep.Resources = sortedKeys(resources)
	rep.Counters = sortedKeys(counters)
	return rep, nil
}

// sortedKeys returns a set's members in ascending order.
func sortedKeys(set map[string]bool) []string {
	var out []string
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
