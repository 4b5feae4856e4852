package coest_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/pkg/coest"
)

// TestChromeTraceFromRealRun is the observability acceptance test: a real
// co-simulation writes a Chrome trace_event file, and the file must be a
// structurally valid trace — known phases only, a lane (pid/tid) per
// process named by metadata, and monotonic timestamps per lane.
func TestChromeTraceFromRealRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := coest.NewChromeTraceSink(f)
	rep, err := coest.Estimate(context.Background(), coest.TCPIP(quickTCPIP()),
		coest.WithEnergyCache(), coest.WithTraceSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	lanes := map[[2]int]string{} // (pid,tid) -> thread_name
	lastTS := map[[2]int]float64{}
	var reactions, busTxns int
	for _, ev := range doc.TraceEvents {
		key := [2]int{ev.PID, ev.TID}
		switch ev.Ph {
		case "M":
			name, _ := ev.Args["name"].(string)
			if ev.Name != "thread_name" || name == "" {
				t.Fatalf("bad metadata event: %+v", ev)
			}
			lanes[key] = name
		case "X", "i":
			if _, ok := lanes[key]; !ok {
				t.Fatalf("event on unnamed lane pid=%d tid=%d: %+v", ev.PID, ev.TID, ev)
			}
			if ev.TS < lastTS[key] {
				t.Fatalf("timestamps not monotonic on lane %v: %g after %g", lanes[key], ev.TS, lastTS[key])
			}
			lastTS[key] = ev.TS
			if strings.HasPrefix(ev.Name, "react ") {
				reactions++
			}
			if ev.PID == 2 { // bus-master lanes
				busTxns++
				if ev.Ph != "X" || ev.Dur <= 0 {
					t.Fatalf("bus transaction must be a duration slice: %+v", ev)
				}
			}
		default:
			t.Fatalf("unexpected phase %q in %+v", ev.Ph, ev)
		}
	}
	// The TCP/IP system has SW and HW processes plus bus traffic: expect at
	// least one machine lane, one bus lane, and real activity on both.
	var machineLanes, busLanes int
	for key, name := range lanes {
		switch key[0] {
		case 1:
			machineLanes++
			if name == "" || name == "bus" {
				t.Fatalf("machine lane %v misnamed %q", key, name)
			}
		case 2:
			busLanes++
		}
	}
	if machineLanes < 2 || busLanes < 1 {
		t.Fatalf("lanes: %d machine, %d bus (want >=2 machine, >=1 bus): %v", machineLanes, busLanes, lanes)
	}
	if reactions == 0 || busTxns == 0 {
		t.Fatalf("activity: %d reactions, %d bus transactions", reactions, busTxns)
	}
	if rep.ISSCalls == 0 {
		t.Fatal("the traced run must be a real co-simulation (ISS invoked)")
	}
}

// TestJSONLTraceSinkOnSweep: one synchronized JSONL sink absorbs a parallel
// sweep; every line must be valid JSON with a kind.
func TestJSONLTraceSinkOnSweep(t *testing.T) {
	var buf bytes.Buffer
	sink := coest.NewJSONLTraceSink(&buf)
	grid := coest.Grid{N: 3, Build: func(i int) (*coest.System, error) {
		return coest.TCPIP(quickTCPIP()), nil
	}}
	if _, err := coest.Sweep(context.Background(), grid,
		coest.WithWorkers(3), coest.WithTraceSink(sink)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		lines++
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines, err)
		}
		if ev["kind"] == "" {
			t.Fatalf("line %d has no kind: %v", lines, ev)
		}
	}
	if lines == 0 {
		t.Fatal("sweep produced no trace events")
	}
}

func TestWithTraceSinkNil(t *testing.T) {
	if _, err := coest.Estimate(context.Background(), coest.TCPIP(quickTCPIP()),
		coest.WithTraceSink(nil)); err == nil {
		t.Fatal("nil sink must fail")
	}
}

// TestTextTraceSinkMatchesEvents: the text sink's lines must be exactly the
// rendered forms of the typed events.
func TestTextTraceSinkMatchesEvents(t *testing.T) {
	var lines []string
	var events []coest.TraceEvent
	rec := recordingSink{events: &events}
	text := coest.NewTextTraceSink(func(s string) { lines = append(lines, s) })
	if _, err := coest.Estimate(context.Background(), coest.TCPIP(quickTCPIP()),
		coest.WithTraceSink(coest.MultiTraceSink(text, rec))); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 || len(lines) != len(events) {
		t.Fatalf("text sink saw %d lines, recording sink saw %d events", len(lines), len(events))
	}
	for i := range lines {
		if lines[i] != events[i].String() {
			t.Fatalf("line %d: %q != rendered event %q", i, lines[i], events[i].String())
		}
	}
}

type recordingSink struct{ events *[]coest.TraceEvent }

func (r recordingSink) Emit(ev coest.TraceEvent) { *r.events = append(*r.events, ev) }
func (r recordingSink) Close() error             { return nil }
