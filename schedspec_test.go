package repro

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// TestSchedulerSpecJSONRoundTrip pins the wire form of the scheduler
// spec: every kind round-trips through the Scenario JSON unchanged, and
// the zero Scenario's encoding does not mention the scheduler at all —
// the field must not leak into scenarios that never set it, because the
// service's cell digests cover the scenario bytes and a new key would
// invalidate every cached pre-subsystem cell.
func TestSchedulerSpecJSONRoundTrip(t *testing.T) {
	zero, err := json.Marshal(Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(zero), "scheduler") {
		t.Fatalf("zero Scenario encoding mentions the scheduler: %s", zero)
	}
	specs := []*SchedulerSpec{
		{Kind: "uniform"},
		{Kind: "biased", Family: "hotspot", HotArcs: 4, Weight: 12.5},
		{Kind: "biased", Family: "ramp", Weight: 3},
		{Kind: "eclipse", Start: 100, Period: 5000, Duration: 800, Arcs: 6, Offset: 2},
		{Churn: []ChurnEvent{{AtStep: 1000, Remove: 2}, {AtStep: 4000, Insert: 3}}, Stuck: 1},
	}
	for _, spec := range specs {
		sc := Scenario{Sched: spec}
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		var back Scenario
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if !reflect.DeepEqual(back.Sched, spec) {
			t.Fatalf("round trip mangled the spec:\nsent: %+v\ngot:  %+v\nwire: %s", spec, back.Sched, data)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped spec fails validation: %v", err)
		}
	}
}

// TestSchedulerSpecValidate covers the rejection surface: unknown kinds,
// malformed family parameters, degenerate eclipse windows, parameters on
// parameterless kinds, and nonsense dynamics.
func TestSchedulerSpecValidate(t *testing.T) {
	var nilSpec *SchedulerSpec
	if err := nilSpec.Validate(); err != nil {
		t.Fatalf("nil spec rejected: %v", err)
	}
	bad := []*SchedulerSpec{
		{Kind: "exotic"},
		{Kind: "biased", Family: "volcano", Weight: 2},
		{Kind: "biased", Family: "hotspot", HotArcs: 0, Weight: 2},
		{Kind: "biased", Family: "hotspot", HotArcs: 2, Weight: 0},
		{Kind: "biased", Family: "ramp", Weight: -1},
		{Kind: "eclipse", Period: 100, Duration: 100, Arcs: 1},
		{Kind: "eclipse", Period: 0, Duration: 10, Arcs: 1},
		{Kind: "eclipse", Period: 100, Duration: 10, Arcs: 0},
		{Kind: "uniform", Weight: 2},
		{Kind: "", Period: 50},
		{Churn: []ChurnEvent{{AtStep: 5, Remove: -1}}},
		{Churn: []ChurnEvent{{AtStep: 5}}},
		{Stuck: -1},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Fatalf("bad spec %d accepted: %+v", i, spec)
		}
	}
}

// TestParseSchedulerSpec pins the command-line grammar shared by
// cmd/ringsim and cmd/sweep.
func TestParseSchedulerSpec(t *testing.T) {
	cases := []struct {
		in   string
		want *SchedulerSpec
	}{
		{"", nil},
		{"uniform", &SchedulerSpec{Kind: "uniform"}},
		{"hotspot:arcs=4,weight=8", &SchedulerSpec{Kind: "biased", Family: "hotspot", HotArcs: 4, Weight: 8}},
		{"ramp:weight=2.5", &SchedulerSpec{Kind: "biased", Family: "ramp", Weight: 2.5}},
		{
			"eclipse:period=5000,duration=800,arcs=6,offset=2,start=100",
			&SchedulerSpec{Kind: "eclipse", Period: 5000, Duration: 800, Arcs: 6, Offset: 2, Start: 100},
		},
	}
	for _, c := range cases {
		got, err := ParseSchedulerSpec(c.in)
		if err != nil {
			t.Fatalf("parse %q: %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("parse %q = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, in := range []string{
		"volcano", "uniform:weight=2", "hotspot:weight=2", "hotspot:arcs=4",
		"eclipse:period=100", "eclipse:period=100,duration=200,arcs=2",
		"hotspot:arcs", "hotspot:arcs=x,weight=2", "ramp:weight=nan,period=7",
	} {
		if spec, err := ParseSchedulerSpec(in); err == nil {
			t.Fatalf("parse %q accepted: %+v", in, spec)
		}
	}
}

// TestParseChurnSpec pins the del/add churn grammar.
func TestParseChurnSpec(t *testing.T) {
	got, err := ParseChurnSpec("del2@5000, add3@9000")
	if err != nil {
		t.Fatal(err)
	}
	want := []ChurnEvent{{AtStep: 5000, Remove: 2}, {AtStep: 9000, Insert: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	if got, err := ParseChurnSpec(""); err != nil || got != nil {
		t.Fatalf("empty churn spec = %+v, %v", got, err)
	}
	for _, in := range []string{"mul2@50", "del0@50", "del2", "del2@x", "add@5"} {
		if evs, err := ParseChurnSpec(in); err == nil {
			t.Fatalf("parse %q accepted: %+v", in, evs)
		}
	}
}

// fuzzArcCounts are the ring arc counts the grammar fuzzers compile each
// accepted spec at: the smallest directed ring, the smallest odd one, and
// a sweep-sized ring.
var fuzzArcCounts = []int{2, 3, 64}

// assertCompiles compiles a spec that passed Scenario.Validate at every
// fuzzArcCounts size and checks a few draws land on real arcs.
func assertCompiles(t *testing.T, spec *SchedulerSpec) {
	t.Helper()
	if err := (Scenario{Sched: spec}).Validate(); err != nil {
		return
	}
	for _, arcs := range fuzzArcCounts {
		s := spec.compileArcSched(arcs)
		if s == nil {
			continue
		}
		out := make([]int32, 8)
		s.Fill(xrand.New(1), 0, out)
		for _, k := range out {
			if k < 0 || int(k) >= arcs {
				t.Fatalf("%+v at %d arcs drew arc %d", spec, arcs, k)
			}
		}
	}
}

// FuzzParseSchedulerSpec runs the -sched grammar: whatever it parses and
// Scenario.Validate accepts must compile on rings of every size. The seeds
// run under plain go test.
func FuzzParseSchedulerSpec(f *testing.F) {
	for _, seed := range []string{
		"uniform",
		"hotspot:arcs=8,weight=16",
		"hotspot:arcs=1000,weight=1e300",
		"ramp:weight=0.5",
		"eclipse:period=100000,duration=20000,arcs=48",
		"eclipse:period=10,duration=9,arcs=99,offset=-7,start=3",
		"eclipse:period=2,duration=1,arcs=1",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParseSchedulerSpec(text)
		if err != nil {
			return
		}
		assertCompiles(t, spec)
	})
}

// FuzzParseChurnSpec runs the -churn grammar the same way: every event it
// parses must pass Scenario.Validate, and the spec must compile.
func FuzzParseChurnSpec(f *testing.F) {
	for _, seed := range []string{
		"del2@5000,add2@9000",
		"add1@0",
		"del4@18446744073709551615, add3@1",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		events, err := ParseChurnSpec(text)
		if err != nil {
			return
		}
		spec := &SchedulerSpec{Churn: events}
		if err := (Scenario{Sched: spec}).Validate(); err != nil {
			t.Fatalf("ParseChurnSpec(%q) = %+v, which Validate rejects: %v", text, events, err)
		}
		assertCompiles(t, spec)
	})
}
