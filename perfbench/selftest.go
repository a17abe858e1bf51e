package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runSelftest runs every workload at minimal size, timed and traced. It
// checks that each run passes its digest gate and prints every metric
// BENCHMARK.json names, with its unit, and that a corrupted pinned
// digest makes a run fail, so the gate cannot pass falsely.
func runSelftest(out string, pins pinTable, stdout, stderr io.Writer) int {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "selftest:", err)
		return 1
	}
	var sp spec
	if err := json.Unmarshal(blob, &sp); err != nil {
		fmt.Fprintln(stderr, "selftest: BENCHMARK.json:", err)
		return 1
	}
	problems := 0
	check := func(ok bool, format string, args ...any) {
		if !ok {
			problems++
			fmt.Fprintf(stdout, "selftest: FAIL "+format+"\n", args...)
		}
	}

	listed := map[string]string{}
	for _, m := range sp.EndToEnd {
		listed["e2e "+m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		listed["layer "+m.Name] = m.Unit
	}
	check(len(listed) == len(endToEnd)+len(perLayer), "BENCHMARK.json lists %d metrics, the benchmark %d",
		len(listed), len(endToEnd)+len(perLayer))
	for _, set := range []struct {
		kind  string
		units []unit
	}{{"e2e", endToEnd}, {"layer", perLayer}} {
		for _, u := range set.units {
			got, ok := listed[set.kind+" "+u.name]
			check(ok && got == u.unit, "%s metric %s [%s] is not in BENCHMARK.json as listed (%q)", set.kind, u.name, u.unit, got)
		}
	}
	check(len(sp.Workloads) == len(workloads()), "BENCHMARK.json lists %d workloads, the benchmark %d",
		len(sp.Workloads), len(workloads()))
	for _, w := range sp.Workloads {
		_, ok := workloadByName(w.Name)
		check(ok, "BENCHMARK.json workload %s is not in the benchmark", w.Name)
	}

	for _, w := range workloads() {
		for _, traceRun := range []bool{false, true} {
			want := endToEnd
			if traceRun {
				want = perLayer
			}
			sum, notes, err := selftestRun(w, out, pins, traceRun)
			check(err == nil, "%s trace=%v: %v", w.name, traceRun, err)
			check(sum.Correct && sum.Failed == 0, "%s trace=%v: not correct: %v", w.name, traceRun, notes)
			check(len(sum.Metrics) == len(want), "%s trace=%v: %d metrics, want %d", w.name, traceRun, len(sum.Metrics), len(want))
			for _, u := range want {
				m, ok := sum.Metrics[u.name]
				check(ok && m.Unit == u.unit, "%s trace=%v: metric %s [%s] missing or mislabelled", w.name, traceRun, u.name, u.unit)
			}
			fmt.Fprintf(stdout, "selftest: %-14s trace=%-5v correct=%v attempted=%d metrics=%d\n",
				w.name, traceRun, sum.Correct, sum.Attempted, len(sum.Metrics))
		}

		bad := corrupted(pins, w.name)
		sum, _, err := selftestRun(w, out, bad, false)
		check(err == nil && !sum.Correct && sum.Failed > 0, "%s: a corrupted digest was not caught (correct=%v failed=%d err=%v)",
			w.name, sum.Correct, sum.Failed, err)
		fmt.Fprintf(stdout, "selftest: %-14s corrupted digest caught=%v (failed=%d)\n", w.name, !sum.Correct, sum.Failed)
	}
	if problems > 0 {
		fmt.Fprintf(stdout, "selftest: %d problems\n", problems)
		return 1
	}
	fmt.Fprintln(stdout, "selftest: ok")
	return 0
}

// selftestRun is one minimal-size run at seed 1 with a one-second budget.
func selftestRun(w workload, out string, pins pinTable, traceRun bool) (summary, []string, error) {
	b, err := newBench(w, 1, true, out, pins, io.Discard)
	if err != nil {
		return summary{}, nil, err
	}
	defer b.cleanup()
	var sum summary
	if traceRun {
		sum, err = b.tracedRun()
	} else {
		sum, err = b.timedRun(time.Second)
	}
	return sum, b.chk.notes, err
}

// corrupted returns a copy of pins whose minimal-size seed-1 digest of
// the workload is wrong.
func corrupted(pins pinTable, workload string) pinTable {
	bad := pinTable{}
	for w, sizes := range pins {
		bad[w] = map[string]map[string]string{}
		for size, seeds := range sizes {
			bad[w][size] = map[string]string{}
			for s, d := range seeds {
				bad[w][size][s] = d
			}
		}
	}
	if bad[workload]["mini"] == nil {
		bad[workload]["mini"] = map[string]string{}
	}
	bad[workload]["mini"]["1"] = strings.Repeat("0", 64)
	return bad
}
