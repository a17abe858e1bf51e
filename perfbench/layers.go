package main

import (
	"time"
)

// layerMetrics derives the per-layer metrics of a traced run from its
// untraced reference section (ref), the traced section (tp, spans tr)
// and the telemetry-and-audit section (cp, spans tc). Ratios per request
// divide by the simulated requests completed in the section counted.
func layerMetrics(vals map[string]float64, ref, tp, cp pass, tr, tc []span) {
	perReq := func(n float64, ps pass) float64 {
		if ps.requests == 0 {
			return 0
		}
		return n / float64(ps.requests)
	}
	vals["trace.overhead_frac"] = tp.wall.Seconds()/ref.wall.Seconds() - 1
	vals["trace.spans"] = float64(len(tr) + len(tc))

	for _, root := range byName(tr, "pass") {
		vals["runtime.allocs_per_req"] = perReq(float64(root.Allocs), tp)
		vals["runtime.heap_bytes_per_req"] = perReq(float64(root.Bytes), tp)
		if root.CPU > 0 {
			vals["runtime.gc_cpu_frac"] = root.GCCPU / root.CPU
		}
	}
	vals["sim.events_per_req"] = perReq(float64(tp.events), tp)

	runs := byName(tr, "cluster.Run")
	self := selfTimes(tr)
	var runTime, runSelf time.Duration
	counts := map[string]float64{}
	for _, s := range runs {
		runTime += s.dur()
		runSelf += self[s.ID]
		counts["netsim.forwarded"] += s.Counts["netsim.forwarded"]
		counts["netsim.peak_queue_bytes"] = max(counts["netsim.peak_queue_bytes"], s.Counts["netsim.peak_queue_bytes"])
	}
	if tp.events > 0 && len(runs) > 0 {
		vals["sim.ns_per_event"] = float64(runTime.Nanoseconds()) / float64(tp.events)
	}
	vals["cluster.run_self_s"] = runSelf.Seconds()
	var news []float64
	for _, s := range byName(tr, "cluster.New") {
		news = append(news, float64(s.dur())/float64(time.Millisecond))
	}
	vals["cluster.new_ms"] = quantile(news, 0.5)
	if tp.workers > 0 && tp.wall > 0 {
		vals["runner.worker_busy_frac"] = tp.busy.Seconds() / (tp.wall.Seconds() * float64(tp.workers))
	}

	for _, r := range ref.results {
		for _, sw := range r.Switches {
			counts["netsim.peak_queue_bytes"] = max(counts["netsim.peak_queue_bytes"], float64(sw.PeakQueueBytes))
		}
	}
	vals["netsim.switch_forwards_per_req"] = perReq(counts["netsim.forwarded"], tp)
	vals["netsim.peak_queue_bytes"] = counts["netsim.peak_queue_bytes"]

	reg := map[string]float64{}
	for _, s := range byName(tc, "cluster.Run") {
		for k, v := range s.Counts {
			reg[k] += v
		}
	}
	for _, m := range []struct{ metric, count string }{
		{"nic.irqs_per_req", "nic.irqs"},
		{"nic.itr_fires_per_req", "nic.itr_fires"},
		{"driver.polls_per_req", "driver.polls"},
		{"oskernel.hardirqs_per_req", "oskernel.hardirqs"},
		{"oskernel.softirqs_per_req", "oskernel.softirqs"},
		{"cpu.dispatched_per_req", "cpu.dispatched"},
		{"cpu.wakes_per_req", "cpu.wakes"},
		{"governor.menu_selects_per_req", "governor.menu_selects"},
	} {
		vals[m.metric] = perReq(reg[m.count], cp)
	}
	vals["cpu.pstate_transitions"] = reg["cpu.pstate_transitions"]
	vals["governor.ondemand_invocations"] = reg["governor.ondemand_invocations"]
	if n := reg["core.matches"] + reg["core.misses"]; n > 0 {
		vals["core.template_match_ratio"] = reg["core.matches"] / n
	}

	var sent, retrans, shed, rejected, ampSent, amp float64
	for _, r := range ref.results {
		sent += float64(r.Sent)
		retrans += float64(r.Retransmits)
		shed += float64(r.Shed)
		rejected += float64(r.Rejected)
		if r.RetryAmp > 0 {
			amp += r.RetryAmp * float64(r.Sent)
			ampSent += float64(r.Sent)
		}
	}
	vals["app.retransmits_per_req"] = perReq(retrans, ref)
	if sent > 0 {
		vals["resilience.shed_frac"] = shed / sent
		vals["resilience.rejected_frac"] = rejected / sent
	}
	if ampSent > 0 {
		vals["resilience.retry_amp"] = amp / ampSent
	}
}
