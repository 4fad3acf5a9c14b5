package main

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units; the tests hold
// the two together.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports, on every workload. A "job"
// is what a caller waits on: one POST /sweep job on service, one pass
// of the whole grid through sweep.Runner on the simulation workloads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_mips", "Minstr/s"},
	{"cells_per_s", "1/s"},
	{"job_s_p50", "s"},
	{"job_s_tail", "s"},
	{"peak_rss_mb", "MB"},
}

// hwpfModels and coreModels are the timing axes timing-wide sweeps,
// named explicitly so a model added later does not change the work.
var (
	hwpfModels = []string{"none", "stride", "nextline", "ghb", "imp"}
	coreModels = []string{"interval", "ooo", "inorder"}
	callKinds  = []string{"op", "load", "store", "prefetch", "branch"}
	httpRoutes = []struct{ metric, route string }{
		{"sweep", "POST /sweep"},
		{"job_events", "GET /jobs/{id}/events"},
		{"results", "GET /results"},
		{"fleet_lease", "POST /fleet/lease"},
		{"fleet_complete", "POST /fleet/complete"},
	}
)

// perLayer is what a traced run reports, on every workload; a layer a
// workload does not exercise reads 0. NOTES.md ties each one to the
// end-to-end metric it should move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.trace_overhead_s", "s"},
		{"bench.trace_overhead_frac", "ratio"},
		{"workloads.build_s", "s"},
		{"prefetch.pass_ms", "ms"},
		{"prefetch.emitted", "count"},
		{"prefetch.accept_frac", "ratio"},
		{"interp.self_s", "s"},
		{"interp.executed", "count"},
		{"interp.ns_per_executed", "ns"},
		{"trace.record_s", "s"},
		{"trace.bytes_per_executed", "B"},
		{"trace.decode_s", "s"},
		{"trace.image_mb", "MB"},
		{"trace.replay_self_s", "s"},
		{"trace.cells_per_record", "count"},
		{"trace.break_even_cells", "count"},
	}
	for _, m := range coreModels {
		defs = append(defs, metricDef{"sim.core_s." + m, "s"})
	}
	for _, m := range coreModels {
		defs = append(defs, metricDef{"sim.ns_per_call." + m, "ns"})
	}
	for _, k := range callKinds {
		defs = append(defs, metricDef{"sim.calls." + k, "count"})
	}
	defs = append(defs,
		metricDef{"sim.ipc", "instr/cycle"},
		metricDef{"sim.l1_miss_frac", "ratio"},
		metricDef{"sim.dram_per_kinstr", "1/kinstr"},
		metricDef{"sim.tlb_walks_per_kinstr", "1/kinstr"},
		metricDef{"sim.load_stall_cycles_per_load", "cycles"},
		metricDef{"sim.prefetch_late_cycles_per_load", "cycles"},
		metricDef{"sim.prefetched_unused_frac", "ratio"},
	)
	for _, m := range hwpfModels[1:] {
		defs = append(defs,
			metricDef{"hwpf." + m + ".issued", "count"},
			metricDef{"hwpf." + m + ".dropped_frac", "ratio"},
			metricDef{"hwpf." + m + ".extra_ns_per_load", "ns"},
		)
	}
	defs = append(defs,
		metricDef{"core.cell_s_p50", "s"},
		metricDef{"core.cell_s_tail", "s"},
		metricDef{"sweep.busy_frac", "ratio"},
		metricDef{"sweep.tail_idle_s", "s"},
		metricDef{"store.hits", "count"},
		metricDef{"store.puts", "count"},
		metricDef{"store.hit_frac", "ratio"},
		metricDef{"fleet.fresh_cells", "count"},
		metricDef{"fleet.dedup_hits", "count"},
		metricDef{"fleet.cache_hits", "count"},
		metricDef{"fleet.leases", "count"},
		metricDef{"fleet.cells_per_lease", "count"},
		metricDef{"fleet.requeued", "count"},
		metricDef{"fleet.cell_s_p50", "s"},
		metricDef{"fleet.worker_busy_frac", "ratio"},
	)
	for _, r := range httpRoutes {
		defs = append(defs, metricDef{"http." + r.metric + ".s_p50", "s"})
	}
	return defs
}()
