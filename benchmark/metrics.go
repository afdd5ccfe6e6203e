package main

// This file is the benchmark's metric catalogue. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// TestCatalogueMatchesBenchmarkJSON keeps the two in step.

// endToEndMetrics are what a user of the runtime, the partitioner
// library or the daemon would see, the same set on every workload.
// Counts made by the simulated machine and the allocator repeat
// exactly at a fixed seed; their bounds are at least three times the
// quartile distance they show across seeds, because the driver varies
// the seed between runs. The two host times use floor estimators and
// carry the wide bounds (README, "Bounds").
var endToEndMetrics = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_floor", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "virtual_s_per_op", Unit: "vs", Better: "lower", Bound: 0.04},
	{Name: "virtual_setup_s", Unit: "vs", Better: "lower", Bound: 0.06},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.03},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "setup_heap_mb", Unit: "MB", Better: "lower", Bound: 0.08},
	{Name: "edge_cut", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "imbalance", Unit: "ratio", Better: "lower", Bound: 0.02},
}

// allKinds are the op kinds of the four workloads, in workload order.
var allKinds = []string{
	"reuse_step", "noreuse_step",
	"ml_serial", "ml_dist8", "stream",
	"upload", "repeat", "delta_base", "delta_chain",
}

// perLayerMetrics lists every per-layer metric of a traced run. A
// metric whose layer the workload does not drive reads 0 there.
func perLayerMetrics() []metricSpec {
	lower := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "higher"} }
	ms := []metricSpec{
		lower("mesh.generate_ms", "ms"),
		lower("geocol.build_ms", "ms"), lower("geocol.build_virtual_s", "vs"),
		lower("geocol.ghost_new_ms", "ms"),
		lower("geocol.ghost_push_us", "us"), lower("geocol.ghost_push_allocs", "count"),
		lower("geocol.build_coarse_ms", "ms"),
		lower("partition.rcb_ms", "ms"), lower("partition.rcb_virtual_s", "vs"),
		lower("partition.ml_serial_ms", "ms"), lower("partition.ml_serial_virtual_s", "vs"),
		lower("partition.ml_serial_allocs", "count"), lower("partition.cut_ml_serial", "count"),
		lower("partition.ml_dist8_ms", "ms"), lower("partition.ml_dist8_virtual_s", "vs"),
		lower("partition.ml_dist8_allocs", "count"), lower("partition.cut_ml_dist8", "count"),
		lower("partition.ml_ladder_depth", "count"), lower("partition.ml_ladder_mb", "MB"),
		lower("partition.ml_warm_ms", "ms"), lower("partition.ml_warm_virtual_s", "vs"),
		lower("partition.ml_warm_allocs", "count"), lower("partition.ml_warm_over_cold", "ratio"),
		lower("partition.stream_ms", "ms"), lower("partition.stream_alloc_mb", "MB"),
		lower("partition.cut_stream", "count"), lower("partition.stream_cut_ratio", "ratio"),
		lower("remap.redistribute_ms", "ms"), lower("remap.redistribute_virtual_s", "vs"),
		lower("remap.moved_mb", "MB"),
		lower("ttable.build_ms", "ms"), lower("ttable.resolve_us_per_kref", "us"),
		lower("ttable.resolve_virtual_s", "vs"),
		lower("iterpart.partition_iterations_ms", "ms"), lower("iterpart.partition_iterations_virtual_s", "vs"),
		lower("schedule.build_gather_ms", "ms"), lower("schedule.build_gather_virtual_s", "vs"),
		lower("schedule.build_gather_allocs", "count"),
		lower("schedule.gather_us", "us"), lower("schedule.scatter_add_us", "us"),
		lower("schedule.ghosts_max", "count"), lower("schedule.msgs_per_gather", "count"),
		lower("schedule.send_words", "count"),
		lower("core.inspect_ms", "ms"), lower("core.inspect_virtual_s", "vs"),
		lower("core.execute_virtual_s", "vs"), lower("core.kernel_self_us", "us"),
		lower("core.noreuse_inspect_share", "ratio"), lower("core.setup_self_ms", "ms"),
		lower("registry.check_ns", "ns"), higher("registry.hits", "count"), lower("registry.misses", "count"),
		lower("machine.spawn_ms", "ms"), lower("machine.barrier_us", "us"),
		lower("machine.alltoall_us_4k", "us"), lower("machine.alltoall_allocs", "count"),
		lower("service.inproc_repeat_us", "us"), lower("service.wire_repeat_us", "us"),
		lower("service.request_kb", "kB"),
		higher("service.served_hit", "count"), lower("service.served_cold", "count"),
		higher("service.served_warm", "count"), higher("service.served_shared", "count"),
		lower("service.rejected", "count"), higher("service.warm_ratio", "ratio"),
		lower("service.cache_mb", "MB"), lower("service.cache_evictions", "count"),
		lower("stream.partition_ms", "ms"), lower("stream.alloc_mb", "MB"),
		higher("stream.decode_mb_s", "MB/s"), lower("stream.write_ms", "ms"),
		lower("lang.compile_us", "us"),
	}
	for _, k := range allKinds {
		ms = append(ms,
			lower("kind."+k+".op_ms_floor", "ms"), lower("kind."+k+".virtual_s", "vs"),
			lower("kind."+k+".allocs", "count"), lower("kind."+k+".cut", "count"))
	}
	return append(ms,
		lower("wall.op_ms_p50", "ms"), lower("wall.op_ms_p90", "ms"),
		higher("wall.ops_per_s", "1/s"), lower("wall.cpu_ms_per_op", "ms"),
		higher("host.nproc", "count"), higher("host.gomaxprocs", "count"),
		lower("host.spin_ms_p50", "ms"), lower("host.spin_ms_spread", "ratio"),
		lower("trace.overhead_pct", "%"))
}
