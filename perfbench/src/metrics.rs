//! The benchmark's metric catalogue: name, unit and, for per-layer metrics, the
//! end-to-end metric and workload each one should move. `BENCHMARK.json` lists the
//! same names and units.

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// The end-to-end metric and workload this metric should move.
    pub moves: &'static str,
}

const fn def(name: &'static str, unit: &'static str, moves: &'static str) -> Def {
    Def { name, unit, moves }
}

/// Reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    def("wall_s", "s", ""),
    def("setup_s", "s", ""),
    def("trials_per_s", "trials/s", ""),
    def("peak_rss_mb", "MiB", ""),
];

/// Reported by every traced run (`--trace 1`).
pub const PER_LAYER: &[Def] = &[
    def("models.zoo_load_ms", "ms", "setup_s on lenet-pipeline"),
    def("engine.inputs_ms", "ms", "setup_s on lenet-pipeline"),
    def(
        "engine.phase_residual_pct",
        "%",
        "wall_s accounting, every workload",
    ),
    def("core.profile_ms", "ms", "setup_s on lenet-pipeline"),
    def("core.protect_ms", "ms", "setup_s on lenet-pipeline"),
    def("core.clamps", "count", "exact count"),
    def("core.flops_overhead_pct", "%", "exact count (Table IV)"),
    def("graph.compile_ms", "ms", "setup_s on every workload"),
    def(
        "graph.pass_us.baseline",
        "us",
        "trials_per_s on lenet-pipeline",
    ),
    def(
        "graph.pass_us.protected",
        "us",
        "trials_per_s on lenet-pipeline",
    ),
    def(
        "graph.rr_overhead_pct",
        "%",
        "trials_per_s on lenet-pipeline (wall-clock Table IV)",
    ),
    def("graph.flops_per_pass", "flop", "exact count"),
    def(
        "graph.bytes_per_pass",
        "bytes",
        "computed from tensor sizes",
    ),
    def(
        "graph.gflops_per_s",
        "GFLOP/s",
        "trials_per_s on lenet-pipeline",
    ),
    def(
        "graph.tiled_pass_us",
        "us",
        "trials_per_s on mlp-batched; flat on lenet-pipeline",
    ),
    def(
        "graph.untiled_pass_us",
        "us",
        "trials_per_s on mlp-batched; flat on lenet-pipeline",
    ),
    def(
        "graph.tile_segments",
        "count",
        "trials_per_s on mlp-batched; flat on lenet-pipeline",
    ),
    def(
        "graph.tile_rows",
        "count",
        "trials_per_s on mlp-batched; flat on lenet-pipeline",
    ),
    def(
        "simd.pass_speedup",
        "x",
        "trials_per_s on lenet-pipeline; not lenet-served (f32)",
    ),
    def("inject.prepare_ms", "ms", "setup_s on every workload"),
    def(
        "inject.chunk_us_p50",
        "us",
        "trials_per_s on every workload",
    ),
    def(
        "inject.chunk_us_p90",
        "us",
        "trials_per_s on every workload",
    ),
    def("inject.trial_us", "us", "trials_per_s on every workload"),
    def("inject.activated_frac", "fraction", "exact count"),
    def("inject.sdc.baseline", "count", "exact count"),
    def("inject.sdc.protected", "count", "exact count"),
    def(
        "runtime.busy_frac",
        "fraction",
        "trials_per_s, most on mlp-batched",
    ),
    def("runtime.idle_ms", "ms", "trials_per_s, most on mlp-batched"),
    def("serve.submit_ms", "ms", "setup_s on lenet-served"),
    def(
        "serve.append_us_p50",
        "us",
        "event_gap_p50_ms and trials_per_s on lenet-served; flat on lenet-pipeline",
    ),
    def(
        "serve.append_us_p90",
        "us",
        "event_gap_p50_ms and trials_per_s on lenet-served; flat on lenet-pipeline",
    ),
    def("serve.checkpoint_open_ms", "ms", "resume_s on lenet-served"),
    def(
        "serve.checkpoint_bytes_per_chunk",
        "bytes",
        "resume_s on lenet-served",
    ),
    def(
        "serve.events",
        "fraction",
        "events received over chunks + 2 (1 = none lost)",
    ),
    def(
        "serve.lease.claims",
        "count",
        "trials_per_s and event_gap_p50_ms on lenet-sharded",
    ),
    def(
        "serve.lease.pushes",
        "count",
        "trials_per_s and event_gap_p50_ms on lenet-sharded",
    ),
    def(
        "serve.lease.lost_frac",
        "fraction",
        "trials_per_s and event_gap_p50_ms on lenet-sharded",
    ),
    def(
        "serve.lease.chunks_per_claim",
        "count",
        "trials_per_s and event_gap_p50_ms on lenet-sharded",
    ),
    def(
        "serve.lease.wait_ms",
        "ms",
        "trials_per_s and event_gap_p50_ms on lenet-sharded",
    ),
    def(
        "serve.push_gap_ms_p50",
        "ms",
        "trials_per_s and event_gap_p50_ms on lenet-sharded",
    ),
    def(
        "obs.trace_overhead_pct",
        "%",
        "traced against untraced wall_s, per workload",
    ),
    def(
        "event_gap_p50_ms",
        "ms",
        "end to end, served and sharded (untraced iterations)",
    ),
    def(
        "event_gap_p90_ms",
        "ms",
        "end to end, served and sharded (untraced iterations)",
    ),
    def(
        "resume_s",
        "s",
        "end to end, lenet-served (untraced iterations)",
    ),
    def(
        "error_rate",
        "fraction",
        "end to end, every workload (failed over attempted)",
    ),
];
