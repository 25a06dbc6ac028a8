//! Layer probes: direct, repeated timings of one public function of one crate at a
//! time, on the workload's own networks and campaign geometry.

use crate::fixture::{BoxError, Fixture, Workload};
use crate::stats::{median, tail_quantile};
use ranger_engine::canonical_input;
use ranger_graph::exec::{NoopInterceptor, Values};
use ranger_graph::{BackendKind, ExecPlan, Graph, NodeId, DEFAULT_TILE_BUDGET_BYTES};
use ranger_inject::{campaign_chunks, default_chunk_len, ChunkTally};
use ranger_models::{ModelConfig, ModelKind, ModelZoo};
use ranger_serve::{CheckpointStore, ChunkRecord};
use ranger_tensor::Tensor;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe results by metric name.
pub type Probed = BTreeMap<&'static str, f64>;

/// How long each timing loop may run.
const LOOP_BUDGET: Duration = Duration::from_millis(400);

/// Repeats `f` until `LOOP_BUDGET` is spent (at least `min` times), returning each
/// call's duration in microseconds.
fn repeat(min: usize, mut f: impl FnMut() -> Result<(), BoxError>) -> Result<Vec<f64>, BoxError> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() < LOOP_BUDGET {
        let t = Instant::now();
        f()?;
        out.push(t.elapsed().as_secs_f64() * 1e6);
        if out.len() >= 10_000 {
            break;
        }
    }
    Ok(out)
}

/// One forward pass of `feeds` through `plan`, untiled or tiled.
fn pass(
    plan: &ExecPlan<'_>,
    values: &mut Values,
    feeds: &[(&str, Tensor)],
    output: NodeId,
    tiled: Option<(&ranger_graph::TiledSchedule, usize)>,
) -> Result<(), BoxError> {
    match tiled {
        Some((schedule, rows)) => {
            plan.run_tiled_into(values, feeds, &mut NoopInterceptor, schedule, rows)?
        }
        None => plan.run_into(values, feeds, &mut NoopInterceptor)?,
    }
    black_box(values.get(output)?);
    Ok(())
}

/// Medians of two pass timings measured interleaved, so drift lands on both alike.
fn interleaved(
    mut a: impl FnMut() -> Result<(), BoxError>,
    mut b: impl FnMut() -> Result<(), BoxError>,
) -> Result<(f64, f64), BoxError> {
    a()?;
    b()?;
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    repeat(20, || {
        let t = Instant::now();
        a()?;
        ta.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        b()?;
        tb.push(t.elapsed().as_secs_f64() * 1e6);
        Ok(())
    })?;
    Ok((median(&ta), median(&tb)))
}

fn warmed<'g>(
    graph: &'g Graph,
    backend: BackendKind,
    feeds: &[(&str, Tensor)],
) -> Result<ExecPlan<'g>, BoxError> {
    let plan = graph.compile_with(backend.backend())?;
    plan.warm(feeds)?;
    Ok(plan)
}

/// Runs every layer probe for `fix`.
pub fn probe(fix: &Fixture) -> Result<Probed, BoxError> {
    let mut m = Probed::new();
    let arms = &fix.arms;
    let backend = fix.shape.backend;
    let (base, prot) = (&arms.baseline, &arms.protected);
    let input = arms.inputs[0].clone();
    let feeds = [(base.input_name.as_str(), input.clone())];

    // core: exact counts of the protection.
    let overhead_input = match fix.workload {
        Workload::MlpBatched => input.clone(),
        _ => {
            let model = ModelZoo::new(&fix.zoo_dir)
                .load_or_train(&ModelConfig::new(ModelKind::LeNet), fix.seed)?
                .model;
            canonical_input(&model)
        }
    };
    let overhead = ranger::overhead::flops_overhead(
        &base.graph,
        &prot.graph,
        &base.input_name,
        &overhead_input,
    )?;
    m.insert("core.clamps", arms.clamps as f64);
    m.insert("core.flops_overhead_pct", overhead.percent());

    // graph: compile + warm, golden passes per arm, FLOPs and bytes.
    let compile = repeat(5, || {
        black_box(warmed(&prot.graph, backend, &feeds)?);
        Ok(())
    })?;
    m.insert("graph.compile_ms", median(&compile) / 1e3);
    let base_plan = warmed(&base.graph, backend, &feeds)?;
    let prot_plan = warmed(&prot.graph, backend, &feeds)?;
    let (mut vb, mut vp) = (base_plan.buffers(), prot_plan.buffers());
    let (base_us, prot_us) = interleaved(
        || pass(&base_plan, &mut vb, &feeds, base.output, None),
        || pass(&prot_plan, &mut vp, &feeds, prot.output, None),
    )?;
    m.insert("graph.pass_us.baseline", base_us);
    m.insert("graph.pass_us.protected", prot_us);
    m.insert("graph.rr_overhead_pct", (prot_us / base_us - 1.0) * 100.0);
    let flops = ranger_graph::flops::profile(&base.graph, &feeds)?.total as f64;
    m.insert("graph.flops_per_pass", flops);
    // Computed, not measured: every node's f32 output bytes (weights included, as
    // constant nodes) for one pass.
    let bytes: usize = base
        .graph
        .nodes()
        .iter()
        .filter_map(|n| base_plan.output_dims(n.id))
        .map(|dims| dims.iter().product::<usize>() * 4)
        .sum();
    m.insert("graph.bytes_per_pass", bytes as f64);
    m.insert("graph.gflops_per_s", flops / (base_us * 1e3));

    // graph: the same batch-64 feed through the tiled and the untiled pass.
    let rows_per_trial = input.batch_rows().max(1);
    let schedule = prot_plan.tiled_schedule(&[prot.output]);
    let tile_trials =
        (prot_plan.derive_tile_rows(&schedule, DEFAULT_TILE_BUDGET_BYTES) / rows_per_trial).max(1);
    let tile_rows = tile_trials * rows_per_trial;
    let batch_feeds = [(prot.input_name.as_str(), input.repeat_batch(64)?)];
    let (mut vt, mut vu) = (prot_plan.buffers(), prot_plan.buffers());
    let (tiled_us, untiled_us) = interleaved(
        || {
            pass(
                &prot_plan,
                &mut vt,
                &batch_feeds,
                prot.output,
                Some((&schedule, tile_rows)),
            )
        },
        || pass(&prot_plan, &mut vu, &batch_feeds, prot.output, None),
    )?;
    m.insert("graph.tiled_pass_us", tiled_us);
    m.insert("graph.untiled_pass_us", untiled_us);
    m.insert("graph.tile_segments", schedule.segments() as f64);
    m.insert("graph.tile_rows", tile_rows as f64);

    // simd: the reference f32 plan against the SIMD plan on the baseline network.
    let f32_plan = warmed(&base.graph, BackendKind::F32, &feeds)?;
    let simd_plan = warmed(&base.graph, BackendKind::Simd, &feeds)?;
    let (mut vf, mut vs) = (f32_plan.buffers(), simd_plan.buffers());
    let (f32_us, simd_us) = interleaved(
        || pass(&f32_plan, &mut vf, &feeds, base.output, None),
        || pass(&simd_plan, &mut vs, &feeds, base.output, None),
    )?;
    m.insert("simd.pass_speedup", f32_us / simd_us);

    // serve: fsync'd appends of this workload's chunk geometry, in a store the
    // benchmark owns, then reopening the finished file.
    let config = &arms.config;
    let chunks = campaign_chunks(config, arms.inputs.len(), default_chunk_len(config));
    let categories = arms.judge.categories().len();
    let path = fix.data_dir.join("probe").join(format!(
        "{}-seed{}-append.jsonl",
        fix.workload.name(),
        fix.seed
    ));
    let _ = std::fs::remove_file(&path);
    let fingerprint = "perfbench-append-probe";
    let mut store = CheckpointStore::open(&path, fingerprint)?;
    let records = 200usize;
    let mut append_us = Vec::with_capacity(records);
    for i in 0..records {
        let chunk = chunks[i % chunks.len()];
        let record = ChunkRecord {
            chunk,
            tally: ChunkTally {
                sdc_counts: vec![(i % 3) as u64; categories],
                trials: chunk.len as u64,
                unactivated: (i % 2) as u64,
            },
        };
        let t = Instant::now();
        store.append(&record)?;
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(store);
    if let Some(p50) = tail_quantile(&append_us, 0.5) {
        m.insert("serve.append_us_p50", p50);
    }
    if let Some(p90) = tail_quantile(&append_us, 0.9) {
        m.insert("serve.append_us_p90", p90);
    }
    let open = repeat(5, || {
        black_box(CheckpointStore::open(&path, fingerprint)?);
        Ok(())
    })?;
    m.insert("serve.checkpoint_open_ms", median(&open) / 1e3);
    let file_bytes = std::fs::metadata(&path)?.len();
    m.insert(
        "serve.checkpoint_bytes_per_chunk",
        file_bytes as f64 / records as f64,
    );
    let _ = std::fs::remove_file(&path);
    Ok(m)
}
