//! The repository benchmark: closed-loop campaign workloads driven through the public
//! API of the engine, inject, graph, core, models, runtime and serve crates.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--data-dir <dir>] [--source <id>] [--tiny] [--prepare]
//! ```
//!
//! `--prepare` only trains or loads the models and computes the serial reference
//! counts, so the measuring process starts from a warm cache and its peak memory
//! excludes training.
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1` runs the
//! layer probes and alternates traced and untraced iterations for the per-layer
//! metrics. The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A count that differs from the serial reference
//! makes the run fail and the process exit non-zero.

mod fixture;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use fixture::{BoxError, Fixture, Workload};
use stats::{describe, median, tail_quantile};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Ops, Sample};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    /// Only build the fixture (train or load models, compute the serial reference).
    prepare: bool,
    data_dir: PathBuf,
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let (mut tiny, mut prepare) = (false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--tiny" => tiny = true,
            "--prepare" => prepare = true,
            _ => {
                let key = flag
                    .strip_prefix("--")
                    .ok_or_else(|| format!("unexpected argument {flag}"))?;
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                map.insert(key.to_string(), value);
            }
        }
    }
    let get = |k: &str| {
        map.get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload_name = get("workload")?;
    let workload = Workload::parse(&workload_name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {workload_name}; expected one of {names:?}")
    })?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        tiny,
        prepare,
        data_dir: map
            .get("data-dir")
            .map_or_else(|| PathBuf::from(".bench_data"), PathBuf::from),
        source: map
            .get("source")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn header(args: &Args, fix: &Fixture) {
    let shape = fix.shape;
    let tile = match shape.tile {
        0 => "0".to_string(),
        ranger_inject::TILE_AUTO => "auto".to_string(),
        n => n.to_string(),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} mode={} seed={} source={} nproc={nproc} simd_tier={} \
         backend={} batch={} tile={tile} workers={} inputs={} trials={}",
        fix.workload.name(),
        if args.trace { "traced" } else { "untraced" },
        fix.seed,
        args.source,
        ranger_simd::active_tier().name(),
        shape.backend,
        shape.batch,
        shape.workers,
        fix.size.inputs,
        fix.size.trials,
    );
}

fn run(args: &Args) -> Result<bool, BoxError> {
    let t = Instant::now();
    let fix = Fixture::prepare(
        args.workload,
        args.seed,
        args.tiny,
        &args.data_dir,
        &args.source,
    )?;
    if args.prepare {
        eprintln!(
            "perfbench: fixture ready in {:.2} s",
            t.elapsed().as_secs_f64()
        );
        return Ok(true);
    }
    header(args, &fix);
    println!(
        "# fixture (zoo, models, serial reference) ready in {:.2} s",
        t.elapsed().as_secs_f64()
    );
    let mut ops = Ops::default();
    // One discarded iteration lets caches fill and lazy set-up finish.
    workloads::run_untraced(&fix, 0, &mut ops);
    let budget = Duration::from_secs_f64(args.seconds);
    let metrics = if args.trace {
        traced_metrics(&fix, budget, &mut ops)?
    } else {
        untraced_metrics(&fix, budget, &mut ops)
    };
    let catalogue = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut json = Vec::new();
    let mut complete = true;
    for def in catalogue {
        match metrics.get(def.name) {
            Some(&value) if value.is_finite() => {
                if def.moves.is_empty() {
                    println!("{:<34} {value:>14.4} {}", def.name, def.unit);
                } else {
                    println!(
                        "{:<34} {value:>14.4} {:<9} moves: {}",
                        def.name, def.unit, def.moves
                    );
                }
                json.push(format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    def.name, def.unit
                ));
            }
            _ => {
                println!("{:<34} {:>14} {}", def.name, "missing", def.unit);
                complete = false;
            }
        }
    }
    for failure in &ops.failures {
        println!("# FAILED: {failure}");
    }
    let correct = ops.failed == 0 && complete;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        json.join(", ")
    );
    Ok(correct)
}

/// Runs untraced iterations for `budget` (at least three).
fn measure(fix: &Fixture, budget: Duration, ops: &mut Ops) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut run = 0;
    while samples.len() < 3 || start.elapsed() < budget {
        run += 1;
        if let Some(s) = workloads::run_untraced(fix, run, ops) {
            samples.push(s);
        }
        if run >= 3 && samples.is_empty() {
            break;
        }
    }
    samples
}

fn untraced_metrics(fix: &Fixture, budget: Duration, ops: &mut Ops) -> BTreeMap<&'static str, f64> {
    let samples = measure(fix, budget, ops);
    let mut m = BTreeMap::new();
    if samples.is_empty() {
        return m;
    }
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let setups: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.setups_s.iter().copied())
        .collect();
    let rates: Vec<f64> = samples
        .iter()
        .map(|s| s.trials as f64 / s.campaign_s)
        .collect();
    println!("# wall_s: {}", describe(&walls, "s"));
    let raw: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    println!("# wall_s samples (s): {}", raw.join(" "));
    println!("# setup_s: {}", describe(&setups, "s"));
    println!("# trials_per_s: {}", describe(&rates, "trials/s"));
    remote_summary(&samples, ops);
    m.insert("wall_s", median(&walls));
    m.insert("setup_s", median(&setups));
    m.insert("trials_per_s", median(&rates));
    if let Some(rss) = peak_rss_mb() {
        m.insert("peak_rss_mb", rss);
    }
    m
}

/// Event gaps, resume time and error rate of untraced iterations: printed with their
/// sample counts, and returned as metrics (0 where the workload has none).
fn remote_summary(samples: &[Sample], ops: &Ops) -> BTreeMap<&'static str, f64> {
    let gaps: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.event_gaps_ms.iter().copied())
        .collect();
    let resumes: Vec<f64> = samples.iter().filter_map(|s| s.resume_s).collect();
    let mut m = BTreeMap::new();
    if samples.iter().any(|s| s.events_frac.is_some()) {
        let p50 = tail_quantile(&gaps, 0.5);
        let p90 = tail_quantile(&gaps, 0.9);
        println!(
            "# event_gap_ms: p50 {p50:.4?}, p90 {p90:.4?} (n={}; a percentile needs ten \
             samples beyond it)",
            gaps.len()
        );
        m.extend(p50.map(|v| ("event_gap_p50_ms", v)));
        m.extend(p90.map(|v| ("event_gap_p90_ms", v)));
    } else {
        m.insert("event_gap_p50_ms", 0.0);
        m.insert("event_gap_p90_ms", 0.0);
    }
    if resumes.is_empty() {
        m.insert("resume_s", 0.0);
    } else {
        println!("# resume_s: {}", describe(&resumes, "s"));
        m.insert("resume_s", median(&resumes));
    }
    println!(
        "# error_rate: {} failed of {} attempted",
        ops.failed, ops.attempted
    );
    m.insert(
        "error_rate",
        ops.failed as f64 / ops.attempted.max(1) as f64,
    );
    m
}

/// Gaps between a host's consecutive pushed ranges, per chunk, minus one chunk's
/// compute time `chunk_ms`.
fn push_gaps_ms(samples: &[&Sample], chunk_ms: f64) -> Vec<f64> {
    samples
        .iter()
        .filter_map(|s| s.lease.as_ref())
        .flat_map(|l| l.bursts.iter())
        .flat_map(|host| {
            host.windows(2)
                .filter(|w| w[1].1 > 0)
                .map(|w| (w[1].0 - w[0].0) * 1e3 / w[1].1 as f64 - chunk_ms)
                .collect::<Vec<_>>()
        })
        .collect()
}

fn span_ms(spans: &[trace::Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

fn traced_metrics(
    fix: &Fixture,
    budget: Duration,
    ops: &mut Ops,
) -> Result<BTreeMap<&'static str, f64>, BoxError> {
    let start = Instant::now();
    let mut m = layers::probe(fix)?;
    let tracer = Tracer::new();
    let mut run = 1000;
    if fix.workload.is_remote() {
        // The served campaign's chunks, driven on the benchmark's own pool, for the
        // inject and runtime layers (the server's own pool is not observable).
        while span_ms(&tracer.spans(), "inject.chunk").len() < 200 && run < 1020 {
            run += 1;
            let root = tracer.reserve("probe", None, run);
            let counts = workloads::traced_campaign(fix, run, root, &tracer, ops);
            tracer.close(root);
            if let Some(counts) = counts {
                ops.check("probe baseline arm", &counts[0], &fix.reference[0]);
                ops.check("probe protected arm", &counts[1], &fix.reference[1]);
            } else {
                break;
            }
        }
    }
    let mut untraced: Vec<Sample> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    // Run for the budget, and on until every percentile has ten samples beyond it.
    let enough = |untraced: &[Sample], traced: &[Sample]| {
        let gaps: usize = untraced.iter().map(|s| s.event_gaps_ms.len()).sum();
        untraced.len() >= 2
            && traced.len() >= 2
            && span_ms(&tracer.spans(), "inject.chunk").len() >= 100
            && (!fix.workload.is_remote() || gaps >= 100)
            && (fix.workload != Workload::LenetSharded
                || push_gaps_ms(&untraced.iter().chain(traced).collect::<Vec<_>>(), 0.0).len()
                    >= 20)
    };
    while start.elapsed() < budget || !enough(&untraced, &traced) {
        run += 1;
        if let Some(s) = workloads::run_untraced(fix, run, ops) {
            untraced.push(s);
        }
        run += 1;
        if let Some(s) = workloads::run_traced(fix, run, ops, &tracer) {
            traced.push(s);
        }
        if run > 1200 {
            break;
        }
    }
    let spans = tracer.spans();

    // models, engine, core, inject: durations of the spans around their calls.
    m.insert(
        "models.zoo_load_ms",
        median(&span_ms(&spans, "models.zoo_load")),
    );
    m.insert(
        "engine.inputs_ms",
        median(&span_ms(&spans, "engine.inputs")),
    );
    m.insert("core.profile_ms", median(&span_ms(&spans, "core.profile")));
    m.insert("core.protect_ms", median(&span_ms(&spans, "core.protect")));
    m.insert(
        "inject.prepare_ms",
        median(&span_ms(&spans, "inject.prepare")),
    );
    m.insert("serve.submit_ms", median(&span_ms(&spans, "serve.submit")));
    let chunk_us: Vec<f64> = span_ms(&spans, "inject.chunk")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    if let Some(v) = tail_quantile(&chunk_us, 0.5) {
        m.insert("inject.chunk_us_p50", v);
    }
    if let Some(v) = tail_quantile(&chunk_us, 0.9) {
        m.insert("inject.chunk_us_p90", v);
    }
    let arm_runs = spans
        .iter()
        .filter(|s| s.name.starts_with("campaign."))
        .count() as f64;
    m.insert(
        "inject.trial_us",
        chunk_us.iter().sum::<f64>() / (arm_runs * fix.arm_trials() as f64),
    );
    let reference = &fix.reference;
    let trials: u64 = reference.iter().map(|c| c.trials).sum();
    let unactivated: u64 = reference.iter().map(|c| c.unactivated).sum();
    m.insert(
        "inject.activated_frac",
        (trials - unactivated) as f64 / trials as f64,
    );
    m.insert("inject.sdc.baseline", reference[0].sdc_counts[0] as f64);
    m.insert("inject.sdc.protected", reference[1].sdc_counts[0] as f64);

    // runtime: chunk busy time against the pool's wall time, per pool run.
    let workers = fix.arms.config.workers as f64;
    let (mut busy_frac, mut idle_ms) = (Vec::new(), Vec::new());
    for (i, pool) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "runtime.run")
    {
        let busy: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(i) && s.name == "inject.chunk")
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum();
        let wall = pool.dur_ns() as f64 / 1e6;
        busy_frac.push(busy / (workers * wall));
        idle_ms.push(workers * wall - busy);
    }
    m.insert("runtime.busy_frac", median(&busy_frac));
    m.insert("runtime.idle_ms", median(&idle_ms));

    // engine: untraced wall clock against the sum of the traced phases.
    let phase_sums: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "iteration")
        .map(|(i, _)| Tracer::covered_by_children(&spans, i) as f64 / 1e9)
        .collect();
    let untraced_wall = median(&untraced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    m.insert(
        "engine.phase_residual_pct",
        (untraced_wall - median(&phase_sums)) / untraced_wall * 100.0,
    );
    m.insert(
        "obs.trace_overhead_pct",
        (traced_wall - untraced_wall) / untraced_wall * 100.0,
    );

    // serve: events and lease traffic of every served or sharded iteration.
    let all: Vec<&Sample> = untraced.iter().chain(&traced).collect();
    let events: Vec<f64> = all.iter().filter_map(|s| s.events_frac).collect();
    m.insert(
        "serve.events",
        events.iter().copied().reduce(f64::min).unwrap_or(0.0),
    );
    let leases: Vec<&workloads::LeaseSample> =
        all.iter().filter_map(|s| s.lease.as_ref()).collect();
    let per_iter = |f: &dyn Fn(&workloads::LeaseSample) -> f64| {
        median(&leases.iter().map(|l| f(l)).collect::<Vec<_>>())
    };
    m.insert("serve.lease.claims", per_iter(&|l| l.claims as f64));
    m.insert("serve.lease.pushes", per_iter(&|l| l.pushes as f64));
    m.insert("serve.lease.wait_ms", per_iter(&|l| l.wait_ms));
    let claims: u64 = leases.iter().map(|l| l.claims).sum();
    let ratio = |n: u64| {
        if claims == 0 {
            0.0
        } else {
            n as f64 / claims as f64
        }
    };
    m.insert(
        "serve.lease.lost_frac",
        ratio(leases.iter().map(|l| l.lost).sum()),
    );
    m.insert(
        "serve.lease.chunks_per_claim",
        ratio(leases.iter().map(|l| l.pushes).sum()),
    );
    let push_gaps = push_gaps_ms(
        &all,
        m.get("inject.chunk_us_p50").copied().unwrap_or(0.0) / 1e3,
    );
    if leases.is_empty() {
        m.insert("serve.push_gap_ms_p50", 0.0);
    } else if let Some(v) = tail_quantile(&push_gaps, 0.5) {
        m.insert("serve.push_gap_ms_p50", v);
    }
    m.extend(remote_summary(&untraced, ops));

    println!(
        "# traced iterations: {} untraced, {} traced; wall_s untraced {} / traced {}",
        untraced.len(),
        traced.len(),
        describe(&untraced.iter().map(|s| s.wall_s).collect::<Vec<_>>(), "s"),
        describe(&traced.iter().map(|s| s.wall_s).collect::<Vec<_>>(), "s"),
    );
    println!("# self time by span (all runs):");
    for (name, (ns, count)) in tracer.self_times() {
        println!(
            "#   {name:<24} {:>12.3} ms over {count} spans",
            ns as f64 / 1e6
        );
    }
    let path =
        fix.data_dir
            .join("traces")
            .join(format!("{}-seed{}.jsonl", fix.workload.name(), fix.seed));
    tracer.write_jsonl(&path)?;
    println!("# spans written to {}", path.display());
    Ok(m)
}
