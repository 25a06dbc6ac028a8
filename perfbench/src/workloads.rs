//! One closed-loop iteration of each workload, untraced or traced.
//!
//! An iteration is what a researcher's command does: submit one campaign (both arms
//! where there are two) and wait for its result. Every iteration checks its counts
//! against the fixture's serial reference.

use crate::fixture::{
    campaign_config, mlp_inputs, mlp_net, protect_mlp, spec_for, BoxError, Counts, Fixture, Net,
    Workload,
};
use crate::trace::Tracer;
use ranger::protect::{Protector, RangerProtector};
use ranger::{profile_bounds, BoundsConfig};
use ranger_engine::{
    canonical_input, correct_classifier_inputs_for, profiling_samples_for, JudgeSpec, Pipeline,
    DEFAULT_PROFILE_FRACTION,
};
use ranger_graph::exec::Values;
use ranger_inject::{
    run_campaign, CampaignConfig, ChunkTally, ClassifierJudge, PreparedCampaign, SdcJudge,
};
use ranger_models::{ModelConfig, ModelKind, ModelZoo, TrainConfig};
use ranger_runtime::ThreadPool;
use ranger_serve::{
    CampaignEvent, CampaignServer, CampaignSpec, Client, WorkEvent, WorkOptions, WorkReport,
};
use ranger_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Operations attempted and failed, with a description of every failure.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation; returns its value, or records the failure.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        self.step(what, r)
    }

    /// A step of an operation counted elsewhere: only a failure is recorded.
    pub fn step<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        r.map_err(|e| self.fail(format!("{what}: {e}"))).ok()
    }

    /// An in-process run of both arms: two campaigns, two operations.
    fn both_arms<T>(&mut self, what: &str, r: Result<T, BoxError>) -> Option<T> {
        self.attempted += 1;
        self.op(what, r)
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Checks `got` against the serial reference; a mismatch fails the operation.
    pub fn check(&mut self, what: &str, got: &Counts, want: &Counts) {
        if got != want {
            self.fail(format!(
                "{what}: counts {got:?} differ from the serial reference {want:?}"
            ));
        }
    }
}

/// What one iteration measured.
#[derive(Debug, Default, Clone)]
pub struct Sample {
    pub wall_s: f64,
    /// Every set-up time measured in the iteration.
    pub setups_s: Vec<f64>,
    /// Wall time of the campaign phase (first faulty trial to result).
    pub campaign_s: f64,
    pub trials: u64,
    /// Gaps between consecutive `ChunkDone` events at the streaming client.
    pub event_gaps_ms: Vec<f64>,
    pub resume_s: Option<f64>,
    /// Events received against `chunks + 2`.
    pub events_frac: Option<f64>,
    pub lease: Option<LeaseSample>,
}

/// Lease traffic of one sharded iteration, from the hosts' `WorkEvent`s.
#[derive(Debug, Default, Clone)]
pub struct LeaseSample {
    pub claims: u64,
    pub pushes: u64,
    pub lost: u64,
    pub wait_ms: f64,
    /// Per host, the receive time (s) and size of each pushed burst.
    pub bursts: Vec<Vec<(f64, usize)>>,
}

/// How many setup probes an in-process iteration runs (cheap setups get more, so
/// their median is steady).
fn setup_probes(workload: Workload) -> usize {
    match workload {
        Workload::MlpBatched => 5,
        _ => 4,
    }
}

/// One untraced iteration.
pub fn run_untraced(fix: &Fixture, run: u64, ops: &mut Ops) -> Option<Sample> {
    match fix.workload {
        Workload::LenetPipeline | Workload::MlpBatched => in_process(fix, ops),
        Workload::LenetServed => served(fix, run, ops, None),
        Workload::LenetSharded => sharded(fix, run, ops, None),
    }
}

/// One traced iteration: spans around each call into the crates, under one root span.
pub fn run_traced(fix: &Fixture, run: u64, ops: &mut Ops, tracer: &Tracer) -> Option<Sample> {
    match fix.workload {
        Workload::LenetPipeline | Workload::MlpBatched => {
            let start = Instant::now();
            let root = tracer.reserve("iteration", None, run);
            let counts = traced_campaign(fix, run, root, tracer, ops)?;
            tracer.close(root);
            let wall_s = start.elapsed().as_secs_f64();
            check_arms(fix, ops, &counts);
            Some(Sample {
                wall_s,
                trials: 2 * fix.arm_trials(),
                ..Sample::default()
            })
        }
        Workload::LenetServed => served(fix, run, ops, Some(tracer)),
        Workload::LenetSharded => sharded(fix, run, ops, Some(tracer)),
    }
}

fn check_arms(fix: &Fixture, ops: &mut Ops, counts: &[Counts; 2]) {
    ops.check("baseline arm", &counts[0], &fix.reference[0]);
    ops.check("protected arm", &counts[1], &fix.reference[1]);
}

// ---------------------------------------------------------------------------
// In-process workloads
// ---------------------------------------------------------------------------

/// Runs the in-process workload once with `trials` per input; returns its wall time
/// and both arms' counts.
fn in_process_once(fix: &Fixture, trials: usize) -> Result<(f64, [Counts; 2]), BoxError> {
    let config = campaign_config(fix.shape, trials, fix.seed);
    let start = Instant::now();
    let counts = match fix.workload {
        Workload::LenetPipeline => {
            let outcome = Pipeline::for_model(ModelKind::LeNet)
                .seed(fix.seed)
                .zoo(ModelZoo::new(&fix.zoo_dir))
                .campaign(config)
                .inputs(fix.size.inputs)
                .run_full()?;
            let arm = |r: Option<ranger_inject::CampaignResult>| {
                r.map(|r| Counts::of(&r)).ok_or("pipeline ran no campaign")
            };
            [
                arm(outcome.baseline_result)?,
                arm(outcome.protected_result)?,
            ]
        }
        _ => {
            let baseline = mlp_net(fix.seed);
            let (protected, _) = protect_mlp(&baseline, fix.seed)?;
            let inputs = mlp_inputs(fix.seed, fix.size.inputs);
            let judge = ClassifierJudge::top1();
            let arm = |net: &Net| -> Result<Counts, BoxError> {
                Ok(Counts::of(&run_campaign(
                    &net.target(),
                    &inputs,
                    &judge,
                    &config,
                )?))
            };
            [arm(&baseline)?, arm(&protected)?]
        }
    };
    Ok((start.elapsed().as_secs_f64(), counts))
}

/// Setup probes (one trial per input) followed by the full-size run. The campaign
/// phase is the full run minus the probes' median.
fn in_process(fix: &Fixture, ops: &mut Ops) -> Option<Sample> {
    let mut probes = Vec::new();
    for _ in 0..setup_probes(fix.workload) {
        let (wall, _) = ops.both_arms("setup probe", in_process_once(fix, 1))?;
        probes.push(wall);
    }
    let (wall_s, counts) = ops.both_arms("campaign", in_process_once(fix, fix.size.trials))?;
    check_arms(fix, ops, &counts);
    Some(Sample {
        wall_s,
        campaign_s: wall_s - crate::stats::median(&probes),
        setups_s: probes,
        trials: 2 * fix.arm_trials(),
        ..Sample::default()
    })
}

/// The in-process workload as the explicit sequence of public steps `Pipeline` (or
/// the MLP workload) performs, each under its own span; both arms' chunks run on a
/// `ThreadPool` driven here, each chunk span carrying its worker index.
pub fn traced_campaign(
    fix: &Fixture,
    run: u64,
    root: usize,
    tracer: &Tracer,
    ops: &mut Ops,
) -> Option<[Counts; 2]> {
    let r = Some(root);
    let (baseline, protected, inputs, judge): (Net, Net, Vec<Tensor>, Box<dyn SdcJudge>) =
        match fix.workload {
            Workload::MlpBatched => {
                let s = tracer.begin(r, run);
                let baseline = mlp_net(fix.seed);
                tracer.end(s, "graph.build");
                let s = tracer.begin(r, run);
                let samples = mlp_inputs(fix.seed.wrapping_add(1), 64);
                let bounds = ops.step(
                    "profile",
                    profile_bounds(
                        &baseline.graph,
                        &baseline.input_name,
                        &samples,
                        &BoundsConfig::default(),
                    ),
                )?;
                tracer.end(s, "core.profile");
                let s = tracer.begin(r, run);
                let (graph, _) = ops.step(
                    "protect",
                    RangerProtector::default().protect(&baseline.graph, &bounds),
                )?;
                tracer.end(s, "core.protect");
                let protected = Net {
                    graph,
                    ..baseline.clone()
                };
                let inputs = mlp_inputs(fix.seed, fix.size.inputs);
                (
                    baseline,
                    protected,
                    inputs,
                    Box::new(ClassifierJudge::top1()),
                )
            }
            _ => {
                let recipe = TrainConfig::for_kind(ModelKind::LeNet);
                let s = tracer.begin(r, run);
                let model = ops
                    .step(
                        "zoo load",
                        ModelZoo::new(&fix.zoo_dir)
                            .load_or_train(&ModelConfig::new(ModelKind::LeNet), fix.seed),
                    )?
                    .model;
                tracer.end(s, "models.zoo_load");
                let s = tracer.begin(r, run);
                let samples = profiling_samples_for(
                    ModelKind::LeNet,
                    fix.seed,
                    DEFAULT_PROFILE_FRACTION,
                    &recipe,
                );
                let bounds = ops.step(
                    "profile",
                    profile_bounds(
                        &model.graph,
                        &model.input_name,
                        &samples,
                        &BoundsConfig::default(),
                    ),
                )?;
                tracer.end(s, "core.profile");
                let s = tracer.begin(r, run);
                let (graph, _) = ops.step(
                    "protect",
                    RangerProtector::default().protect(&model.graph, &bounds),
                )?;
                tracer.end(s, "core.protect");
                let mut protected = model.clone();
                protected.graph = graph;
                let s = tracer.begin(r, run);
                ops.step(
                    "flops overhead",
                    ranger::overhead::flops_overhead(
                        &model.graph,
                        &protected.graph,
                        &model.input_name,
                        &canonical_input(&model),
                    ),
                )?;
                tracer.end(s, "core.flops_overhead");
                let (inputs, judge) = if fix.workload == Workload::LenetPipeline {
                    let s = tracer.begin(r, run);
                    let inputs = ops.step(
                        "input selection",
                        correct_classifier_inputs_for(&model, fix.seed, fix.size.inputs, &recipe),
                    )?;
                    tracer.end(s, "engine.inputs");
                    (inputs, JudgeSpec::Auto.build(&model))
                } else {
                    // The served campaign's inputs, as the server materializes them.
                    let m = ops.step("materialize", served_spec(fix).materialize())?;
                    (m.inputs, m.judge)
                };
                (Net::of(&model), Net::of(&protected), inputs, judge)
            }
        };
    let mut out = Vec::new();
    for (arm, net) in [("baseline", &baseline), ("protected", &protected)] {
        let s = tracer.reserve(&format!("campaign.{arm}"), r, run);
        let counts = traced_arm(
            net,
            &inputs,
            judge.as_ref(),
            &fix.arms.config,
            tracer,
            s,
            run,
            ops,
        )?;
        tracer.close(s);
        out.push(counts);
    }
    let protected_counts = out.pop().expect("two arms");
    Some([out.pop().expect("two arms"), protected_counts])
}

/// Prepares one arm and drives its chunks on a pool, tracing preparation, the pool run
/// and every chunk.
#[allow(clippy::too_many_arguments)]
fn traced_arm(
    net: &Net,
    inputs: &[Tensor],
    judge: &dyn SdcJudge,
    config: &CampaignConfig,
    tracer: &Tracer,
    parent: usize,
    run: u64,
    ops: &mut Ops,
) -> Option<Counts> {
    ops.attempted += 1;
    let target = net.target();
    let s = tracer.begin(Some(parent), run);
    let prepared = ops.step(
        "prepare",
        PreparedCampaign::new(&target, inputs, judge, config),
    )?;
    tracer.end(s, "inject.prepare");
    let pool_span = tracer.reserve("runtime.run", Some(parent), run);
    let prepared = &prepared;
    let tallies: Vec<Result<ChunkTally, _>> = ThreadPool::new(config.workers).run_with(
        |worker| (worker, prepared.buffers()),
        prepared.chunks().iter().map(|&unit| {
            move |scratch: &mut (usize, Values)| {
                let s = tracer.begin(Some(pool_span), run);
                let tally = prepared.run_chunk(&mut scratch.1, unit);
                tracer.end_on(s, "inject.chunk", Some(scratch.0));
                tally
            }
        }),
    );
    tracer.close(pool_span);
    let mut result = prepared.empty_result();
    for tally in ops.step("chunk", tallies.into_iter().collect::<Result<Vec<_>, _>>())? {
        result.absorb(&tally);
    }
    Some(Counts::of(&result))
}

// ---------------------------------------------------------------------------
// Served and sharded workloads
// ---------------------------------------------------------------------------

/// A server on an ephemeral loopback port, running on its own thread.
struct Served {
    client: Client,
    addr: String,
    thread: std::thread::JoinHandle<Result<(), ranger_serve::ServeError>>,
}

fn start_server(dir: &Path) -> Result<Served, BoxError> {
    let server = CampaignServer::bind("127.0.0.1:0", dir)?;
    let addr = server.local_addr()?;
    let thread = std::thread::spawn(move || server.run());
    Ok(Served {
        client: Client::new(addr.to_string()),
        addr: addr.to_string(),
        thread,
    })
}

fn stop_server(served: Served, ops: &mut Ops) {
    ops.op("shutdown", served.client.shutdown());
    match served.thread.join() {
        Ok(r) => {
            ops.step("server run", r);
        }
        Err(_) => ops.fail("server thread panicked".to_string()),
    }
}

/// A fresh checkpoint directory for one iteration.
fn fresh_dir(fix: &Fixture, run: u64) -> PathBuf {
    let dir = fix
        .data_dir
        .join("checkpoints")
        .join(format!("{}-{run}", fix.workload.name()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What a streaming client saw: receive times (s since `start`) of the first event and
/// of every `ChunkDone`, and the final result.
#[derive(Default)]
struct Stream {
    golden_at: Option<f64>,
    chunks: Vec<(f64, bool)>,
    done: Option<(f64, Counts)>,
    events: usize,
}

fn stream(client: &Client, id: &str, start: Instant, ops: &mut Ops) -> Option<Stream> {
    let mut seen = Stream::default();
    let state = ops.op(
        "stream",
        client.stream(id, |event| {
            let t = start.elapsed().as_secs_f64();
            seen.events += 1;
            match event {
                CampaignEvent::GoldenDone { .. } => seen.golden_at = Some(t),
                CampaignEvent::ChunkDone { resumed, .. } => seen.chunks.push((t, *resumed)),
                CampaignEvent::CampaignDone { result } => seen.done = Some((t, Counts::of(result))),
            }
        }),
    )?;
    if state != "done" {
        ops.fail(format!("campaign ended in state {state}"));
        return None;
    }
    if seen.done.is_none() {
        ops.fail("stream ended without CampaignDone".to_string());
        return None;
    }
    Some(seen)
}

fn gaps_ms(chunks: &[(f64, bool)]) -> Vec<f64> {
    chunks.windows(2).map(|w| (w[1].0 - w[0].0) * 1e3).collect()
}

/// Traced span helper for client calls: `f` runs under a span named `name` when
/// tracing.
fn step<T>(
    tracer: Option<&Tracer>,
    root: Option<usize>,
    run: u64,
    name: &str,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => {
            let s = t.begin(root, run);
            let v = f();
            t.end(s, name);
            v
        }
        None => f(),
    }
}

fn served_spec(fix: &Fixture) -> CampaignSpec {
    let saved = fix.saved.as_ref().expect("served fixture saves its model");
    spec_for(saved, fix.size, fix.arms.config)
}

/// Submit, stream to `CampaignDone`, restart the server on the same directory,
/// resubmit and stream the fully resumed campaign.
fn served(fix: &Fixture, run: u64, ops: &mut Ops, tracer: Option<&Tracer>) -> Option<Sample> {
    let spec = served_spec(fix);
    let dir = fresh_dir(fix, run);
    let root = tracer.map(|t| t.reserve("iteration", None, run));
    let start = Instant::now();
    let server = ops.step(
        "bind",
        step(tracer, root, run, "serve.bind", || start_server(&dir)),
    )?;
    let submitted = ops.op(
        "submit",
        step(tracer, root, run, "serve.submit", || {
            server.client.submit(&spec)
        }),
    );
    let first = submitted.as_ref().and_then(|submitted| {
        step(tracer, root, run, "serve.stream", || {
            stream(&server.client, &submitted.id, start, ops)
        })
    });
    step(tracer, root, run, "serve.shutdown", || {
        stop_server(server, ops)
    });
    let (submitted, first) = (submitted?, first?);
    let (done_at, counts) = first.done.clone().expect("checked by stream");
    ops.check("served campaign", &counts, &fix.reference[1]);
    if first.chunks.len() != submitted.total_chunks || first.chunks.iter().any(|c| c.1) {
        ops.fail(format!(
            "fresh campaign streamed {} ChunkDone events for {} chunks",
            first.chunks.len(),
            submitted.total_chunks
        ));
    }

    // Restart on the same directory and resume every chunk.
    let server = ops.step(
        "rebind",
        step(tracer, root, run, "serve.rebind", || start_server(&dir)),
    )?;
    let t = Instant::now();
    let resumed = ops.op(
        "resubmit",
        step(tracer, root, run, "serve.resubmit", || {
            server.client.submit(&spec)
        }),
    );
    let replay = resumed.as_ref().and_then(|resumed| {
        step(tracer, root, run, "serve.resume_stream", || {
            stream(&server.client, &resumed.id, start, ops)
        })
    });
    let resume_s = t.elapsed().as_secs_f64();
    step(tracer, root, run, "serve.shutdown", || {
        stop_server(server, ops)
    });
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(r) = root {
        tracer.expect("root implies tracer").close(r);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let (resumed, replay) = (resumed?, replay?);
    if resumed.resumed_chunks != resumed.total_chunks {
        ops.fail(format!(
            "resubmit resumed {} of {} chunks",
            resumed.resumed_chunks, resumed.total_chunks
        ));
    }
    ops.check(
        "resumed campaign",
        &replay.done.expect("checked by stream").1,
        &fix.reference[1],
    );
    let golden_at = first.golden_at.unwrap_or(0.0);
    Some(Sample {
        wall_s,
        setups_s: vec![golden_at],
        campaign_s: done_at - golden_at,
        trials: fix.arm_trials(),
        event_gaps_ms: gaps_ms(&first.chunks),
        resume_s: Some(resume_s),
        events_frac: Some(first.events as f64 / (submitted.total_chunks + 2) as f64),
        lease: None,
    })
}

/// Submit for coordination, let two in-process work hosts claim, execute and push
/// until done, and stream the campaign at the client.
fn sharded(fix: &Fixture, run: u64, ops: &mut Ops, tracer: Option<&Tracer>) -> Option<Sample> {
    let spec = served_spec(fix);
    let dir = fresh_dir(fix, run);
    let root = tracer.map(|t| t.reserve("iteration", None, run));
    let start = Instant::now();
    let server = ops.step(
        "bind",
        step(tracer, root, run, "serve.bind", || start_server(&dir)),
    )?;
    let addr = server.addr.clone();
    let submitted = ops.op(
        "submit_remote",
        step(tracer, root, run, "serve.submit", || {
            server.client.submit_remote(&spec)
        }),
    );
    let events: Mutex<Vec<(usize, f64, WorkEvent)>> = Mutex::new(Vec::new());
    let mut reports: Vec<Result<WorkReport, String>> = Vec::new();
    let mut first = None;
    if let Some(submitted) = &submitted {
        std::thread::scope(|scope| {
            let hosts: Vec<_> = (0..2)
                .map(|host| {
                    let (addr, id, events) = (&addr, &submitted.id, &events);
                    scope.spawn(move || {
                        let options = WorkOptions {
                            worker: format!("host-{host}"),
                            ttl_ms: 30_000,
                            claim_chunks: 4,
                            poll_ms: 50,
                        };
                        let work = |tracer: Option<&Tracer>| {
                            step(tracer, root, run, "serve.work", || {
                                ranger_serve::work(addr, id, &options, |event| {
                                    let t = start.elapsed().as_secs_f64();
                                    events.lock().expect("event log poisoned").push((
                                        host,
                                        t,
                                        event.clone(),
                                    ));
                                })
                            })
                        };
                        work(tracer).map_err(|e| e.to_string())
                    })
                })
                .collect();
            first = step(tracer, root, run, "serve.stream", || {
                stream(&server.client, &submitted.id, start, ops)
            });
            // The submitter's command ends at CampaignDone; hosts retire after it.
            if let Some(r) = root {
                tracer.expect("root implies tracer").close(r);
            }
            for host in hosts {
                reports.push(host.join().unwrap_or_else(|_| Err("host panicked".into())));
            }
        });
    }
    step(tracer, root, run, "serve.shutdown", || {
        stop_server(server, ops)
    });
    let _ = std::fs::remove_dir_all(&dir);
    for report in reports {
        if let Some(report) = ops.op("work host", report) {
            if report.final_state != "done" {
                ops.fail(format!("work host ended in state {}", report.final_state));
            }
        }
    }
    let (submitted, first) = (submitted?, first?);
    let (done_at, counts) = first.done.clone().expect("checked by stream");
    ops.check("sharded campaign", &counts, &fix.reference[1]);
    if first.chunks.len() != submitted.total_chunks {
        ops.fail(format!(
            "sharded campaign streamed {} ChunkDone events for {} chunks",
            first.chunks.len(),
            submitted.total_chunks
        ));
    }
    let events = events.into_inner().expect("event log poisoned");
    let lease = lease_sample(&events);
    let first_claim = events
        .iter()
        .filter(|e| matches!(e.2, WorkEvent::Claimed { .. }))
        .map(|e| e.1)
        .fold(f64::INFINITY, f64::min);
    let setup_s = if first_claim.is_finite() {
        first_claim
    } else {
        0.0
    };
    Some(Sample {
        wall_s: done_at,
        setups_s: vec![setup_s],
        campaign_s: done_at - setup_s,
        trials: fix.arm_trials(),
        event_gaps_ms: gaps_ms(&first.chunks),
        resume_s: None,
        events_frac: Some(first.events as f64 / (submitted.total_chunks + 2) as f64),
        lease: Some(lease),
    })
}

fn lease_sample(events: &[(usize, f64, WorkEvent)]) -> LeaseSample {
    let mut s = LeaseSample {
        bursts: vec![Vec::new(); 2],
        ..LeaseSample::default()
    };
    for (host, t, event) in events {
        match event {
            WorkEvent::Claimed { .. } => {
                s.claims += 1;
                s.bursts[*host].push((*t, 0));
            }
            WorkEvent::Pushed { .. } => {
                // A claimed range reports its pushes together, after the range ran.
                s.pushes += 1;
                if let Some(burst) = s.bursts[*host].last_mut() {
                    *burst = (*t, burst.1 + 1);
                }
            }
            WorkEvent::LeaseLost { .. } => s.lost += 1,
            WorkEvent::Waiting { retry_ms } => s.wait_ms += *retry_ms as f64,
        }
    }
    s
}
