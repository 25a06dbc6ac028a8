//! Workload definitions and their untimed fixtures: models, inputs, saved models and
//! the serial reference counts every measured run is checked against.

use rand::{rngs::StdRng, Rng, SeedableRng};
use ranger::protect::RangerProtector;
use ranger::{apply_ranger, profile_bounds, BoundsConfig, RangerConfig};
use ranger_engine::{
    correct_classifier_inputs_for, protect_model_for, JudgeSpec, DEFAULT_PROFILE_FRACTION,
};
use ranger_graph::{Graph, GraphBuilder, NodeId};
use ranger_inject::{
    run_campaign, BackendKind, CampaignConfig, CampaignResult, ClassifierJudge, FaultModel,
    InjectionTarget, SdcJudge, TILE_AUTO,
};
use ranger_models::{Model, ModelConfig, ModelKind, ModelZoo, TrainConfig};
use ranger_serve::{CampaignSpec, ModelSpec, SavedModel};
use ranger_tensor::Tensor;
use std::path::{Path, PathBuf};

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LenetPipeline,
    MlpBatched,
    LenetServed,
    LenetSharded,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LenetPipeline,
        Workload::MlpBatched,
        Workload::LenetServed,
        Workload::LenetSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LenetPipeline => "lenet-pipeline",
            Workload::MlpBatched => "mlp-batched",
            Workload::LenetServed => "lenet-served",
            Workload::LenetSharded => "lenet-sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_remote(self) -> bool {
        matches!(self, Workload::LenetServed | Workload::LenetSharded)
    }

    /// The fixed campaign shape (everything but trial and input counts).
    pub fn shape(self) -> Shape {
        match self {
            Workload::LenetPipeline => Shape {
                batch: 1,
                tile: 0,
                workers: 2,
                backend: BackendKind::Simd,
            },
            Workload::MlpBatched => Shape {
                batch: 64,
                tile: TILE_AUTO,
                workers: 2,
                backend: BackendKind::Simd,
            },
            Workload::LenetServed => Shape {
                batch: 1,
                tile: 0,
                workers: 2,
                backend: BackendKind::F32,
            },
            // Two work hosts with one pool worker each.
            Workload::LenetSharded => Shape {
                batch: 1,
                tile: 0,
                workers: 1,
                backend: BackendKind::F32,
            },
        }
    }

    /// Validation inputs and trials per input, sized for run length (`tiny` for the
    /// smoke test).
    pub fn size(self, tiny: bool) -> Size {
        match (self, tiny) {
            (Workload::LenetPipeline, false) => Size {
                inputs: 4,
                trials: 1500,
            },
            (Workload::MlpBatched, false) => Size {
                inputs: 8,
                trials: 16384,
            },
            (Workload::LenetServed | Workload::LenetSharded, false) => Size {
                inputs: 4,
                trials: 2048,
            },
            (Workload::MlpBatched, true) => Size {
                inputs: 2,
                trials: 256,
            },
            (Workload::LenetPipeline, true) => Size {
                inputs: 2,
                trials: 64,
            },
            // Enough chunks for the event-gap and push-gap percentiles.
            (Workload::LenetServed | Workload::LenetSharded, true) => Size {
                inputs: 8,
                trials: 32,
            },
        }
    }
}

/// Batch, tile, workers and backend of a workload's campaigns.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub batch: usize,
    pub tile: usize,
    pub workers: usize,
    pub backend: BackendKind,
}

/// Trial and input counts.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub inputs: usize,
    pub trials: usize,
}

/// An injectable network, owned.
#[derive(Debug, Clone)]
pub struct Net {
    pub graph: Graph,
    pub input_name: String,
    pub output: NodeId,
    pub excluded: Vec<NodeId>,
}

impl Net {
    pub fn of(model: &Model) -> Net {
        Net {
            graph: model.graph.clone(),
            input_name: model.input_name.clone(),
            output: model.output,
            excluded: model.excluded_from_injection.clone(),
        }
    }

    pub fn target(&self) -> InjectionTarget<'_> {
        InjectionTarget {
            graph: &self.graph,
            input_name: &self.input_name,
            output: self.output,
            excluded: &self.excluded,
        }
    }
}

/// Both arms of a workload's campaign: the same inputs, judge and configuration
/// against the unprotected and the protected network.
pub struct Arms {
    pub baseline: Net,
    pub protected: Net,
    pub inputs: Vec<Tensor>,
    pub judge: Box<dyn SdcJudge>,
    pub config: CampaignConfig,
    /// Range-restriction operators inserted into the protected arm.
    pub clamps: usize,
}

/// The counts one campaign arm must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    pub sdc_counts: Vec<u64>,
    pub trials: u64,
    pub unactivated: u64,
}

impl Counts {
    pub fn of(result: &CampaignResult) -> Counts {
        Counts {
            sdc_counts: result.sdc_counts.clone(),
            trials: result.trials,
            unactivated: result.unactivated,
        }
    }

    fn encode(&self) -> String {
        let sdc: Vec<String> = self.sdc_counts.iter().map(u64::to_string).collect();
        format!("{} {} {}", sdc.join(","), self.trials, self.unactivated)
    }

    fn decode(line: &str) -> Option<Counts> {
        let mut parts = line.split_whitespace();
        let sdc_counts = parts
            .next()?
            .split(',')
            .map(|s| s.parse().ok())
            .collect::<Option<Vec<u64>>>()?;
        Some(Counts {
            sdc_counts,
            trials: parts.next()?.parse().ok()?,
            unactivated: parts.next()?.parse().ok()?,
        })
    }
}

/// Everything a workload needs before its first timed run.
pub struct Fixture {
    pub workload: Workload,
    pub seed: u64,
    pub shape: Shape,
    pub size: Size,
    pub data_dir: PathBuf,
    pub zoo_dir: PathBuf,
    pub arms: Arms,
    /// The protected model file the served and sharded workloads submit.
    pub saved: Option<PathBuf>,
    /// The serial reference counts of the baseline and protected arms.
    pub reference: [Counts; 2],
}

pub fn campaign_config(shape: Shape, trials: usize, seed: u64) -> CampaignConfig {
    CampaignConfig {
        trials,
        batch: shape.batch,
        workers: shape.workers,
        backend: shape.backend,
        fault: FaultModel::single_bit_fixed32(),
        seed,
        tile: shape.tile,
    }
}

/// The LeNet of `seed` from the benchmark's own zoo, and its protected copy (20% bound
/// profiling, default Ranger protection), exactly as `Pipeline` derives them.
fn lenet_models(zoo_dir: &Path, seed: u64) -> Result<(Model, Model, usize), BoxError> {
    let zoo = ModelZoo::new(zoo_dir);
    let model = zoo
        .load_or_train(&ModelConfig::new(ModelKind::LeNet), seed)?
        .model;
    let recipe = TrainConfig::for_kind(ModelKind::LeNet);
    let protected = protect_model_for(
        &model,
        seed,
        DEFAULT_PROFILE_FRACTION,
        &BoundsConfig::default(),
        &RangerProtector::default(),
        &recipe,
    )?;
    Ok((model, protected.model, protected.stats.clamps_inserted))
}

/// The deep narrow MLP: 64 dense+relu blocks of width 8 ending in a softmax, weights
/// drawn from `seed`.
pub fn mlp_net(seed: u64) -> Net {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let x = b.input("x");
    let mut h = b.dense(x, 8, 8, &mut rng);
    for _ in 0..63 {
        h = b.relu(h);
        h = b.dense(h, 8, 8, &mut rng);
    }
    let output = b.softmax(h);
    Net {
        graph: b.into_graph(),
        input_name: "x".to_string(),
        output,
        excluded: Vec::new(),
    }
}

/// `n` MLP input rows drawn from `seed` (uniform in [-1, 1)).
pub fn mlp_inputs(seed: u64, n: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    (0..n)
        .map(|_| {
            let row: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            Tensor::from_vec(vec![1, 8], row).expect("an [1, 8] row holds 8 values")
        })
        .collect()
}

/// Profiles the MLP on 64 drawn rows and applies Ranger; returns the protected net and
/// the number of inserted clamps.
pub fn protect_mlp(net: &Net, seed: u64) -> Result<(Net, usize), BoxError> {
    let samples = mlp_inputs(seed.wrapping_add(1), 64);
    let bounds = profile_bounds(
        &net.graph,
        &net.input_name,
        &samples,
        &BoundsConfig::default(),
    )?;
    let (graph, stats) = apply_ranger(&net.graph, &bounds, &RangerConfig::default())?;
    Ok((
        Net {
            graph,
            ..net.clone()
        },
        stats.clamps_inserted,
    ))
}

/// The campaign spec the served and sharded workloads submit for `model_path`.
pub fn spec_for(model_path: &Path, size: Size, config: CampaignConfig) -> CampaignSpec {
    CampaignSpec {
        model: ModelSpec::Path {
            path: model_path.to_string_lossy().into_owned(),
        },
        inputs: size.inputs,
        config,
    }
}

impl Fixture {
    /// Trains or loads LeNet into the benchmark's zoo, builds both arms, saves the
    /// served models and computes (or reads back) the serial reference counts.
    pub fn prepare(
        workload: Workload,
        seed: u64,
        tiny: bool,
        data_dir: &Path,
        source: &str,
    ) -> Result<Fixture, BoxError> {
        let shape = workload.shape();
        let size = workload.size(tiny);
        let zoo_dir = data_dir.join("zoo");
        let config = campaign_config(shape, size.trials, seed);
        let mut saved = None;
        let arms = match workload {
            Workload::MlpBatched => {
                let baseline = mlp_net(seed);
                let (protected, clamps) = protect_mlp(&baseline, seed)?;
                Arms {
                    baseline,
                    protected,
                    inputs: mlp_inputs(seed, size.inputs),
                    judge: Box::new(ClassifierJudge::top1()),
                    config,
                    clamps,
                }
            }
            Workload::LenetPipeline => {
                let (model, protected, clamps) = lenet_models(&zoo_dir, seed)?;
                let recipe = TrainConfig::for_kind(ModelKind::LeNet);
                Arms {
                    inputs: correct_classifier_inputs_for(&model, seed, size.inputs, &recipe)?,
                    judge: JudgeSpec::Auto.build(&model),
                    baseline: Net::of(&model),
                    protected: Net::of(&protected),
                    config,
                    clamps,
                }
            }
            Workload::LenetServed | Workload::LenetSharded => {
                let (model, protected, clamps) = lenet_models(&zoo_dir, seed)?;
                let path = data_dir
                    .join("models")
                    .join(format!("lenet-{seed}-protected.json"));
                SavedModel {
                    model: protected,
                    seed,
                    protected: true,
                    percentile: Some(100.0),
                }
                .save(&path)?;
                // The served campaign is whatever the server materializes from the spec.
                let materialized = spec_for(&path, size, config).materialize()?;
                saved = Some(path);
                Arms {
                    baseline: Net::of(&model),
                    protected: Net::of(&materialized.model),
                    inputs: materialized.inputs,
                    judge: materialized.judge,
                    config,
                    clamps,
                }
            }
        };
        let reference = reference_counts(workload, seed, tiny, data_dir, source, &arms)?;
        Ok(Fixture {
            workload,
            seed,
            shape,
            size,
            data_dir: data_dir.to_path_buf(),
            zoo_dir,
            arms,
            saved,
            reference,
        })
    }

    /// Total faulty trials of one arm.
    pub fn arm_trials(&self) -> u64 {
        (self.size.inputs * self.size.trials) as u64
    }
}

/// The serial reference — `run_campaign` at batch 1 and workers 1 on the workload's
/// backend — for both arms, cached per source, workload, size and seed.
fn reference_counts(
    workload: Workload,
    seed: u64,
    tiny: bool,
    data_dir: &Path,
    source: &str,
    arms: &Arms,
) -> Result<[Counts; 2], BoxError> {
    let size = if tiny { "tiny" } else { "full" };
    let path = data_dir
        .join("reference")
        .join(source)
        .join(format!("{}-{size}-seed{seed}.txt", workload.name()));
    if let Ok(text) = std::fs::read_to_string(&path) {
        let counts: Vec<Counts> = text.lines().filter_map(Counts::decode).collect();
        if let [baseline, protected] = counts.as_slice() {
            return Ok([baseline.clone(), protected.clone()]);
        }
    }
    let serial = CampaignConfig {
        batch: 1,
        workers: 1,
        tile: 0,
        ..arms.config
    };
    let mut counts = Vec::new();
    for net in [&arms.baseline, &arms.protected] {
        let result = run_campaign(&net.target(), &arms.inputs, arms.judge.as_ref(), &serial)?;
        counts.push(Counts::of(&result));
    }
    std::fs::create_dir_all(path.parent().expect("reference path has a parent"))?;
    let text: Vec<String> = counts.iter().map(Counts::encode).collect();
    std::fs::write(&path, text.join("\n") + "\n")?;
    let protected = counts.pop().expect("two arms");
    let baseline = counts.pop().expect("two arms");
    Ok([baseline, protected])
}
