//! A failing campaign reports the same error whichever way it is executed.
//!
//! The in-process API, the checkpointed driver and the sharded fleet all run chunks
//! through one executor, whose failure policy lets the chunks scheduled beside a
//! failing one still run. So the reported error — the earliest failing chunk, plus the
//! exact count of the others — is a function of the campaign alone, never of the
//! worker count, the host count or the scheduling.

use ranger_graph::{Graph, Op};
use ranger_inject::{
    run_campaign, CampaignConfig, CampaignError, ClassifierJudge, InjectionTarget,
    PreparedCampaign, SdcJudge,
};
use ranger_runtime::ThreadPool;
use ranger_serve::{
    campaign_fingerprint, drive, run_sharded, CheckpointStore, NullSink, ServeError, ShardOptions,
};
use ranger_tensor::Tensor;
use std::sync::atomic::AtomicBool;

/// A graph holding a frozen constant that does not scale with the batch: every
/// batched chunk fails, with an error naming the missing batch dimension.
fn non_batch_scaling_graph() -> (Graph, ranger_graph::NodeId) {
    let mut g = Graph::new();
    let x = g.add_input("x");
    let c = g.add_const("c", Tensor::ones(vec![50]), false);
    let _frozen = g.add_node("frozen", Op::Identity, vec![c]);
    let y = g.add_node("double", Op::ScalarMul { factor: 2.0 }, vec![x]);
    (g, y)
}

fn config(trials: usize, workers: usize) -> CampaignConfig {
    CampaignConfig {
        trials,
        batch: 4,
        workers,
        seed: 4,
        ..CampaignConfig::default()
    }
}

fn store_for(
    target: &InjectionTarget<'_>,
    inputs: &[Tensor],
    judge: &ClassifierJudge,
    config: &CampaignConfig,
    name: &str,
) -> CheckpointStore {
    let fingerprint =
        campaign_fingerprint(target, inputs, config, &judge.categories(), config.batch).unwrap();
    let path = std::env::temp_dir().join(format!(
        "ranger-serve-failure-{}-{name}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    CheckpointStore::open(&path, &fingerprint).unwrap()
}

fn campaign_error(error: ServeError) -> CampaignError {
    match error {
        ServeError::Campaign(error) => error,
        other => panic!("expected a campaign error, got {other:?}"),
    }
}

fn drive_error(
    target: &InjectionTarget<'_>,
    inputs: &[Tensor],
    judge: &ClassifierJudge,
    config: &CampaignConfig,
    name: &str,
) -> CampaignError {
    let prepared = PreparedCampaign::new(target, inputs, judge, config).unwrap();
    let mut store = store_for(target, inputs, judge, config, name);
    let pool = ThreadPool::new(config.workers);
    let error = drive(
        &prepared,
        &mut store,
        &pool,
        &AtomicBool::new(false),
        &mut NullSink,
    )
    .unwrap_err();
    let _ = std::fs::remove_file(store.path());
    campaign_error(error)
}

#[test]
fn the_reported_failure_is_independent_of_workers_and_hosts() {
    let (graph, output) = non_batch_scaling_graph();
    let target = InjectionTarget {
        graph: &graph,
        input_name: "x",
        output,
        excluded: &[],
    };
    let inputs = vec![Tensor::ones(vec![1, 3])];
    let judge = ClassifierJudge::top1();

    // 20 trials / batch 4 = 5 chunks, all failing.
    let serial = run_campaign(&target, &inputs, &judge, &config(20, 1)).unwrap_err();
    assert!(
        matches!(serial, CampaignError::Failures { suppressed: 4, .. }),
        "a serial campaign must not stop at its first failure: {serial}"
    );
    let parallel = run_campaign(&target, &inputs, &judge, &config(20, 2)).unwrap_err();
    assert_eq!(parallel.to_string(), serial.to_string());
    let driven = drive_error(&target, &inputs, &judge, &config(20, 2), "five");
    assert_eq!(driven.to_string(), serial.to_string());

    // 4 trials / batch 4 = 1 chunk: a lone failure stays unwrapped everywhere.
    let lone = run_campaign(&target, &inputs, &judge, &config(4, 1)).unwrap_err();
    assert!(
        !matches!(lone, CampaignError::Failures { .. }),
        "a lone failure must not be wrapped: {lone}"
    );
    let driven = drive_error(&target, &inputs, &judge, &config(4, 2), "lone");
    assert_eq!(driven.to_string(), lone.to_string());

    let config = config(4, 1);
    let prepared = PreparedCampaign::new(&target, &inputs, &judge, &config).unwrap();
    let store = store_for(&target, &inputs, &judge, &config, "sharded");
    let path = store.path().to_path_buf();
    let sharded =
        run_sharded(&prepared, store, &ShardOptions::hosts(2), &mut NullSink).unwrap_err();
    let _ = std::fs::remove_file(path);
    assert_eq!(campaign_error(sharded).to_string(), lone.to_string());
}
