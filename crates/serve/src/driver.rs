//! The chunked campaign driver: checkpointed, streaming execution of a
//! [`PreparedCampaign`].
//!
//! [`drive`] is the heart of the service, and it is two shared parts wired together:
//! the campaign executor ([`PreparedCampaign::execute`]) runs every chunk not yet on
//! record on a worker pool, and the ordered merger — the same one the sharding
//! coordinator uses — turns each completed tally into a durable record and an event:
//!
//! * **Pending chunks** run on the pool, one buffer arena per worker; each completed
//!   tally is appended to the checkpoint — fsync'd — *before* it is reported, so every
//!   chunk event a client observes is durable.
//! * **Resumed chunks** are replayed from the store (after verifying their geometry
//!   against the prepared partition) without running a single forward pass.
//! * **Emission** is reordered to canonical chunk-index order whatever the completion
//!   order was, so the cumulative tallies the sink observes are deterministic and
//!   monotone — a resumed stream is indistinguishable from an uninterrupted one.
//!
//! Because fault plans are keyed by `(input, trial)` index, the final result is
//! bit-for-bit the [`run_campaign`](ranger_inject::run_campaign) result for the same
//! configuration, however many times the campaign was killed and resumed in between.

use crate::checkpoint::{CheckpointStore, ChunkRecord};
use crate::merger::Merger;
use crate::sink::CampaignSink;
use crate::ServeError;
use ranger_inject::{CampaignResult, PreparedCampaign, TrialChunk};
use ranger_runtime::ThreadPool;
use std::sync::atomic::{AtomicBool, Ordering};

/// How a driven campaign ended.
#[derive(Debug, Clone, PartialEq)]
pub enum DriveOutcome {
    /// Every chunk is accounted for; the result equals the in-process API's.
    Completed(CampaignResult),
    /// The campaign was stopped — by the sink or the cancel flag — after a prefix of
    /// chunks. The partial result covers every chunk emitted before the stop; all
    /// completed chunks (emitted or not) are durable in the checkpoint.
    Stopped(CampaignResult),
}

/// Drives a prepared campaign to completion (or cancellation), streaming ordered tally
/// events into `sink` and persisting every completed chunk into `store`.
///
/// `cancel` is checked before each pending chunk executes and may be set at any time by
/// another thread (the service's cancel request); the sink returning
/// [`SinkFlow::Stop`](crate::SinkFlow::Stop) sets it too. Stopping is cooperative:
/// in-flight chunks finish and are checkpointed, further chunks are skipped. A failing
/// chunk does not stop the campaign: the other scheduled chunks still run and are
/// checkpointed, so the reported error never depends on scheduling.
///
/// # Errors
///
/// Returns [`ServeError::Corrupt`] if a checkpoint record's geometry does not match the
/// prepared partition (the fingerprint should make this unreachable short of file
/// tampering), the store's error if an append fails, or [`ServeError::Campaign`] if
/// work units fail — reported as [`PreparedCampaign::execute`] reports them.
pub fn drive(
    prepared: &PreparedCampaign<'_>,
    store: &mut CheckpointStore,
    pool: &ThreadPool,
    cancel: &AtomicBool,
    sink: &mut dyn CampaignSink,
) -> Result<DriveOutcome, ServeError> {
    let chunks = prepared.chunks();
    let pending: Vec<TrialChunk> = chunks
        .iter()
        .filter(|chunk| !store.completed().contains_key(&chunk.index))
        .copied()
        .collect();
    let mut merger = Merger::new(
        store,
        chunks.to_vec(),
        prepared.categories().to_vec(),
        (prepared.config().trials * prepared.num_inputs()) as u64,
    )?;
    merger.begin(sink);
    if merger.is_stopped() {
        cancel.store(true, Ordering::SeqCst);
    }

    let mut append_failure: Option<ServeError> = None;
    let executed = prepared.execute(&pending, pool, cancel, |chunk, tally| {
        // Durability before visibility: the merger fsyncs the record, then emits.
        if let Err(e) = merger.commit(ChunkRecord { chunk, tally }, sink) {
            append_failure.get_or_insert(e);
            cancel.store(true, Ordering::SeqCst);
        }
        if merger.is_stopped() {
            cancel.store(true, Ordering::SeqCst);
        }
    });
    if let Some(e) = append_failure {
        return Err(e);
    }
    executed?;
    let result = merger.cumulative().clone();
    Ok(if merger.is_done() && !merger.is_stopped() {
        DriveOutcome::Completed(result)
    } else {
        DriveOutcome::Stopped(result)
    })
}
