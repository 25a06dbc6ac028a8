//! The ordered merger: the one place completed chunk records become durable and
//! visible.
//!
//! Both campaign owners are built on [`Merger`]: the local [`drive`](crate::drive)
//! feeds it the tallies of its own executor, and the sharding
//! [`Coordinator`](crate::Coordinator) feeds it the records worker hosts push. The
//! merger owns the [`CheckpointStore`], merge-verifies every resumed record (and every
//! new one it is asked to), appends each accepted record — fsync'd — *before* emitting
//! it, and reorders emission to canonical chunk-index order, so the sink sees the same
//! monotone `GoldenDone` → `ChunkDone`… → `CampaignDone` stream whoever executed the
//! chunks and in whatever order they completed.

use crate::checkpoint::{CheckpointStore, ChunkRecord};
use crate::sink::{CampaignEvent, CampaignSink, SinkFlow};
use crate::ServeError;
use ranger_inject::{CampaignResult, ChunkTally, TrialChunk};
use std::borrow::BorrowMut;
use std::collections::BTreeMap;

/// Durable, ordered merging of one campaign's chunk records. `S` is the store, owned
/// (`CheckpointStore`) or borrowed (`&mut CheckpointStore`).
#[derive(Debug)]
pub(crate) struct Merger<S> {
    store: S,
    chunks: Vec<TrialChunk>,
    categories: Vec<String>,
    trials_total: u64,
    /// Durable tallies parked until their index is next; `bool` is the resumed flag.
    ready: BTreeMap<usize, (ChunkTally, bool)>,
    next_emit: usize,
    cumulative: CampaignResult,
    resumed_chunks: usize,
    stopped: bool,
}

impl<S: BorrowMut<CheckpointStore>> Merger<S> {
    /// Opens a merger over `store` for the campaign whose canonical partition is
    /// `chunks`, judging `categories`, totalling `trials_total` trials. Every record
    /// already in the store is merge-verified here and replays as a resumed chunk.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Corrupt`] if a resumed record fails merge-verify.
    pub(crate) fn new(
        store: S,
        chunks: Vec<TrialChunk>,
        categories: Vec<String>,
        trials_total: u64,
    ) -> Result<Self, ServeError> {
        let completed = store.borrow().completed();
        for record in completed.values() {
            record.verify_against(&chunks, categories.len())?;
        }
        let ready: BTreeMap<usize, (ChunkTally, bool)> = completed
            .values()
            .map(|record| (record.chunk.index, (record.tally.clone(), true)))
            .collect();
        Ok(Merger {
            resumed_chunks: ready.len(),
            ready,
            cumulative: CampaignResult {
                categories: categories.clone(),
                sdc_counts: vec![0; categories.len()],
                trials: 0,
                unactivated: 0,
            },
            store,
            chunks,
            categories,
            trials_total,
            next_emit: 0,
            stopped: false,
        })
    }

    pub(crate) fn store(&self) -> &CheckpointStore {
        self.store.borrow()
    }

    pub(crate) fn total_chunks(&self) -> usize {
        self.chunks.len()
    }

    pub(crate) fn resumed_chunks(&self) -> usize {
        self.resumed_chunks
    }

    /// Whether every chunk has been emitted.
    pub(crate) fn is_done(&self) -> bool {
        self.next_emit == self.chunks.len()
    }

    /// Whether a sink (or [`Merger::stop`]) stopped the campaign; nothing is emitted
    /// after a stop, though records are still made durable.
    pub(crate) fn is_stopped(&self) -> bool {
        self.stopped
    }

    pub(crate) fn stop(&mut self) {
        self.stopped = true;
    }

    /// The counts of every chunk emitted so far.
    pub(crate) fn cumulative(&self) -> &CampaignResult {
        &self.cumulative
    }

    /// Emits `GoldenDone`, then every resumed chunk in canonical order (and
    /// `CampaignDone` if the store already covers the whole campaign).
    pub(crate) fn begin(&mut self, sink: &mut dyn CampaignSink) {
        let golden = CampaignEvent::GoldenDone {
            total_chunks: self.chunks.len(),
            resumed_chunks: self.resumed_chunks,
            trials_total: self.trials_total,
            categories: self.categories.clone(),
        };
        if sink.event(&golden) == SinkFlow::Stop {
            self.stopped = true;
            return;
        }
        self.emit_ready(sink);
    }

    /// Checks a new record against what is already durable: `Ok(true)` if the identical
    /// record is (a retried push), `Ok(false)` if its chunk is not on record yet.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Corrupt`] if the chunk is durable with a different tally.
    pub(crate) fn is_duplicate(&self, record: &ChunkRecord) -> Result<bool, ServeError> {
        match self.store().completed().get(&record.chunk.index) {
            None => Ok(false),
            Some(existing) if *existing == *record => Ok(true),
            Some(_) => Err(ServeError::Corrupt(format!(
                "chunk {} is already durable with a different tally — two workers \
                 disagree about the same deterministic chunk",
                record.chunk.index
            ))),
        }
    }

    /// Merge-verifies a new record's geometry and tally shape against the partition.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Corrupt`] if the record does not fit the partition.
    pub(crate) fn verify(&self, record: &ChunkRecord) -> Result<(), ServeError> {
        record.verify_against(&self.chunks, self.categories.len())
    }

    /// Makes `record` durable (fsync'd append), then emits every chunk now in order.
    ///
    /// # Errors
    ///
    /// I/O and JSON errors of the append; nothing is emitted then.
    pub(crate) fn commit(
        &mut self,
        record: ChunkRecord,
        sink: &mut dyn CampaignSink,
    ) -> Result<(), ServeError> {
        self.store.borrow_mut().append(&record)?;
        self.ready.insert(record.chunk.index, (record.tally, false));
        self.emit_ready(sink);
        Ok(())
    }

    /// Drains every in-order tally into the cumulative result and the sink, closing
    /// with `CampaignDone` when the last chunk emits.
    fn emit_ready(&mut self, sink: &mut dyn CampaignSink) {
        while !self.stopped {
            let Some((tally, resumed)) = self.ready.remove(&self.next_emit) else {
                break;
            };
            self.cumulative.absorb(&tally);
            let event = CampaignEvent::ChunkDone {
                chunk: self.chunks[self.next_emit],
                tally,
                resumed,
                cumulative: self.cumulative.clone(),
            };
            self.next_emit += 1;
            if sink.event(&event) == SinkFlow::Stop {
                self.stopped = true;
            }
        }
        if !self.stopped && self.is_done() {
            debug_assert_eq!(self.cumulative.trials, self.trials_total);
            sink.event(&CampaignEvent::CampaignDone {
                result: self.cumulative.clone(),
            });
        }
    }
}
