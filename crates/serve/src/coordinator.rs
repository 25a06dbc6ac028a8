//! The sharding coordinator: lease lifecycle plus merge-verify over one campaign.
//!
//! A [`Coordinator`] is the campaign's ordered merger (the same one the local driver
//! uses: fsync'd [`CheckpointStore`], merge-verify, reorder buffer, event emission)
//! plus a [`LeaseTable`] handing exclusive chunk ranges to worker hosts and the
//! fingerprint gate in front of both. It runs **no forward passes** itself — workers
//! materialize the campaign from its spec, execute chunks, and push records back; the
//! coordinator's job is to refuse everything that shouldn't be merged and durably
//! absorb everything that should.
//!
//! Every record a worker pushes crosses four gates, in order:
//!
//! 1. **Fingerprint** — the push must name the coordinator's exact campaign.
//! 2. **Duplicate** — a record identical to one already durable is answered
//!    idempotently (workers retry pushes whose responses were lost); a different
//!    record for a durable chunk is corruption.
//! 3. **Lease** — the push must carry a token covering the record's chunk
//!    ([`LeaseTable::touch`]); pushing renews the lease.
//! 4. **Merge-verify** — [`ChunkRecord::verify_against`] re-checks the chunk's
//!    geometry and the tally's shape against the campaign's canonical partition.
//!
//! Only then is the record fsync'd into the store — durability before visibility, the
//! same discipline as the local driver — and emitted in canonical chunk order.

use crate::checkpoint::{CheckpointStore, ChunkRecord};
use crate::lease::{LeaseError, LeaseGrant, LeaseTable, TouchOutcome};
use crate::merger::Merger;
use crate::sink::CampaignSink;
use crate::ServeError;
use ranger_inject::{CampaignResult, TrialChunk};
use std::time::Instant;

/// Coordinates one sharded campaign: leases out chunk ranges, merge-verifies and
/// durably absorbs the records workers push back, and emits the ordered event stream.
#[derive(Debug)]
pub struct Coordinator {
    merger: Merger<CheckpointStore>,
    table: LeaseTable,
}

impl Coordinator {
    /// Builds a coordinator over `store` for the campaign whose canonical partition is
    /// `chunks`, judging `categories`, totalling `trials_total` trials.
    ///
    /// Records already durable in the store are merge-verified immediately (a corrupt
    /// resumed record is refused here, before any lease is granted) and replay as
    /// resumed chunks when [`Coordinator::begin`] runs.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Corrupt`] if a resumed record fails merge-verify.
    pub fn new(
        store: CheckpointStore,
        chunks: Vec<TrialChunk>,
        categories: Vec<String>,
        trials_total: u64,
    ) -> Result<Self, ServeError> {
        let table = LeaseTable::new(chunks.len(), store.completed().keys().copied());
        Ok(Coordinator {
            merger: Merger::new(store, chunks, categories, trials_total)?,
            table,
        })
    }

    /// The campaign fingerprint this coordinator merges records for.
    pub fn fingerprint(&self) -> &str {
        self.merger.store().fingerprint()
    }

    /// Chunks in the canonical partition.
    pub fn total_chunks(&self) -> usize {
        self.merger.total_chunks()
    }

    /// Chunks that were already durable when the coordinator opened.
    pub fn resumed_chunks(&self) -> usize {
        self.merger.resumed_chunks()
    }

    /// Whether every chunk has been absorbed and emitted.
    pub fn is_done(&self) -> bool {
        self.merger.is_done()
    }

    /// Whether a sink stopped the campaign (the server translates this to cancelled).
    pub fn is_stopped(&self) -> bool {
        self.merger.is_stopped()
    }

    /// Marks the campaign stopped: subsequent claims return no work.
    pub fn stop(&mut self) {
        self.merger.stop();
    }

    /// The merged counts so far (the final result once [`Coordinator::is_done`]).
    pub fn cumulative(&self) -> &CampaignResult {
        self.merger.cumulative()
    }

    /// Emits the campaign-opening events: `GoldenDone` with the partition summary,
    /// then every resumed chunk in canonical order (and `CampaignDone` if the store
    /// already covers the whole campaign).
    pub fn begin(&mut self, sink: &mut dyn CampaignSink) {
        self.merger.begin(sink);
    }

    /// Claims the next free contiguous chunk range for `worker` (see
    /// [`LeaseTable::claim`]). Returns `None` when no chunk is currently free — done,
    /// stopped, or everything pending is out on live leases.
    pub fn claim(
        &mut self,
        worker: &str,
        max_chunks: usize,
        ttl_ms: u64,
        now: Instant,
    ) -> Option<LeaseGrant> {
        self.sweep(now);
        if self.is_stopped() {
            return None;
        }
        let grant = self.table.claim(worker, max_chunks, ttl_ms, now);
        if grant.is_some() {
            observe("serve.leases.granted");
        }
        grant
    }

    /// Claims an explicit chunk range (see [`LeaseTable::claim_range`]).
    ///
    /// # Errors
    ///
    /// Propagates the table's refusals; see [`LeaseTable::claim_range`].
    pub fn claim_range(
        &mut self,
        worker: &str,
        start: usize,
        end: usize,
        ttl_ms: u64,
        now: Instant,
    ) -> Result<LeaseGrant, LeaseError> {
        self.sweep(now);
        let grant = self.table.claim_range(worker, start, end, ttl_ms, now);
        observe(if grant.is_ok() {
            "serve.leases.granted"
        } else {
            "serve.leases.denied"
        });
        grant
    }

    /// Renews a live lease (see [`LeaseTable::renew`]).
    ///
    /// # Errors
    ///
    /// Propagates the table's refusals; see [`LeaseTable::renew`].
    pub fn renew(
        &mut self,
        token: u64,
        ttl_ms: u64,
        now: Instant,
    ) -> Result<LeaseGrant, LeaseError> {
        self.sweep(now);
        let grant = self.table.renew(token, ttl_ms, now);
        observe(if grant.is_ok() {
            "serve.leases.renewed"
        } else {
            "serve.leases.denied"
        });
        grant
    }

    /// Releases a live lease (see [`LeaseTable::release`]).
    ///
    /// # Errors
    ///
    /// Propagates the table's refusals; see [`LeaseTable::release`].
    pub fn release(&mut self, token: u64, now: Instant) -> Result<(), LeaseError> {
        self.sweep(now);
        let released = self.table.release(token, now);
        observe(if released.is_ok() {
            "serve.leases.released"
        } else {
            "serve.leases.denied"
        });
        released
    }

    /// Absorbs one record pushed by a worker: duplicate-idempotent, lease-checked,
    /// merge-verified, then durably appended and emitted in canonical order.
    ///
    /// `claimed_fingerprint` is the campaign id the worker addressed; a push aimed at
    /// a different campaign than this coordinator's is refused before anything else.
    /// The lease's deadline is renewed by a successful push.
    ///
    /// # Errors
    ///
    /// [`ServeError::FingerprintMismatch`] for a push addressed to another campaign,
    /// [`ServeError::Lease`] when the token does not (or no longer does) cover the
    /// chunk, [`ServeError::Corrupt`] when merge-verify refuses the record, and
    /// I/O / JSON errors if the durable append itself fails. On any error the store is
    /// untouched.
    pub fn absorb(
        &mut self,
        claimed_fingerprint: &str,
        token: u64,
        record: ChunkRecord,
        now: Instant,
        sink: &mut dyn CampaignSink,
    ) -> Result<(), ServeError> {
        self.sweep(now);
        if claimed_fingerprint != self.fingerprint() {
            observe("serve.merge.rejected");
            return Err(ServeError::FingerprintMismatch {
                expected: self.fingerprint().to_string(),
                found: claimed_fingerprint.to_string(),
            });
        }
        // A worker retrying a push whose response was lost: the identical record is
        // already durable, so the merge is a no-op either way.
        if self
            .merger
            .is_duplicate(&record)
            .inspect_err(|_| observe("serve.merge.rejected"))?
        {
            observe("serve.merge.duplicate");
            return Ok(());
        }
        match self.table.touch(token, record.chunk.index, now) {
            Ok(TouchOutcome::Live) => {}
            Ok(TouchOutcome::LateUnclaimed) => observe("serve.merge.late_accepted"),
            Err(error) => {
                observe("serve.merge.rejected");
                return Err(ServeError::Lease(error));
            }
        }
        self.merger
            .verify(&record)
            .inspect_err(|_| observe("serve.merge.rejected"))?;
        let index = record.chunk.index;
        self.merger.commit(record, sink)?;
        self.table.complete(index);
        observe("serve.merge.accepted");
        Ok(())
    }

    /// Reaps expired leases, counting them under `serve.leases.expired`.
    fn sweep(&mut self, now: Instant) {
        let expired = self.table.sweep(now);
        if expired > 0 && ranger_obs::enabled() {
            ranger_obs::registry()
                .counter("serve.leases.expired")
                .add(expired as u64);
        }
    }
}

/// Counts one coordinator outcome (no-op when metrics are off; never branches on any
/// observed value).
fn observe(name: &str) {
    if ranger_obs::enabled() {
        ranger_obs::registry().counter(name).increment();
    }
}
