//! Worker hosts for sharded campaigns: claim, execute, push, repeat.
//!
//! Two entry points share the claim/execute/push discipline, and both execute a
//! granted range the same way: through the campaign executor
//! ([`PreparedCampaign::execute`]), whose callback pushes each completed record to the
//! coordinator as it arrives.
//!
//! * [`run_sharded`] — the in-process harness: one [`Coordinator`] behind a mutex,
//!   `hosts` threads playing worker hosts, each claiming chunk ranges, running them
//!   inline (a 1-worker pool) and absorbing records directly. This is what the
//!   sharded-parity proptest drives, and what
//!   [`Pipeline::shard_run`](../../ranger_engine/struct.Pipeline.html) routes through
//!   — the full lease-lifecycle and merge-verify machinery with no sockets involved.
//! * [`work`] — the remote worker the CLI's `work` command runs: fetch the campaign
//!   spec from a coordinator over TCP, materialize it locally, verify the fingerprint
//!   matches (a worker must never compute against a different campaign than it
//!   claims chunks of), then loop claiming ranges, executing them on a
//!   `config.workers`-wide pool and pushing every record back. Each push renews the
//!   lease, so a worker stays leased as long as it makes progress; a worker that dies
//!   simply stops pushing and its range is re-leased after expiry.
//!
//! Correctness never depends on scheduling: fault plans are keyed by
//! `(input, trial)` index, so any interleaving of hosts, claims and re-leases merges
//! to bit-for-bit the single-host counts.

use crate::checkpoint::{CheckpointStore, ChunkRecord};
use crate::client::{ClaimOutcome, Client};
use crate::coordinator::Coordinator;
use crate::driver::DriveOutcome;
use crate::sink::{CampaignEvent, CampaignSink, SinkFlow};
use crate::ServeError;
use ranger_inject::{PreparedCampaign, TrialChunk};
use ranger_runtime::ThreadPool;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default lease TTL in milliseconds, read from `RANGER_LEASE_MS` (unset: 30 s).
/// Short values exercise the expiry paths — CI sweeps the serve suite with
/// `RANGER_LEASE_MS=50` so re-leasing and late-push acceptance run on every push.
pub fn default_lease_ms() -> u64 {
    std::env::var("RANGER_LEASE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(30_000)
}

/// Options for the in-process sharded runner.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Simulated worker hosts (threads), each claiming ranges independently.
    pub hosts: usize,
    /// Lease TTL each host claims with, in milliseconds.
    pub ttl_ms: u64,
    /// Most chunks a host takes per claim.
    pub claim_chunks: usize,
    /// Sleep between claim attempts when every pending chunk is leased elsewhere.
    pub poll_ms: u64,
}

impl ShardOptions {
    /// `hosts` worker hosts with the environment's lease TTL and small claims.
    pub fn hosts(hosts: usize) -> Self {
        ShardOptions {
            hosts: hosts.max(1),
            ttl_ms: default_lease_ms(),
            claim_chunks: 2,
            poll_ms: 5,
        }
    }
}

/// Options for a remote (TCP) worker.
#[derive(Debug, Clone)]
pub struct WorkOptions {
    /// This worker's name, echoed in grants and conflict errors.
    pub worker: String,
    /// Lease TTL to claim with, in milliseconds.
    pub ttl_ms: u64,
    /// Most chunks to take per claim.
    pub claim_chunks: usize,
    /// Floor on the wait between claim attempts while the campaign is running but
    /// fully leased out.
    pub poll_ms: u64,
}

impl Default for WorkOptions {
    fn default() -> Self {
        WorkOptions {
            worker: format!("worker-{}", std::process::id()),
            ttl_ms: default_lease_ms(),
            claim_chunks: 4,
            poll_ms: 50,
        }
    }
}

/// What a remote worker did, reported when its campaign reaches a terminal state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkReport {
    /// The campaign id the worker served.
    pub id: String,
    /// Chunks this worker executed and successfully pushed.
    pub chunks_executed: usize,
    /// Trials inside those chunks.
    pub trials_executed: u64,
    /// The campaign's terminal state label (`"done"`, `"cancelled"`, …).
    pub final_state: String,
}

/// Progress notifications a remote worker emits (the CLI prints them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkEvent {
    /// A lease was granted over `start..end`.
    Claimed {
        /// First chunk index of the granted range.
        start: usize,
        /// One past the last chunk index.
        end: usize,
        /// The grant's token.
        token: u64,
    },
    /// One chunk was executed and durably accepted by the coordinator.
    Pushed {
        /// The chunk's index in the canonical partition.
        index: usize,
    },
    /// The lease was lost (expired and re-leased, or otherwise refused); the worker
    /// abandons the rest of the range and claims afresh.
    LeaseLost {
        /// The refused token.
        token: u64,
        /// The coordinator's reason.
        reason: String,
    },
    /// Nothing to claim while the campaign runs; the worker waits.
    Waiting {
        /// Milliseconds the worker will sleep.
        retry_ms: u64,
    },
}

// ---------------------------------------------------------------------------
// In-process sharding
// ---------------------------------------------------------------------------

/// The event relay between host threads (which complete chunks in arbitrary order
/// under the coordinator lock) and the caller's sink (which is not `Send` and runs on
/// the calling thread only).
struct Relay {
    queue: Mutex<VecDeque<CampaignEvent>>,
    changed: Condvar,
    cancel: AtomicBool,
    active: AtomicUsize,
}

/// The sink host threads hand the coordinator: events are queued for the caller's
/// sink, and a pending cancellation is reported back as [`SinkFlow::Stop`].
struct RelaySink<'a> {
    relay: &'a Relay,
}

impl CampaignSink for RelaySink<'_> {
    fn event(&mut self, event: &CampaignEvent) -> SinkFlow {
        {
            let mut queue = self.relay.queue.lock().expect("relay queue poisoned");
            queue.push_back(event.clone());
        }
        self.relay.changed.notify_all();
        if self.relay.cancel.load(Ordering::SeqCst) {
            SinkFlow::Stop
        } else {
            SinkFlow::Continue
        }
    }
}

/// Decrements the relay's active-host count however the host exits (a panicking host
/// must not hang the caller's drain loop).
struct HostGuard<'a>(&'a Relay);

impl Drop for HostGuard<'_> {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
        self.0.changed.notify_all();
    }
}

/// Runs a prepared campaign to completion by sharding its chunk space across
/// `options.hosts` in-process worker hosts, coordinated by the full lease + merge-verify
/// machinery (the same [`Coordinator`] the TCP server drives).
///
/// Events stream into `sink` in canonical chunk order, exactly like [`drive`]: the
/// merged result is bit-for-bit the single-host result, which the sharded-parity
/// proptest pins across (hosts × batch × backend). The sink returning
/// [`SinkFlow::Stop`] cancels the campaign cooperatively; completed chunks stay
/// durable in the store.
///
/// [`drive`]: crate::driver::drive
///
/// # Errors
///
/// Returns [`ServeError::Campaign`] if a chunk execution fails, or the coordinator's
/// error if a record cannot be durably absorbed. A host that hits either cancels the
/// whole campaign, so with several failing hosts the first one's error is reported.
pub fn run_sharded(
    prepared: &PreparedCampaign<'_>,
    store: CheckpointStore,
    options: &ShardOptions,
    sink: &mut dyn CampaignSink,
) -> Result<DriveOutcome, ServeError> {
    let fingerprint = store.fingerprint().to_string();
    let chunks: Vec<TrialChunk> = prepared.chunks().to_vec();
    let trials_total = (prepared.config().trials * prepared.num_inputs()) as u64;
    let coordinator = Mutex::new(Coordinator::new(
        store,
        chunks.clone(),
        prepared.categories().to_vec(),
        trials_total,
    )?);
    let hosts = options.hosts.max(1);
    let relay = Relay {
        queue: Mutex::new(VecDeque::new()),
        changed: Condvar::new(),
        cancel: AtomicBool::new(false),
        active: AtomicUsize::new(hosts),
    };
    // The first host failure. A failing host cancels the campaign (a failed chunk never
    // completes, so its range would be re-leased forever), so there is usually one.
    let failure: Mutex<Option<ServeError>> = Mutex::new(None);

    {
        let coordinator = &coordinator;
        let mut begin_sink = RelaySink { relay: &relay };
        coordinator
            .lock()
            .expect("coordinator lock poisoned")
            .begin(&mut begin_sink);
    }

    std::thread::scope(|scope| {
        for host in 0..hosts {
            let coordinator = &coordinator;
            let relay = &relay;
            let failure = &failure;
            let chunks = &chunks;
            let fingerprint = &fingerprint;
            scope.spawn(move || {
                let _guard = HostGuard(relay);
                let worker_name = format!("host-{host}");
                // Each host runs its granted ranges inline, like a 1-worker remote host.
                let pool = ThreadPool::new(1);
                while !relay.cancel.load(Ordering::SeqCst) {
                    let claimed = {
                        let mut coordinator =
                            coordinator.lock().expect("coordinator lock poisoned");
                        if coordinator.is_done() || coordinator.is_stopped() {
                            break;
                        }
                        coordinator.claim(
                            &worker_name,
                            options.claim_chunks,
                            options.ttl_ms,
                            Instant::now(),
                        )
                    };
                    let Some(grant) = claimed else {
                        // Everything pending is leased to another host (or the
                        // campaign just finished); re-check shortly.
                        std::thread::sleep(Duration::from_millis(options.poll_ms.max(1)));
                        continue;
                    };
                    // Stops this range: a lost lease, a failed absorb or a cancelled
                    // campaign.
                    let abandon = AtomicBool::new(false);
                    let mut absorb_error: Option<ServeError> = None;
                    let executed = prepared.execute(
                        &chunks[grant.start..grant.end],
                        &pool,
                        &abandon,
                        |chunk, tally| {
                            let absorbed = coordinator
                                .lock()
                                .expect("coordinator lock poisoned")
                                .absorb(
                                    fingerprint,
                                    grant.token,
                                    ChunkRecord { chunk, tally },
                                    Instant::now(),
                                    &mut RelaySink { relay },
                                );
                            match absorbed {
                                Ok(()) => {}
                                // The lease expired and someone else owns the range
                                // now; abandon it and claim afresh.
                                Err(ServeError::Lease(_)) => abandon.store(true, Ordering::SeqCst),
                                Err(e) => {
                                    absorb_error.get_or_insert(e);
                                    abandon.store(true, Ordering::SeqCst);
                                }
                            }
                            if relay.cancel.load(Ordering::SeqCst) {
                                abandon.store(true, Ordering::SeqCst);
                            }
                        },
                    );
                    if let Some(error) = absorb_error.or(executed.err().map(ServeError::Campaign)) {
                        failure
                            .lock()
                            .expect("failure lock poisoned")
                            .get_or_insert(error);
                        relay.cancel.store(true, Ordering::SeqCst);
                    }
                    let _ = coordinator
                        .lock()
                        .expect("coordinator lock poisoned")
                        .release(grant.token, Instant::now());
                }
            });
        }

        // The caller's thread drains relayed events into the (non-Send) sink while the
        // hosts run, translating a Stop into cooperative cancellation.
        loop {
            let batch: Vec<CampaignEvent> = {
                let mut queue = relay.queue.lock().expect("relay queue poisoned");
                while queue.is_empty() && relay.active.load(Ordering::SeqCst) > 0 {
                    let (guard, _timeout) = relay
                        .changed
                        .wait_timeout(queue, Duration::from_millis(25))
                        .expect("relay queue poisoned");
                    queue = guard;
                }
                queue.drain(..).collect()
            };
            for event in &batch {
                if sink.event(event) == SinkFlow::Stop {
                    relay.cancel.store(true, Ordering::SeqCst);
                }
            }
            if batch.is_empty() && relay.active.load(Ordering::SeqCst) == 0 {
                break;
            }
        }
    });

    if let Some(error) = failure.into_inner().expect("failure lock poisoned") {
        return Err(error);
    }
    let coordinator = coordinator.into_inner().expect("coordinator lock poisoned");
    if coordinator.is_done() && !coordinator.is_stopped() {
        Ok(DriveOutcome::Completed(coordinator.cumulative().clone()))
    } else {
        Ok(DriveOutcome::Stopped(coordinator.cumulative().clone()))
    }
}

// ---------------------------------------------------------------------------
// Remote (TCP) worker
// ---------------------------------------------------------------------------

/// Joins a coordinated campaign as a worker host: fetches the spec from the
/// coordinator at `addr`, materializes it, verifies the fingerprint equals `id`, and
/// loops — claim a chunk range, execute it on a local [`ThreadPool`]
/// (`config.workers` wide), push every record back (each push renews the lease) —
/// until the campaign reaches a terminal state.
///
/// A lost lease (this worker stalled past its TTL and the range was re-leased) is not
/// an error: the worker abandons the range and claims fresh work. The coordinator
/// accepts each chunk exactly once, so duplicated execution never duplicates counts.
///
/// # Errors
///
/// Returns [`ServeError::FingerprintMismatch`] if the materialized campaign does not
/// fingerprint to `id` (worker and coordinator would disagree about the work),
/// [`ServeError::Campaign`] if chunk execution fails, and transport errors if the
/// coordinator becomes unreachable.
pub fn work(
    addr: &str,
    id: &str,
    options: &WorkOptions,
    mut on_event: impl FnMut(&WorkEvent),
) -> Result<WorkReport, ServeError> {
    let client = Client::new(addr);
    let spec = client.spec(id)?;
    let materialized = spec.materialize()?;
    let fingerprint = materialized.fingerprint()?;
    if fingerprint != id {
        return Err(ServeError::FingerprintMismatch {
            expected: id.to_string(),
            found: fingerprint,
        });
    }
    let target = materialized.target();
    let prepared = PreparedCampaign::new(
        &target,
        &materialized.inputs,
        materialized.judge.as_ref(),
        &materialized.config,
    )?;
    let chunks = prepared.chunks();
    let pool = ThreadPool::new(materialized.config.workers.max(1));

    let mut chunks_executed = 0usize;
    let mut trials_executed = 0u64;
    loop {
        let outcome = client.claim(id, &options.worker, options.ttl_ms, options.claim_chunks);
        let grant = match outcome {
            Ok(ClaimOutcome::Granted(grant)) => grant,
            Ok(ClaimOutcome::NoWork { state, retry_ms }) => {
                if state == "running" {
                    let wait = retry_ms.max(options.poll_ms);
                    on_event(&WorkEvent::Waiting { retry_ms: wait });
                    std::thread::sleep(Duration::from_millis(wait));
                    continue;
                }
                return Ok(WorkReport {
                    id: id.to_string(),
                    chunks_executed,
                    trials_executed,
                    final_state: state,
                });
            }
            Err(e) => return Err(e),
        };
        on_event(&WorkEvent::Claimed {
            start: grant.start,
            end: grant.end,
            token: grant.token,
        });

        // Execute the range on the pool; the callback (on this thread) pushes each
        // record as it completes, renewing the lease with every accepted push.
        let abandon = AtomicBool::new(false);
        let mut push_error: Option<ServeError> = None;
        let mut lease_lost: Option<WorkEvent> = None;
        let executed = prepared.execute(
            &chunks[grant.start..grant.end],
            &pool,
            &abandon,
            |chunk, tally| {
                let record = ChunkRecord { chunk, tally };
                match client.push(id, grant.token, &record) {
                    Ok(()) => {
                        chunks_executed += 1;
                        trials_executed += record.tally.trials;
                    }
                    Err(ServeError::Lease(reason)) => {
                        lease_lost.get_or_insert(WorkEvent::LeaseLost {
                            token: grant.token,
                            reason: reason.to_string(),
                        });
                        abandon.store(true, Ordering::SeqCst);
                    }
                    Err(e) => {
                        push_error.get_or_insert(e);
                        abandon.store(true, Ordering::SeqCst);
                    }
                }
            },
        );
        if let Some(e) = push_error {
            return Err(e);
        }
        executed?;
        if let Some(event) = &lease_lost {
            on_event(event);
        } else {
            for index in grant.start..grant.end {
                on_event(&WorkEvent::Pushed { index });
            }
        }
        // Hand the lease back; the range is done (or lost), either way this token is
        // finished. A refusal here just means the coordinator already reclaimed it.
        let _ = client.release(id, grant.token);
    }
}
