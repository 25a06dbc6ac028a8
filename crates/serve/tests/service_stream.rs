//! End-to-end service acceptance over a real TCP socket: a streaming client observes
//! monotonically increasing tallies whose final event is bit-for-bit the in-process
//! API's `CampaignResult`, and re-submitting a finished campaign replays it entirely
//! from its checkpoint.

use ranger_inject::{run_campaign, BackendKind, CampaignConfig, FaultModel};
use ranger_serve::{CampaignEvent, CampaignServer, CampaignSpec, Client, ModelSpec, ServeError};
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ranger-serve-stream-{}-{name}", std::process::id()))
}

fn small_lenet_spec() -> CampaignSpec {
    CampaignSpec {
        model: ModelSpec::Kind {
            name: "lenet".to_string(),
        },
        inputs: 2,
        config: CampaignConfig {
            trials: 6,
            batch: 1,
            workers: 2,
            backend: BackendKind::F32,
            fault: FaultModel::single_bit_fixed32(),
            seed: 11,
            tile: 0,
        },
    }
}

#[test]
fn streamed_tallies_are_monotone_and_end_in_the_in_process_result() {
    let dir = tmp_dir("monotone");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = small_lenet_spec();

    // The ground truth: the same campaign through the in-process API.
    let materialized = spec.materialize().unwrap();
    let reference = run_campaign(
        &materialized.target(),
        &materialized.inputs,
        materialized.judge.as_ref(),
        &materialized.config,
    )
    .unwrap();

    let server = CampaignServer::bind("127.0.0.1:0", &dir).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());
    let client = Client::new(addr.to_string());

    let submitted = client.submit(&spec).unwrap();
    assert_eq!(submitted.id.len(), 32, "the campaign id is its fingerprint");
    assert_eq!(submitted.resumed_chunks, 0, "fresh campaign, fresh log");
    assert!(
        submitted.total_chunks > 1,
        "the partition must be non-trivial"
    );

    let mut events = Vec::new();
    let state = client
        .stream(&submitted.id, |event| events.push(event.clone()))
        .unwrap();
    assert_eq!(state, "done");

    // Shape: one GoldenDone, total_chunks ChunkDones in index order, one CampaignDone.
    assert!(
        matches!(events.first(), Some(CampaignEvent::GoldenDone { .. })),
        "the stream must open with GoldenDone, got {:?}",
        events.first()
    );
    let chunk_indices: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            CampaignEvent::ChunkDone { chunk, .. } => Some(chunk.index),
            _ => None,
        })
        .collect();
    assert_eq!(
        chunk_indices,
        (0..submitted.total_chunks).collect::<Vec<_>>(),
        "chunk events arrive in canonical order whatever the completion order was"
    );

    // Monotonicity: trials and every per-category SDC count never decrease.
    let mut last_trials = 0u64;
    let mut last_counts: Vec<u64> = Vec::new();
    for event in &events {
        assert!(
            event.trials_done() >= last_trials,
            "tallies must be monotone, {} after {last_trials}",
            event.trials_done()
        );
        last_trials = event.trials_done();
        if let CampaignEvent::ChunkDone { cumulative, .. } = event {
            if !last_counts.is_empty() {
                for (now, before) in cumulative.sdc_counts.iter().zip(&last_counts) {
                    assert!(now >= before, "SDC counts must be monotone");
                }
            }
            last_counts = cumulative.sdc_counts.clone();
        }
    }

    // The final event is bit-for-bit the in-process API's result.
    match events.last() {
        Some(CampaignEvent::CampaignDone { result }) => assert_eq!(result, &reference),
        other => panic!("stream must end with CampaignDone, got {other:?}"),
    }

    // Status agrees after completion.
    let status = client.status(&submitted.id).unwrap();
    assert_eq!(status.state, "done");
    assert_eq!(status.trials_done, reference.trials);
    assert_eq!(status.trials_total, reference.trials);
    assert_eq!(status.done_chunks, submitted.total_chunks);
    assert_eq!(status.sdc_counts, reference.sdc_counts);

    // Re-submitting the identical spec resumes: every chunk replays from the
    // checkpoint and the final result is identical.
    let resubmitted = client.submit(&spec).unwrap();
    assert_eq!(resubmitted.id, submitted.id, "same spec, same fingerprint");
    assert_eq!(resubmitted.resumed_chunks, submitted.total_chunks);
    let mut replay = Vec::new();
    let state = client
        .stream(&resubmitted.id, |event| replay.push(event.clone()))
        .unwrap();
    assert_eq!(state, "done");
    let all_resumed = replay
        .iter()
        .filter_map(|e| match e {
            CampaignEvent::ChunkDone { resumed, .. } => Some(*resumed),
            _ => None,
        })
        .collect::<Vec<_>>();
    assert_eq!(all_resumed.len(), submitted.total_chunks);
    assert!(
        all_resumed.iter().all(|&r| r),
        "a finished campaign replays without re-running a single trial"
    );
    match replay.last() {
        Some(CampaignEvent::CampaignDone { result }) => assert_eq!(result, &reference),
        other => panic!("replay must end with CampaignDone, got {other:?}"),
    }

    // Unknown campaigns are named in the error.
    let err = client.status("deadbeef").unwrap_err();
    assert!(matches!(err, ServeError::Protocol(_)), "got {err:?}");
    assert!(err.to_string().contains("deadbeef"));

    client.shutdown().unwrap();
    server_thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_stops_a_campaign_and_resubmit_completes_it_with_identical_counts() {
    let dir = tmp_dir("cancel");
    let _ = std::fs::remove_dir_all(&dir);
    let mut spec = small_lenet_spec();
    spec.config.trials = 12;
    spec.config.seed = 23;

    let materialized = spec.materialize().unwrap();
    let reference = run_campaign(
        &materialized.target(),
        &materialized.inputs,
        materialized.judge.as_ref(),
        &materialized.config,
    )
    .unwrap();

    let server = CampaignServer::bind("127.0.0.1:0", &dir).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());
    let client = Client::new(addr.to_string());

    let submitted = client.submit(&spec).unwrap();
    // Cancel immediately: whatever chunks were in flight are checkpointed, the rest
    // are skipped. The stream still terminates cleanly.
    client.cancel(&submitted.id).unwrap();
    let state = client.stream(&submitted.id, |_| {}).unwrap();
    assert!(
        state == "cancelled" || state == "done",
        "a cancelled campaign ends as cancelled (or done, if it outran the cancel): {state}"
    );

    // Re-submit until done: the service resumes from the checkpoint each time and the
    // final counts are exactly the uninterrupted in-process result.
    let mut last = Vec::new();
    for _ in 0..20 {
        let resubmitted = client.submit(&spec).unwrap();
        assert_eq!(resubmitted.id, submitted.id);
        last.clear();
        let state = client
            .stream(&resubmitted.id, |event| last.push(event.clone()))
            .unwrap();
        if state == "done" {
            break;
        }
    }
    match last.last() {
        Some(CampaignEvent::CampaignDone { result }) => assert_eq!(result, &reference),
        other => panic!("the resumed campaign must finish with CampaignDone, got {other:?}"),
    }

    client.shutdown().unwrap();
    server_thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_endless_request_line_is_refused_while_other_clients_are_served() {
    use std::io::{BufRead, BufReader, Write};
    use std::time::Duration;

    let dir = tmp_dir("oversized");
    let _ = std::fs::remove_dir_all(&dir);
    let server = CampaignServer::bind("127.0.0.1:0", &dir).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());
    let client = Client::new(addr.to_string());

    // One byte past the limit and no newline; the socket stays open.
    let mut flood = std::net::TcpStream::connect(addr).unwrap();
    flood
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    flood
        .write_all(&vec![b'x'; ranger_serve::MAX_REQUEST_BYTES + 1])
        .unwrap();

    // A second connection is answered meanwhile.
    let err = client.status("deadbeef").unwrap_err();
    assert!(matches!(err, ServeError::Protocol(_)), "got {err:?}");

    let mut reply = String::new();
    BufReader::new(&flood)
        .read_line(&mut reply)
        .expect("the over-long request must be answered within 10 s");
    assert!(reply.contains("Error"), "{reply}");
    assert!(
        reply.contains(&ranger_serve::MAX_REQUEST_BYTES.to_string()),
        "the refusal names the limit: {reply}"
    );
    drop(flood);

    client.shutdown().unwrap();
    server_thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
