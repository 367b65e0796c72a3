//! The service determinism contract: with a seeded arrival schedule, the
//! token streams delivered through the concurrent service frontend are
//! **bit-identical** to (a) the same schedule fed directly to a bare
//! `BatchEngine` through the identical tick protocol, and (b) an
//! uninterrupted legacy `Session` decode of each request — at every
//! thread count and under both preemption policies. Delivery *clocks*
//! (the latency substrate) must match the direct replay tick for tick,
//! and so must the engine's aggregate stats.

mod common;

use common::*;
use oaken_service::{replay_open_loop_direct, serve, OpenLoopSpec};
use oaken_serving::{EngineRequest, PreemptPolicy, RequestFailure, RequestOutcome, TokenScheduler};
use proptest::prelude::*;

/// Runs one schedule through the service and through the direct replay
/// under the given knobs, asserting the full contract.
fn assert_service_matches_direct(
    schedule: &[(EngineRequest, u64)],
    num_threads: usize,
    preempt: PreemptPolicy,
    pages: u32,
    host_pages: u32,
) {
    let model = tiny_model();
    let quantizer = profiled_oaken(&model);
    let cfg = service_config(num_threads, preempt);

    let (results, report) = serve(
        &model,
        service_pool(&model, &quantizer, pages, host_pages),
        TokenScheduler::new(4),
        cfg,
        |client| {
            let handles = client.submit_schedule(schedule.iter().cloned());
            handles.into_iter().map(|h| h.wait()).collect::<Vec<_>>()
        },
    );
    let replay = replay_open_loop_direct(
        &model,
        service_pool(&model, &quantizer, pages, host_pages),
        TokenScheduler::new(4),
        cfg,
        schedule.to_vec(),
        &[],
    );

    let ctx = format!("threads={num_threads} preempt={preempt:?}");
    assert_eq!(results.len(), schedule.len(), "{ctx}: all handles terminal");
    for res in &results {
        let timing = replay.timing_for(res.id);
        let direct = replay.finished_for(res.id);
        assert_eq!(
            res.tokens, timing.tokens,
            "{ctx}: request {} service stream != direct stream",
            res.id
        );
        assert_eq!(
            res.token_clocks, timing.token_clocks,
            "{ctx}: request {} delivery clocks != direct clocks",
            res.id
        );
        assert_eq!(res.end.outcome, direct.outcome, "{ctx}: request {}", res.id);
        assert_eq!(
            res.end.generated, direct.generated,
            "{ctx}: request {} terminal tokens != direct terminal tokens",
            res.id
        );
        assert_eq!(res.end.ttft_iteration, direct.ttft_iteration, "{ctx}");
        assert_eq!(res.end.preemptions, direct.preemptions, "{ctx}");
        // The uninterrupted single-sequence reference: the service layer
        // must not perturb what the engine decodes.
        if res.end.outcome == RequestOutcome::Finished {
            let (req, _) = schedule
                .iter()
                .find(|(r, _)| r.id == res.id)
                .expect("result id came from the schedule");
            let reference = session_decode(&model, &quantizer, &req.prompt, req.max_new_tokens);
            assert_eq!(
                res.tokens, reference,
                "{ctx}: request {} != uninterrupted Session",
                res.id
            );
        }
    }
    assert_eq!(report.clock, replay.clock, "{ctx}: final service clocks");
    assert_eq!(report.stats, replay.stats, "{ctx}: engine stats");
    assert!(
        report.drained_empty(),
        "{ctx}: pool residue: {:?}",
        report.drain
    );
}

/// A fixed mixed workload on a seeded Poisson schedule, swept over the
/// full thread × preemption-policy matrix.
#[test]
fn poisson_schedule_bit_exact_across_threads_and_policies() {
    let spec = OpenLoopSpec::poisson(3.0, 42);
    let arrivals = oaken_service::arrival_schedule(&spec, 6);
    let schedule: Vec<_> = arrivals
        .into_iter()
        .enumerate()
        .map(|(i, at)| (request_for(i as u64, 5 + i % 4, 4 + i % 5), at))
        .collect();
    for &threads in &[1usize, 4] {
        for &preempt in &[PreemptPolicy::RestartRecompute, PreemptPolicy::SwapToHost] {
            assert_service_matches_direct(&schedule, threads, preempt, 256, 128);
        }
    }
}

/// Bursty arrivals under page pressure: bursts slam the admission gate
/// together, forcing queueing and preemption, and the streams must still
/// be bit-exact.
#[test]
fn bursty_schedule_bit_exact_under_page_pressure() {
    let spec = OpenLoopSpec::bursty(2.0, 3, 7);
    let arrivals = oaken_service::arrival_schedule(&spec, 6);
    let schedule: Vec<_> = arrivals
        .into_iter()
        .enumerate()
        .map(|(i, at)| (request_for(i as u64, 6, 10), at))
        .collect();
    for &preempt in &[PreemptPolicy::RestartRecompute, PreemptPolicy::SwapToHost] {
        assert_service_matches_direct(&schedule, 4, preempt, 80, 80);
    }
}

/// Malformed requests arrive from outside the process: each must end in
/// a typed `Failed(Invalid)` on its own stream — not a panic that takes
/// the engine thread down and strands every waiting client — and the
/// service must keep serving: a good request submitted after them still
/// finishes with the reference tokens, and shutdown joins cleanly.
#[test]
fn invalid_requests_fail_typed_and_the_service_keeps_serving() {
    let model = tiny_model();
    let quantizer = profiled_oaken(&model);
    let vocab = model.config().vocab_size as u32;
    let bad = [
        EngineRequest {
            id: 0,
            prompt: vec![3, vocab, 5], // out of vocabulary
            max_new_tokens: 4,
        },
        EngineRequest {
            id: 1,
            prompt: Vec::new(),
            max_new_tokens: 4,
        },
        EngineRequest {
            id: 2,
            prompt: vec![1, 2, 3],
            max_new_tokens: 0,
        },
    ];
    let good = request_for(3, 6, 5);
    for &threads in &[1usize, 4] {
        let ((failed, served), report) = serve(
            &model,
            service_pool(&model, &quantizer, 256, 128),
            TokenScheduler::new(4),
            service_config(threads, PreemptPolicy::SwapToHost),
            |client| {
                let failed: Vec<_> = bad
                    .iter()
                    .map(|req| client.submit(req.clone()).wait())
                    .collect();
                (failed, client.submit(good.clone()).wait())
            },
        );
        for res in &failed {
            assert_eq!(
                res.end.outcome,
                RequestOutcome::Failed(RequestFailure::Invalid),
                "request {}",
                res.id
            );
            assert!(res.tokens.is_empty() && res.end.generated.is_empty());
        }
        assert_eq!(served.end.outcome, RequestOutcome::Finished);
        assert_eq!(
            served.tokens,
            session_decode(&model, &quantizer, &good.prompt, good.max_new_tokens)
        );
        assert_eq!(report.stats.failed, bad.len() as u64);
        assert_eq!(report.stats.retired, 1);
        assert!(report.drained_empty(), "pool residue: {:?}", report.drain);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random workloads (shapes and arrival gaps) through the matrix:
    /// the service must stay bit-exact with the direct replay and the
    /// Session reference for every draw.
    #[test]
    fn random_workloads_service_equals_direct(
        shapes in prop::collection::vec((2usize..10, 1usize..7, 0u64..5), 1..5),
        threads in prop::sample::select(vec![1usize, 4]),
        swap in any::<bool>(),
    ) {
        let mut at = 0u64;
        let schedule: Vec<_> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(plen, max_new, gap))| {
                at += gap;
                (request_for(i as u64, plen, max_new), at)
            })
            .collect();
        let preempt = if swap {
            PreemptPolicy::SwapToHost
        } else {
            PreemptPolicy::RestartRecompute
        };
        assert_service_matches_direct(&schedule, threads, preempt, 256, 128);
    }
}
