//! The service determinism contract: with a seeded arrival schedule, the
//! token streams delivered through the concurrent service frontend are
//! **bit-identical** to (a) the same schedule fed directly to a bare
//! `BatchEngine` through the identical tick protocol, and (b) an
//! uninterrupted legacy `Session` decode of each request — at every
//! thread count and under both preemption policies. Delivery *clocks*
//! (the latency substrate) must match the direct replay tick for tick,
//! and so must the engine's aggregate stats.

#[path = "../../oaken-serving/tests/support/mod.rs"]
mod support;

use oaken_service::{replay_open_loop_direct, serve, LatencyRecorder, OpenLoopSpec, StreamEvent};
use oaken_serving::{
    EngineConfig, EngineRequest, PreemptPolicy, RequestFailure, RequestOutcome, TokenScheduler,
};
use proptest::prelude::*;
use support::*;

/// Runs one schedule through the service and through the direct replay
/// under `cfg`, asserting the full contract. Returns the service's p95
/// time-to-first-token in service-clock ticks.
fn assert_service_matches_direct(
    schedule: &[(EngineRequest, u64)],
    cfg: EngineConfig,
    pages: u32,
    host_pages: u32,
) -> u64 {
    let model = tiny_model();
    let quantizer = profiled_oaken(&model);

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

    let ctx = format!("threads={} preempt={:?}", cfg.num_threads, cfg.preempt);
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
            let reference = reference_tokens(
                &model,
                &quantizer,
                cfg.kernel,
                &req.prompt,
                req.max_new_tokens,
            );
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
    let mut latency = LatencyRecorder::new();
    for (res, (_, arrival)) in results.iter().zip(schedule) {
        latency.record("all", *arrival, &res.token_clocks);
    }
    latency.report()[0].ttft.p95
}

/// A fixed mixed workload on a seeded Poisson schedule, swept over the
/// full thread × preemption-policy matrix.
#[test]
fn poisson_schedule_bit_exact_across_threads_and_policies() {
    // One seed, so every rate draws the same arrivals, scaled.
    let schedule_at = |mean_interarrival: f64| -> Vec<(EngineRequest, u64)> {
        let spec = OpenLoopSpec::poisson(mean_interarrival, 42);
        oaken_service::arrival_schedule(&spec, 6)
            .into_iter()
            .enumerate()
            .map(|(i, at)| (request_for(i as u64, 5 + i % 4, 4 + i % 5), at))
            .collect()
    };
    let schedule = schedule_at(3.0);
    // The thread × policy sweep is this test's own; a point supplies the
    // kernel and the rank count.
    for_each_point(
        |point| EngineConfig {
            preempt: PreemptPolicy::RestartRecompute,
            num_threads: 1,
            ..service_config(point)
        },
        |cfg| {
            for num_threads in [1usize, 4] {
                for preempt in [PreemptPolicy::RestartRecompute, PreemptPolicy::SwapToHost] {
                    let cfg = EngineConfig {
                        preempt,
                        num_threads,
                        ..cfg
                    };
                    assert_service_matches_direct(&schedule, cfg, 256, 128);
                }
            }
        },
    );

    // Open-loop load: sparse arrivals meet an idle engine, saturated ones
    // queue behind the batch limit and share the prefill budget, so the
    // tail time-to-first-token — an exact tick count — can only grow.
    let p95_ttft =
        |mean| assert_service_matches_direct(&schedule_at(mean), service_config(SWAP), 256, 128);
    let (sparse, saturated) = (p95_ttft(40.0), p95_ttft(0.25));
    assert!(
        saturated >= sparse,
        "saturated p95 TTFT {saturated} ticks < sparse {sparse}"
    );
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
    for_each_point(
        |point| EngineConfig {
            preempt: PreemptPolicy::RestartRecompute,
            num_threads: 4,
            ..service_config(point)
        },
        |cfg| {
            for preempt in [PreemptPolicy::RestartRecompute, PreemptPolicy::SwapToHost] {
                assert_service_matches_direct(&schedule, EngineConfig { preempt, ..cfg }, 80, 80);
            }
        },
    );
}

/// A submission under an id that is still in flight — streaming, or
/// still parked in the arrival schedule — must not take over the first
/// holder's stream registration (which used to strand the first client
/// on a closed channel): the newcomer fails `Invalid` on its own stream,
/// and the first request decodes exactly the undisturbed run.
#[test]
fn duplicate_in_flight_id_fails_typed_and_spares_the_first() {
    let model = tiny_model();
    let quantizer = profiled_oaken(&model);
    let cfg = service_config(BENCHMARKED);
    // Long enough (hundreds of engine iterations) to still be decoding
    // when the duplicate lands after its first token.
    let streaming = request_for(5, 6, 250);
    let parked = request_for(6, 5, 4);
    let intruder = |id| EngineRequest::new(id, prompt_for(99, 4), 3);
    let ((first, live_dup, scheduled), report) = serve(
        &model,
        service_pool(&model, &quantizer, 512, 512),
        TokenScheduler::new(4),
        cfg,
        |client| {
            // Streamed by hand: the duplicate lands after the first token.
            let first = client.submit(streaming.clone());
            let mut tokens = Vec::new();
            let mut live_dup = None;
            let end = loop {
                match first.recv().expect("stream stays open until Done") {
                    StreamEvent::Token(t) => {
                        tokens.push(t.token);
                        live_dup.get_or_insert_with(|| client.submit(intruder(5)).wait());
                    }
                    StreamEvent::Done(end) => break end,
                }
            };
            // One atomic schedule: the duplicate meets its twin still
            // parked, whatever the arrival ticks say.
            let scheduled: Vec<_> = client
                .submit_schedule([(parked.clone(), 40), (intruder(6), 3)])
                .into_iter()
                .map(|h| h.wait())
                .collect();
            ((tokens, end), live_dup.expect("first streamed"), scheduled)
        },
    );
    let invalid = RequestOutcome::Failed(RequestFailure::Invalid);
    for dup in [&live_dup, &scheduled[1]] {
        assert_eq!(dup.end.outcome, invalid, "request {}", dup.id);
        assert!(dup.tokens.is_empty() && dup.end.generated.is_empty());
    }
    let parked_res = &scheduled[0];
    for (tokens, end, req) in [
        (&first.0, &first.1, &streaming),
        (&parked_res.tokens, &parked_res.end, &parked),
    ] {
        let reference = reference_tokens(
            &model,
            &quantizer,
            cfg.kernel,
            &req.prompt,
            req.max_new_tokens,
        );
        assert_eq!(end.outcome, RequestOutcome::Finished);
        assert_eq!(tokens, &reference, "request {} was disturbed", req.id);
        assert_eq!(end.generated, reference);
    }
    // The duplicates never reached the engine.
    assert_eq!((report.stats.retired, report.stats.failed), (2, 0));
    assert!(report.drained_empty(), "pool residue: {:?}", report.drain);
}

/// An id names one request only until its terminal event, so a schedule
/// may legitimately hand it to a later entry once the first holder has
/// retired. The direct replay must keep one timing per schedule *entry*
/// (keyed by id alone, the second holder overwrote the first's record and
/// then lost its own tokens), and both holders' streams must equal the
/// service's, clock for clock.
#[test]
fn id_reused_after_retirement_keeps_one_timing_per_schedule_entry() {
    let model = tiny_model();
    let quantizer = profiled_oaken(&model);
    let cfg = service_config(BENCHMARKED);
    let reuse_at = 300u64;
    let schedule = vec![
        (request_for(7, 6, 5), 0u64),
        (request_for(8, 5, 4), 2),
        (EngineRequest::new(7, prompt_for(3, 8), 6), reuse_at),
    ];

    let replay = replay_open_loop_direct(
        &model,
        service_pool(&model, &quantizer, 256, 128),
        TokenScheduler::new(4),
        cfg,
        schedule.clone(),
        &[],
    );
    assert_eq!(replay.timings.len(), schedule.len(), "one per entry");
    assert_eq!(replay.finished.len(), schedule.len());
    let first_done = *replay.timings[0].token_clocks.last().expect("decoded");
    assert!(first_done < reuse_at, "the first holder must have retired");

    // The service refuses an id that is still in flight — parked in the
    // schedule counts — so the second holder is submitted once the first
    // one's stream has ended; the service clock stands still meanwhile.
    let (results, report) = serve(
        &model,
        service_pool(&model, &quantizer, 256, 128),
        TokenScheduler::new(4),
        cfg,
        |client| {
            let early = client.submit_schedule(schedule[..2].iter().cloned());
            let mut results: Vec<_> = early.into_iter().map(|h| h.wait()).collect();
            let late = client.submit_schedule([(schedule[2].0.clone(), reuse_at)]);
            results.extend(late.into_iter().map(|h| h.wait()));
            results
        },
    );
    for ((res, timing), (req, arrival)) in results.iter().zip(&replay.timings).zip(&schedule) {
        assert_eq!((timing.id, timing.arrival), (req.id, *arrival));
        assert_eq!(res.end.outcome, RequestOutcome::Finished);
        assert_eq!(res.tokens, timing.tokens, "request {} stream", req.id);
        assert_eq!(res.token_clocks, timing.token_clocks, "request {}", req.id);
        let reference = reference_tokens(
            &model,
            &quantizer,
            cfg.kernel,
            &req.prompt,
            req.max_new_tokens,
        );
        assert_eq!(res.tokens, reference, "request {} != Session", req.id);
    }
    assert_eq!(report.clock, replay.clock, "final service clocks");
    assert_eq!(report.stats, replay.stats, "engine stats");
    assert!(report.drained_empty(), "residue: {:?}", report.drain);
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
    let swap = |point| EngineConfig {
        preempt: PreemptPolicy::SwapToHost,
        ..service_config(point)
    };
    for_each_point(swap, |cfg| {
        let ((failed, served), report) = serve(
            &model,
            service_pool(&model, &quantizer, 256, 128),
            TokenScheduler::new(4),
            cfg,
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
        let reference = reference_tokens(
            &model,
            &quantizer,
            cfg.kernel,
            &good.prompt,
            good.max_new_tokens,
        );
        assert_eq!(served.tokens, reference);
        assert_eq!(report.stats.failed, bad.len() as u64);
        assert_eq!(report.stats.retired, 1);
        assert!(report.drained_empty(), "pool residue: {:?}", report.drain);
    });
}

/// A request longer than the model's `max_seq_len` ends typed on its own
/// stream whatever its output budget: a `1 << 40`-token budget sizes no
/// buffer for that many tokens (which would abort the process), fails
/// `Impossible` at admission, and the service keeps serving.
#[test]
fn over_length_request_fails_impossible_without_sizing_its_budget() {
    let model = tiny_model();
    let quantizer = profiled_oaken(&model);
    let huge = EngineRequest {
        id: 0,
        prompt: vec![1, 2, 3],
        max_new_tokens: 1 << 40,
    };
    let good = request_for(1, 6, 5);
    let ((failed, served), report) = serve(
        &model,
        service_pool(&model, &quantizer, 256, 128),
        TokenScheduler::new(4),
        service_config(REFERENCE),
        |client| (client.submit(huge).wait(), client.submit(good).wait()),
    );
    assert_eq!(
        failed.end.outcome,
        RequestOutcome::Failed(RequestFailure::Impossible)
    );
    assert!(failed.tokens.is_empty());
    assert_eq!(served.end.outcome, RequestOutcome::Finished);
    assert!(report.drained_empty(), "pool residue: {:?}", report.drain);
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
        point in matrix_point(),
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
        let cfg = EngineConfig {
            preempt,
            num_threads: threads,
            ..service_config(point)
        };
        assert_service_matches_direct(&schedule, cfg, 256, 128);
    }
}
