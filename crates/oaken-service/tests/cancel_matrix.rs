//! Cancellation matrix through the service frontend: a request is
//! cancelled via its `SessionHandle` while parked in each distinct spot —
//! batcher-scheduled (never reaches the engine), engine-queued, active
//! mid-chunked-prefill, active mid-decode, swap-suspended, and resume
//! head — and every case must leave zero residue (pool drains exactly
//! empty) with all *survivors* bit-exact against a direct replay of the
//! same schedule-plus-cancel, matching the engine-side cancellation
//! tests spot for spot.
//!
//! The coordinates are found by **rehearsal**: a cancel-free direct
//! engine is driven through the exact service tick protocol while the
//! id-introspection accessors record which spot each request occupies at
//! each tick. Because evolution up to the cancel tick is cancel-free and
//! the engine is deterministic, a `(tick, id)` sampled from the
//! rehearsal is guaranteed to catch the request in that spot when the
//! service run applies the scripted cancel.

#[path = "../../oaken-serving/tests/support/mod.rs"]
mod support;

use oaken_service::{replay_open_loop_direct, serve};
use oaken_serving::{
    BatchEngine, EngineConfig, EngineRequest, PreemptPolicy, RequestOutcome, TokenScheduler,
};
use support::*;

/// The distinct parking spots a cancel can catch a request in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Spot {
    /// In the engine's admission queue.
    Queued,
    /// Active, still consuming prompt chunks.
    Prefill,
    /// Active, decoding.
    Decode,
    /// Swapped to the host tier, not at the resume head.
    Swapped,
    /// Next in line to be swapped back in.
    ResumeHead,
}

/// Geometry that loads every parking spot: the quantized pool's
/// worst-case bound is a flat 64 pages per sequence (one page per KV
/// stream) plus append headroom, so a 320-page device tier sustains a
/// couple of actives while optimistic swap admission parks the rest on
/// the deep host tier — the suspension queue stays several sequences
/// long while the engine round-robins through them, every request can
/// still finish alone, and queued / chunked-prefill / decode / swapped /
/// resume-head are all occupied for long stretches.
fn matrix_requests() -> Vec<EngineRequest> {
    (0..6u64)
        .map(|id| {
            let prompt = (0..20u32)
                .map(|i| (id as u32 * 61 + i * 17 + 101) % 256)
                .collect();
            EngineRequest::new(id, prompt, 30)
        })
        .collect()
}

/// The spot-loading shape of a matrix point: the policy and the thread
/// count are the scenario's, the kernel and the rank count the point's.
fn spot_config(point: EngineConfig) -> EngineConfig {
    EngineConfig {
        max_batch: 3,
        preempt: PreemptPolicy::SwapToHost,
        num_threads: 2,
        ..service_config(point)
    }
}

/// Drives a cancel-free direct engine through the service tick protocol,
/// recording `(tick, spot, id)` occupancy at each tick's
/// cancel-application point (post-arrival, pre-step).
fn rehearse_spots(
    model: &oaken_model::Model,
    quantizer: &std::sync::Arc<dyn oaken_core::KvQuantizer>,
    cfg: EngineConfig,
) -> Vec<(u64, Spot, u64)> {
    let pool = service_pool(model, quantizer, 320, 448);
    let mut engine = BatchEngine::new(model, pool, TokenScheduler::new(4), cfg);
    for req in matrix_requests() {
        engine.submit(req);
    }
    let mut spots = Vec::new();
    let mut clock = 0u64;
    loop {
        for id in engine.queued_ids() {
            spots.push((clock, Spot::Queued, id));
        }
        for id in engine.active_ids() {
            let (pos, prompt_len) = engine.active_progress(id).expect("active id has progress");
            let spot = if pos < prompt_len {
                Spot::Prefill
            } else {
                Spot::Decode
            };
            spots.push((clock, spot, id));
        }
        for (i, id) in engine.suspended_ids().into_iter().enumerate() {
            spots.push((
                clock,
                if i == 0 {
                    Spot::ResumeHead
                } else {
                    Spot::Swapped
                },
                id,
            ));
        }
        if !engine.step() {
            break;
        }
        clock += 1;
    }
    spots
}

/// Picks a mid-occupancy `(tick, id)` coordinate for a spot (skipping
/// tick 0, where everything is trivially queued).
fn coordinate_for(spots: &[(u64, Spot, u64)], want: Spot) -> (u64, u64) {
    let hits: Vec<_> = spots
        .iter()
        .filter(|&&(t, s, _)| s == want && t > 0)
        .collect();
    assert!(
        !hits.is_empty(),
        "rehearsal never parked a request in {want:?} — geometry regressed"
    );
    let &&(t, _, id) = &hits[hits.len() / 2];
    (t, id)
}

/// Runs the full schedule through the service with one scripted cancel,
/// asserting the cancelled request terminates as Cancelled, survivors
/// are bit-exact with the direct replay and the Session reference, and
/// the pool drains exactly empty.
fn run_cancel_case(
    model: &oaken_model::Model,
    quantizer: &std::sync::Arc<dyn oaken_core::KvQuantizer>,
    cfg: EngineConfig,
    spot: Spot,
    tick: u64,
    victim: u64,
) {
    let schedule: Vec<_> = matrix_requests().into_iter().map(|r| (r, 0u64)).collect();
    let (results, report) = serve(
        model,
        service_pool(model, quantizer, 320, 448),
        TokenScheduler::new(4),
        cfg,
        |client| {
            let handles = client.submit_schedule(schedule.iter().cloned());
            client.cancel_at(victim, tick);
            handles.into_iter().map(|h| h.wait()).collect::<Vec<_>>()
        },
    );
    let replay = replay_open_loop_direct(
        model,
        service_pool(model, quantizer, 320, 448),
        TokenScheduler::new(4),
        cfg,
        schedule.clone(),
        &[(tick, victim)],
    );

    let ctx = format!("spot={spot:?} tick={tick} victim={victim}");
    for res in &results {
        let direct = replay.finished_for(res.id);
        let timing = replay.timing_for(res.id);
        assert_eq!(res.end.outcome, direct.outcome, "{ctx}: request {}", res.id);
        assert_eq!(
            res.tokens, timing.tokens,
            "{ctx}: request {} stream",
            res.id
        );
        assert_eq!(
            res.token_clocks, timing.token_clocks,
            "{ctx}: request {} clocks",
            res.id
        );
        if res.id == victim {
            assert_eq!(
                res.end.outcome,
                RequestOutcome::Cancelled,
                "{ctx}: victim must cancel"
            );
        } else {
            assert_eq!(
                res.end.outcome,
                RequestOutcome::Finished,
                "{ctx}: survivor {} must finish",
                res.id
            );
            let (req, _) = schedule
                .iter()
                .find(|(r, _)| r.id == res.id)
                .expect("in schedule");
            let reference = reference_tokens(
                model,
                quantizer,
                cfg.kernel,
                &req.prompt,
                req.max_new_tokens,
            );
            assert_eq!(
                res.tokens, reference,
                "{ctx}: survivor {} != uninterrupted Session",
                res.id
            );
        }
    }
    assert_eq!(report.stats, replay.stats, "{ctx}: stats");
    assert_eq!(
        report.stats.cancellations, 1,
        "{ctx}: one engine-side cancel"
    );
    assert!(report.drained_empty(), "{ctx}: residue {:?}", report.drain);
}

#[test]
fn cancel_in_every_engine_parking_spot_leaves_zero_residue() {
    let model = tiny_model();
    let quantizer = profiled_oaken(&model);
    for_each_point(spot_config, |cfg| {
        let spots = rehearse_spots(&model, &quantizer, cfg);
        for spot in [
            Spot::Queued,
            Spot::Prefill,
            Spot::Decode,
            Spot::Swapped,
            Spot::ResumeHead,
        ] {
            let (tick, victim) = coordinate_for(&spots, spot);
            run_cancel_case(&model, &quantizer, cfg, spot, tick, victim);
        }
    });
}

/// The sixth spot: parked in the *batcher* schedule, never injected. The
/// service resolves the cancel client-side — the engine never sees the
/// request, so its cancellation counter stays zero — and the stream
/// still delivers a clean Cancelled terminal.
#[test]
fn cancel_while_batcher_parked_never_reaches_engine() {
    let model = tiny_model();
    let quantizer = profiled_oaken(&model);
    for_each_point(spot_config, |cfg| {
        let mut schedule: Vec<_> = matrix_requests()
            .into_iter()
            .take(3)
            .map(|r| (r, 0u64))
            .collect();
        // Parked far in the future; cancelled long before arrival.
        schedule.push((EngineRequest::new(9, prompt_for(9, 10), 5), 500));
        let (results, report) = serve(
            &model,
            service_pool(&model, &quantizer, 320, 448),
            TokenScheduler::new(4),
            cfg,
            |client| {
                let handles = client.submit_schedule(schedule.iter().cloned());
                client.cancel_at(9, 3);
                handles.into_iter().map(|h| h.wait()).collect::<Vec<_>>()
            },
        );
        let replay = replay_open_loop_direct(
            &model,
            service_pool(&model, &quantizer, 320, 448),
            TokenScheduler::new(4),
            cfg,
            schedule.clone(),
            &[(3, 9)],
        );

        let parked = results
            .iter()
            .find(|r| r.id == 9)
            .expect("handle 9 terminal");
        assert_eq!(parked.end.outcome, RequestOutcome::Cancelled);
        assert!(parked.tokens.is_empty(), "never decoded");
        assert_eq!(parked.end.ttft_iteration, 0);
        assert_eq!(report.stats.cancellations, 0, "engine never saw request 9");
        assert_eq!(report.stats.admitted, 3, "only the three real arrivals");
        assert_eq!(report.stats, replay.stats);
        for res in results.iter().filter(|r| r.id != 9) {
            assert_eq!(res.end.outcome, RequestOutcome::Finished);
            assert_eq!(
                res.tokens,
                replay.timing_for(res.id).tokens,
                "request {}",
                res.id
            );
            assert_eq!(
                res.token_clocks,
                replay.timing_for(res.id).token_clocks,
                "request {}",
                res.id
            );
        }
        assert!(report.drained_empty(), "{:?}", report.drain);
    });
}
