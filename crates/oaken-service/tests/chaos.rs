//! Chaos × service interaction: an armed deterministic fault plan, an
//! open-loop arrival schedule, and an iteration deadline all at once,
//! through the concurrent service frontend. The containment contract
//! from the engine's chaos suite must survive the service layer intact:
//! every injected fault is absorbed (failed requests, never a wedged
//! engine), every handle reaches a terminal state, survivors stream
//! bit-exact with both the direct replay *and* an uninterrupted
//! `Session` decode, and the pool drains exactly empty.

#[path = "../../oaken-serving/tests/support/mod.rs"]
mod support;

use oaken_service::{arrival_schedule, replay_open_loop_direct, serve, OpenLoopSpec};
use oaken_serving::{EngineConfig, FaultPlan, PreemptPolicy, RequestOutcome, TokenScheduler};
use proptest::prelude::*;
use support::*;

/// Runs `shapes` on a seeded Poisson schedule under `cfg`, which carries
/// the fault plan and the deadline; returns the faults injected.
fn run_service_chaos(shapes: &[(usize, usize, u32)], cfg: EngineConfig, arrival_seed: u64) -> u64 {
    let model = tiny_model();
    let quantizer = profiled_oaken(&model);
    let arrivals = arrival_schedule(&OpenLoopSpec::poisson(2.0, arrival_seed), shapes.len());
    let schedule: Vec<_> = shapes
        .iter()
        .zip(arrivals)
        .enumerate()
        .map(|(i, (&(plen, max_new, salt), at))| {
            let prompt: Vec<u32> = (0..plen as u32).map(|k| (salt + k * 13) % 256).collect();
            (
                oaken_serving::EngineRequest::new(i as u64, prompt, max_new),
                at,
            )
        })
        .collect();

    let (results, report) = serve(
        &model,
        service_pool(&model, &quantizer, 256, 128),
        TokenScheduler::new(4),
        cfg,
        |client| {
            let handles = client.submit_schedule(schedule.iter().cloned());
            handles.into_iter().map(|h| h.wait()).collect::<Vec<_>>()
        },
    );
    let replay = replay_open_loop_direct(
        &model,
        service_pool(&model, &quantizer, 256, 128),
        TokenScheduler::new(4),
        cfg,
        schedule.clone(),
        &[],
    );

    // Every handle terminal, bit-exact with the direct chaos replay.
    assert_eq!(results.len(), schedule.len());
    for res in &results {
        let direct = replay.finished_for(res.id);
        let timing = replay.timing_for(res.id);
        assert_eq!(res.end.outcome, direct.outcome, "request {}", res.id);
        assert_eq!(res.tokens, timing.tokens, "request {} stream", res.id);
        assert_eq!(
            res.token_clocks, timing.token_clocks,
            "request {} clocks",
            res.id
        );
        // Survivors must match the uninterrupted reference — the fault
        // schedule may not perturb what a surviving request decodes.
        if res.end.outcome == RequestOutcome::Finished {
            let (req, _) = schedule
                .iter()
                .find(|(r, _)| r.id == res.id)
                .expect("scheduled");
            let reference = reference_tokens(
                &model,
                &quantizer,
                cfg.kernel,
                &req.prompt,
                req.max_new_tokens,
            );
            assert_eq!(res.tokens, reference, "survivor {} != Session", res.id);
        }
    }

    // Containment: injected faults are absorbed, terminal accounting
    // balances, and nothing leaks.
    let s = &report.stats;
    assert_eq!(
        s.faults_absorbed, s.faults_injected,
        "every injected fault must be absorbed"
    );
    assert_eq!(
        s.retired + s.failed + s.cancellations + s.deadline_kills,
        schedule.len() as u64,
        "terminal accounting must balance: {s:?}"
    );
    assert_eq!(*s, replay.stats, "service stats == direct replay stats");
    assert!(report.drained_empty(), "residue: {:?}", report.drain);
    s.faults_injected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random workloads × random fault plans × open-loop arrivals ×
    /// optional deadlines, through the service.
    #[test]
    fn chaos_open_loop_service_is_contained(
        shapes in prop::collection::vec((1usize..10, 1usize..6, 0u32..1000), 1..6),
        seed in any::<u64>(),
        rate in 5u16..150,
        four_threads in any::<bool>(),
        swap in any::<bool>(),
        with_deadline in any::<bool>(),
        deadline_iters in 5u64..60,
        arrival_seed in any::<u64>(),
        point in matrix_point(),
    ) {
        let cfg = EngineConfig {
            preempt: if swap { PreemptPolicy::SwapToHost } else { PreemptPolicy::RestartRecompute },
            num_threads: if four_threads { 4 } else { 1 },
            fault_plan: Some(FaultPlan::new(seed).with_rate_permille(rate)),
            max_iterations: with_deadline.then_some(deadline_iters),
            ..service_config(point)
        };
        run_service_chaos(&shapes, cfg, arrival_seed);
    }
}

/// The whole service-chaos contract under one fixed hostile schedule —
/// seed 7, the one CI's `serve --fault-seed 7` smoke replays — on the
/// swap point.
#[test]
fn fixed_seed_fault_schedule_is_contained_through_service() {
    let shapes: Vec<(usize, usize, u32)> = (0..6u32)
        .map(|r| (4 + (r as usize % 5), 3 + (r as usize % 4), r * 37))
        .collect();
    let cfg = EngineConfig {
        fault_plan: Some(FaultPlan::new(7).with_rate_permille(100)),
        max_iterations: Some(120),
        ..service_config(SWAP)
    };
    let injected = run_service_chaos(&shapes, cfg, 0xA11CE);
    // The fixed seed at 10% is dense enough to actually fire.
    assert!(injected > 0, "the chaos pass must inject something");
}
