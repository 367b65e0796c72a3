//! Chaos property tests for the fault-injection harness: random
//! workloads crossed with random deterministic fault plans, thread
//! counts, preemption policies, and deadlines must never panic, never
//! leak a page, always drive every request to a terminal state, and
//! leave every *surviving* request token- and logit-identical to an
//! uninterrupted legacy `Session` run.

mod support;

use oaken_core::KvQuantizer;
use oaken_model::Model;
use oaken_serving::{
    BatchEngine, EngineConfig, EngineRequest, EngineStats, FaultPlan, PreemptPolicy,
    RequestOutcome, TokenScheduler,
};
use proptest::prelude::*;
use std::sync::Arc;
use support::*;

/// The chaos suite's shape of a matrix point.
fn chaos_config(point: EngineConfig) -> EngineConfig {
    EngineConfig {
        record_logits: true,
        ..service_config(point)
    }
}

/// Runs the workload under the fault plan, checking the containment
/// contract at every single iteration, and verifies the survivors
/// against uninterrupted references at the end. `cfg` carries the plan
/// and the deadline. The device holds two of the longest whole sequences
/// and the host twice that, so swap admission overcommits and the chaos
/// also meets preemption.
fn run_chaos(
    model: &Model,
    quantizer: Arc<dyn KvQuantizer>,
    requests: &[(Vec<u32>, usize)],
    cfg: EngineConfig,
) -> EngineStats {
    let longest = requests.iter().map(|(p, n)| p.len() + n).max().unwrap_or(0);
    let device = 2 * seq_pages(model, Some(quantizer.clone()), longest);
    let pool = service_pool(model, &quantizer, device, 2 * device);
    let mut engine = BatchEngine::new(model, pool, TokenScheduler::new(4), cfg);
    for (id, (prompt, max_new)) in requests.iter().enumerate() {
        engine.submit(EngineRequest::new(id as u64, prompt.clone(), *max_new));
    }
    let mut iters = 0u64;
    while engine.step() {
        iters += 1;
        assert!(iters < 20_000, "engine failed to terminate under faults");
        // The books balance after *every* iteration, on *every* rank
        // (one rank off the 2-rank point): free
        // + private + shared pages always sum to the rank's capacity,
        // whatever was injected, torn down, retried, or demoted.
        for (r, rank) in engine.pool().ranks().enumerate() {
            let acct = rank.page_accounting();
            assert_eq!(
                acct.total(),
                rank.capacity_pages(),
                "rank {r} page accounting leaked at iteration {iters}: {acct:?}"
            );
        }
    }

    // Containment: every request reached exactly one terminal state, and
    // every injected fault was absorbed by the engine rather than
    // escaping as a panic or a wedged sequence.
    assert_eq!(engine.finished().len(), requests.len());
    let stats = engine.stats();
    assert_eq!(stats.faults_absorbed, stats.faults_injected);

    // Nothing residual: every rank drained to exactly empty.
    for (r, rank) in engine.pool().ranks().enumerate() {
        let acct = rank.page_accounting();
        assert_eq!(
            acct.free,
            rank.capacity_pages(),
            "rank {r} device pages leaked: {acct:?}"
        );
        assert_eq!(rank.host_pages_used(), 0, "rank {r} host pages leaked");
        assert_eq!(engine.pool().active_seqs(), 0);
        assert_eq!(engine.pool().suspended_seqs(), 0);
    }

    // Survivors are bit-exact with uninterrupted Session runs: faults
    // absorbed around them never perturbed their arithmetic.
    for fin in engine.finished() {
        if fin.outcome != RequestOutcome::Finished {
            continue;
        }
        let (prompt, max_new) = &requests[fin.id as usize];
        let (ref_tokens, ref_logits) =
            reference_decode(model, Some(quantizer.clone()), cfg.kernel, prompt, *max_new);
        assert_eq!(
            fin.generated, ref_tokens,
            "surviving request {}: tokens differ from the uninterrupted run",
            fin.id
        );
        assert_bit_identical(&fin.logits, &ref_logits, &format!("survivor {}", fin.id));
    }
    stats.clone()
}

/// Cases of `chaos_random_workloads_survive_random_fault_plans`, and how
/// many of them preempted: at least one must.
const CHAOS_CASES: u32 = 10;
static PREEMPTING: CaseTally = CaseTally::new();

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CHAOS_CASES))]

    /// The capstone: random workloads x random fault plans x {1, 4}
    /// threads x both preemption policies x optional deadlines.
    #[test]
    fn chaos_random_workloads_survive_random_fault_plans(
        shapes in prop::collection::vec((1usize..10, 1usize..6, 0u32..1000), 1..6),
        seed in any::<u64>(),
        rate in 5u16..150,
        four_threads in any::<bool>(),
        swap in any::<bool>(),
        with_deadline in any::<bool>(),
        deadline_iters in 5u64..60,
        point in matrix_point(),
    ) {
        let deadline = with_deadline.then_some(deadline_iters);
        let model = tiny_model();
        let quantizer = profiled_oaken(&model);
        let requests: Vec<(Vec<u32>, usize)> = shapes
            .iter()
            .map(|&(plen, max_new, salt)| {
                let prompt = (0..plen as u32).map(|i| (salt + i * 13) % 256).collect();
                (prompt, max_new)
            })
            .collect();
        let cfg = EngineConfig {
            preempt: if swap { PreemptPolicy::SwapToHost } else { PreemptPolicy::RestartRecompute },
            num_threads: if four_threads { 4 } else { 1 },
            fault_plan: Some(FaultPlan::new(seed).with_rate_permille(rate)),
            max_iterations: deadline,
            ..chaos_config(point)
        };
        let stats = run_chaos(&model, quantizer, &requests, cfg);
        prop_assert!(
            PREEMPTING.record(stats.preemptions > 0, CHAOS_CASES),
            "none of the {} chaos pools preempted",
            CHAOS_CASES
        );
    }
}

/// The whole chaos contract under one fixed schedule — seed 7, the one
/// CI's `serve --fault-seed 7` smoke replays — on the swap point.
#[test]
fn fixed_seed_fault_schedule_is_contained() {
    let plan = FaultPlan::new(7).with_rate_permille(100);
    let model = tiny_model();
    let quantizer = profiled_oaken(&model);
    let requests: Vec<(Vec<u32>, usize)> = (0..6u32)
        .map(|r| {
            let prompt: Vec<u32> = (0..4 + r % 5).map(|i| (r * 37 + i * 11) % 256).collect();
            (prompt, 3 + (r as usize % 4))
        })
        .collect();
    let cfg = EngineConfig {
        fault_plan: Some(plan),
        ..chaos_config(SWAP)
    };
    run_chaos(&model, quantizer, &requests, cfg);
}

/// A plan so hostile it is mostly failure — 80% of fallible ops fault,
/// long persistent bursts — must still terminate with balanced books;
/// under it most requests die, which is exactly the graceful-degradation
/// contract (fail requests, never the engine).
#[test]
fn pathological_fault_rate_degrades_gracefully() {
    let model = tiny_model();
    let quantizer = profiled_oaken(&model);
    let requests: Vec<(Vec<u32>, usize)> = (0..5u32)
        .map(|r| ((0..6).map(|i| (r * 53 + i * 29) % 256).collect(), 4))
        .collect();
    for_each_point(
        |point| EngineConfig {
            preempt: PreemptPolicy::SwapToHost,
            num_threads: 2,
            fault_plan: Some(FaultPlan::new(99).with_rate_permille(800)),
            max_iterations: Some(200),
            ..chaos_config(point)
        },
        |cfg| {
            let injected = run_chaos(&model, quantizer.clone(), &requests, cfg).faults_injected;
            assert!(injected > 0, "an 80% rate must actually inject");
        },
    );
}
