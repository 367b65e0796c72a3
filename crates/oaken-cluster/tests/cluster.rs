//! Cluster acceptance suite: the disaggregated cluster must produce
//! **bit-identical token streams** to a monolithic engine (and to the
//! service-clock direct replay) at every replica count, routing policy,
//! and transfer cost — timing is allowed to move, bits are not — and the
//! affinity router must never reuse fewer prefix tokens than round-robin
//! on the same schedule.

#[path = "../../oaken-serving/tests/support/mod.rs"]
mod support;

use oaken_cluster::{
    run_cluster, run_monolithic, ClusterConfig, ClusterReport, EngineRole, RouterPolicy,
};
use oaken_core::KvQuantizer;
use oaken_model::{Model, ModelConfig, PagedKvPool, PoolError};
use oaken_service::workload::replay_open_loop_direct;
use oaken_serving::{
    EngineConfig, EngineRequest, PreemptPolicy, RequestFailure, RequestOutcome, TokenScheduler,
};
use proptest::prelude::*;
use std::sync::Arc;
use support::{service_pool as pool, *};

/// The cluster shape of a matrix point: the thread count and the policy
/// are each scenario's own, the kernel and the rank count the point's.
fn engine_config(point: EngineConfig, threads: usize, preempt: PreemptPolicy) -> EngineConfig {
    EngineConfig {
        preempt,
        num_threads: threads,
        ..service_config(point)
    }
}

/// A prompt in family `f`: families share nothing across them (distinct
/// token ranges), while members of one family share their whole prefix.
fn family_prompt(f: u64, len: usize) -> Vec<u32> {
    (0..len as u32)
        .map(|i| (f as u32 * 61 + i * 3) % 256)
        .collect()
}

fn cluster_cfg(engine: EngineConfig) -> ClusterConfig {
    ClusterConfig {
        work_tokens_per_tick: 8,
        scheduler_cores: 4,
        ..ClusterConfig::new(engine)
    }
}

/// Runs the same schedule through the cluster, the monolithic
/// comparator, and the bare-engine service replay; asserts all three
/// produce identical per-request token streams and outcomes.
fn assert_bit_exact(
    model: &Model,
    quantizer: &Arc<dyn KvQuantizer>,
    cfg: &ClusterConfig,
    pages: u32,
    schedule: &[(EngineRequest, u64)],
) -> (ClusterReport, ClusterReport) {
    let mut mk = |_role: EngineRole, _r: usize| pool(model, quantizer, pages, pages);
    let cluster = run_cluster(model, cfg, &mut mk, schedule.to_vec(), &[]);
    let mono = run_monolithic(model, cfg, &mut mk, schedule.to_vec(), &[]);
    let direct = replay_open_loop_direct(
        model,
        pool(model, quantizer, pages, pages),
        TokenScheduler::new(cfg.scheduler_cores),
        cfg.engine,
        schedule.to_vec(),
        &[],
    );
    assert_eq!(cluster.requests.len(), schedule.len());
    assert_eq!(mono.requests.len(), schedule.len());
    for (req, _) in schedule {
        let c = cluster.request(req.id);
        let m = mono.request(req.id);
        let d = direct.timing_for(req.id);
        assert_eq!(c.tokens, m.tokens, "cluster vs monolithic, id {}", req.id);
        assert_eq!(
            c.tokens, d.tokens,
            "cluster vs direct replay, id {}",
            req.id
        );
        assert_eq!(c.outcome, RequestOutcome::Finished);
        assert_eq!(c.tokens.len(), req.max_new_tokens);
    }
    (cluster, mono)
}

#[test]
fn cluster_token_streams_match_monolithic_and_direct_replay() {
    let model = tiny_model();
    let q = profiled_oaken(&model);
    for_each_point(
        |point| engine_config(point, 2, PreemptPolicy::SwapToHost),
        |engine| {
            let mut cfg = cluster_cfg(engine);
            cfg.replicas = 2;
            cfg.router = RouterPolicy::Affinity;
            cfg.transfer_bytes_per_tick = 64;
            // Two prefix families plus a singleton, staggered arrivals, one
            // single-token request (must not be disaggregated).
            let schedule = vec![
                (EngineRequest::new(1, family_prompt(1, 24), 5), 0),
                (EngineRequest::new(2, family_prompt(2, 17), 4), 3),
                (EngineRequest::new(3, family_prompt(1, 29), 6), 14),
                (EngineRequest::new(4, family_prompt(3, 9), 1), 15),
                (EngineRequest::new(5, family_prompt(2, 21), 3), 22),
            ];
            let (cluster, mono) = assert_bit_exact(&model, &q, &cfg, 320, &schedule);

            // Four requests took the disaggregated path; the 1-token request ran
            // wholly on its prefill engine.
            assert_eq!(cluster.transfer.transfers, 4);
            assert!(cluster.transfer.wire_bytes > 0);
            assert!(cluster.request(4).ttft().is_some());
            assert!(!cluster.request(4).disaggregated);
            assert!(cluster.request(1).disaggregated);
            let exported: u64 = cluster.prefill_stats.iter().map(|s| s.exports).sum();
            let imported: u64 = cluster.decode_stats.iter().map(|s| s.imports).sum();
            assert_eq!(exported, 4);
            assert_eq!(imported, 4);
            // The monolithic comparator never touched a link.
            assert_eq!(mono.transfer.transfers, 0);
            assert!(mono.decode_stats.is_empty());
        },
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole determinism property: any (replicas, policy,
    /// transfer cost, threads, preempt) cluster generates the same
    /// per-request token bits as the monolithic engine and the direct
    /// service replay of the same schedule.
    #[test]
    fn cluster_is_bit_exact_with_monolithic_at_any_config(
        replicas in 1usize..5,
        threads in prop::sample::select(vec![1usize, 2]),
        swap in any::<bool>(),
        policy in prop::sample::select(vec![
            RouterPolicy::Affinity,
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastLoaded,
        ]),
        bytes_per_tick in prop::sample::select(vec![0u64, 16, 400]),
        work in prop::sample::select(vec![1u64, 8, 64]),
        reqs in prop::collection::vec((1u64..5, 6usize..31, 1usize..7, 0u64..31), 2..7),
        point in matrix_point(),
    ) {
        let model = tiny_model();
        let q = profiled_oaken(&model);
        let preempt = if swap { PreemptPolicy::SwapToHost } else { PreemptPolicy::RestartRecompute };
        let mut cfg = cluster_cfg(engine_config(point, threads, preempt));
        cfg.replicas = replicas;
        cfg.router = policy;
        cfg.transfer_bytes_per_tick = bytes_per_tick;
        cfg.work_tokens_per_tick = work;
        let schedule: Vec<(EngineRequest, u64)> = reqs
            .iter()
            .enumerate()
            .map(|(i, &(fam, len, max_new, arrival))| {
                (EngineRequest::new(i as u64 + 1, family_prompt(fam, len), max_new), arrival)
            })
            .collect();
        assert_bit_exact(&model, &q, &cfg, 320, &schedule);
    }

    /// The routing property: on disjoint prefix families arriving close
    /// enough to overlap in flight (trie blocks live only while
    /// referenced), affinity placement never adopts fewer prefix tokens
    /// than round-robin placement of the same schedule.
    #[test]
    fn affinity_never_reuses_fewer_tokens_than_round_robin(
        replicas in 2usize..4,
        fams in prop::collection::vec((1u64..4, 16usize..33), 4..9),
        point in matrix_point(),
    ) {
        let model = tiny_model();
        let q = profiled_oaken(&model);
        let schedule: Vec<(EngineRequest, u64)> = fams
            .iter()
            .enumerate()
            .map(|(i, &(fam, len))| {
                (EngineRequest::new(i as u64 + 1, family_prompt(fam, len), 3), i as u64 * 2)
            })
            .collect();
        let reuse = |policy: RouterPolicy| {
            let engine = engine_config(point, 1, PreemptPolicy::SwapToHost);
            let mut cfg = cluster_cfg(engine);
            cfg.replicas = replicas;
            cfg.router = policy;
            let mut mk = |_role: EngineRole, _r: usize| pool(&model, &q, 320, 448);
            run_cluster(&model, &cfg, &mut mk, schedule.clone(), &[]).tokens_reused()
        };
        let affinity = reuse(RouterPolicy::Affinity);
        let round_robin = reuse(RouterPolicy::RoundRobin);
        prop_assert!(
            affinity >= round_robin,
            "affinity reused {affinity} < round-robin {round_robin}"
        );
    }
}

/// Satellite: the fixed 3-replica, 2-prefix-family acceptance run with
/// pinned placement decisions.
#[test]
fn three_replica_two_family_placements_are_pinned() {
    let model = tiny_model();
    let q = profiled_oaken(&model);
    for_each_point(
        |point| engine_config(point, 1, PreemptPolicy::SwapToHost),
        |engine| {
            let mut cfg = cluster_cfg(engine);
            cfg.replicas = 3;
            cfg.router = RouterPolicy::Affinity;
            // Trie blocks live only while some sequence references them, so
            // prefix families must *overlap in flight* to be routable — the
            // realistic shape of a shared system prompt under load. Heads of
            // families A and B arrive together; followers arrive while their
            // predecessor is still prefilling (with an 8-token budget and
            // 8 tokens of work per tick, a 24-token head has sealed its two
            // shared blocks — 16 tokens — by tick 2 and is still live).
            let schedule = vec![
                (EngineRequest::new(1, family_prompt(10, 24), 4), 0), // A head
                (EngineRequest::new(2, family_prompt(20, 24), 4), 0), // B head
                (EngineRequest::new(3, family_prompt(10, 32), 4), 2), // A follower
                (EngineRequest::new(4, family_prompt(20, 32), 4), 2), // B follower
                (EngineRequest::new(5, family_prompt(10, 40), 4), 5), // A follower
                (EngineRequest::new(6, family_prompt(20, 40), 4), 5), // B follower
            ];
            let mut mk = |_role: EngineRole, _r: usize| pool(&model, &q, 320, 448);
            let report = run_cluster(&model, &cfg, &mut mk, schedule, &[]);

            let placements: Vec<(u64, usize, bool)> = report
                .requests
                .iter()
                .map(|r| (r.id, r.replica, r.matched_at_placement > 0))
                .collect();
            assert_eq!(
                placements,
                vec![
                    (1, 0, false), // A head: no match anywhere, least-loaded → 0
                    (2, 1, false), // B head: replica 0 now loaded, least-loaded → 1
                    (3, 0, true),  // A follower: trie match on 0
                    (4, 1, true),  // B follower: trie match on 1
                    (5, 0, true),  // A follower: trie match on 0 (via follower 3)
                    (6, 1, true),  // B follower: trie match on 1 (via follower 4)
                ]
            );
            assert_eq!(report.router.placed, 6);
            assert_eq!(report.router.fallbacks, 2);
            assert_eq!(report.router.affinity_hits, 4);
            // A 24-token head has sealed 2 shared blocks (16 tokens) when its
            // follower arrives; that 32-token follower has sealed the third
            // (24 tokens) when the last one arrives.
            assert_eq!(report.router.matched_tokens, 16 + 16 + 24 + 24);
            assert_eq!(report.tokens_reused(), 16 + 16 + 24 + 24);
        },
    );
}

/// The paper's disaggregation headline: a long prompt arriving mid-decode
/// inflates a monolithic engine's inter-token gaps (chunked prefill and
/// decode share iterations), while the cluster's decode replica keeps a
/// flat cadence.
#[test]
fn disaggregation_keeps_decode_itl_flat_under_prefill_interference() {
    let model = tiny_model();
    let q = profiled_oaken(&model);
    for_each_point(
        |point| engine_config(point, 1, PreemptPolicy::SwapToHost),
        |engine| {
            let mut cfg = cluster_cfg(engine);
            cfg.replicas = 1;
            cfg.work_tokens_per_tick = 4; // iterations feeding many tokens cost many ticks
            let schedule = vec![
                // A short request that should stream at a steady cadence...
                (EngineRequest::new(1, family_prompt(1, 8), 16), 0),
                // ...and a long prompt crashing in mid-decode.
                (EngineRequest::new(2, family_prompt(2, 48), 2), 6),
            ];
            let mut mk = |_role: EngineRole, _r: usize| pool(&model, &q, 320, 448);
            let cluster = run_cluster(&model, &cfg, &mut mk, schedule.clone(), &[]);
            let mono = run_monolithic(&model, &cfg, &mut mk, schedule, &[]);

            assert_eq!(cluster.request(1).tokens, mono.request(1).tokens);
            assert_eq!(cluster.request(2).tokens, mono.request(2).tokens);
            // Steady-state gaps (past the handoff) for the short request.
            let steady = |r: &ClusterReport| r.request(1).itl_gaps().split_off(2);
            let cluster_worst = steady(&cluster).into_iter().max().unwrap();
            let mono_worst = steady(&mono).into_iter().max().unwrap();
            assert!(
                cluster_worst < mono_worst,
                "decode replica worst ITL {cluster_worst} not below monolithic {mono_worst}"
            );
        },
    );
}

/// A slower link delays the handoff gap and accrues wire delay, but the
/// token bits never move.
#[test]
fn slow_link_delays_handoff_but_never_changes_tokens() {
    let model = tiny_model();
    let q = profiled_oaken(&model);
    for_each_point(
        |point| engine_config(point, 1, PreemptPolicy::SwapToHost),
        |engine| {
            let schedule = vec![(EngineRequest::new(1, family_prompt(1, 24), 4), 0)];
            let run_at = |bytes_per_tick: u64| {
                let mut cfg = cluster_cfg(engine);
                cfg.replicas = 1;
                cfg.transfer_bytes_per_tick = bytes_per_tick;
                let mut mk = |_role: EngineRole, _r: usize| pool(&model, &q, 320, 448);
                run_cluster(&model, &cfg, &mut mk, schedule.clone(), &[])
            };
            let fast = run_at(0);
            let slow = run_at(16);
            assert_eq!(fast.request(1).tokens, slow.request(1).tokens);
            assert_eq!(fast.transfer.wire_bytes, slow.transfer.wire_bytes);
            assert!(slow.transfer.delay_ticks > fast.transfer.delay_ticks);
            // The handoff gap (first inter-token gap) carries the wire delay.
            assert!(slow.request(1).itl_gaps()[0] > fast.request(1).itl_gaps()[0]);
            assert_eq!(slow.transfer.retries, 0);
        },
    );
}

/// A decode host tier sized for exactly one frozen transfer bounces
/// colliding deliveries. The chunked prefill budget (8 tokens to the
/// head of the admission queue, minimum 1 to each follower) makes a
/// 24-token head and two 3-token followers finish prefill in the same
/// iteration, so all three exports ride the link together and land on
/// the same tick: the first fills the host tier, the other two bounce
/// and retry the next tick. Nothing is lost, everything finishes.
#[test]
fn full_decode_host_tier_bounces_and_retries_transfers() {
    let model = tiny_model();
    let q = profiled_oaken(&model);
    for_each_point(
        |point| engine_config(point, 1, PreemptPolicy::SwapToHost),
        |engine| {
            let mut cfg = cluster_cfg(engine);
            cfg.replicas = 1;
            cfg.work_tokens_per_tick = 64; // one tick per engine iteration
            let schedule = vec![
                (EngineRequest::new(1, family_prompt(1, 24), 8), 0),
                (EngineRequest::new(2, family_prompt(2, 3), 8), 0),
                (EngineRequest::new(3, family_prompt(3, 3), 8), 0),
            ];
            // Measure the widest transfer's host-page footprint (per rank shard,
            // since the host tier splits evenly across ranks) by running the
            // 24-token request's prefill leg through a probe engine.
            let per_transfer: u32 = {
                let mut probe = oaken_serving::BatchEngine::new(
                    &model,
                    pool(&model, &q, 320, 448),
                    TokenScheduler::new(cfg.scheduler_cores),
                    cfg.engine,
                );
                let mut leg = schedule[0].0.clone();
                leg.max_new_tokens = 1;
                probe.mark_for_export(leg.id);
                probe.submit(leg);
                while probe.step() {}
                let export = probe
                    .take_exports()
                    .pop()
                    .expect("probe produced an export");
                let widest = export
                    .transfers
                    .iter()
                    .map(|t| t.payload().pages_needed(512).unwrap())
                    .max()
                    .expect("at least one rank shard");
                widest * export.transfers.len() as u32
            };
            let mut mk = |role: EngineRole, _r: usize| {
                if role == EngineRole::Decode {
                    pool(&model, &q, 320, per_transfer)
                } else {
                    pool(&model, &q, 320, 448)
                }
            };
            let report = run_cluster(&model, &cfg, &mut mk, schedule, &[]);
            assert!(
                report.transfer.retries > 0,
                "expected at least one bounced delivery"
            );
            assert_eq!(report.transfer.transfers, 3);
            for id in [1, 2, 3] {
                assert_eq!(report.request(id).outcome, RequestOutcome::Finished);
                assert_eq!(report.request(id).tokens.len(), 8);
            }
        },
    );
}

/// Cancels catch requests wherever they live: still schedule-parked
/// (never runs, no record), mid-wire on the link (frozen KV dropped), or
/// decoding on the decode engine (partial stream kept).
#[test]
fn cancels_catch_requests_parked_on_the_wire_and_decoding() {
    let model = tiny_model();
    let q = profiled_oaken(&model);
    for_each_point(
        |point| engine_config(point, 1, PreemptPolicy::SwapToHost),
        |engine| {
            let mut mk = |_role: EngineRole, _r: usize| pool(&model, &q, 320, 448);

            // Fast link: request 1 reaches its decode engine quickly and is
            // cancelled mid-decode; request 2 is cancelled while still
            // schedule-parked and never runs.
            let mut cfg = cluster_cfg(engine);
            cfg.replicas = 1;
            let schedule = vec![
                (EngineRequest::new(1, family_prompt(1, 16), 12), 0),
                (EngineRequest::new(2, family_prompt(2, 16), 4), 500),
            ];
            let report = run_cluster(&model, &cfg, &mut mk, schedule, &[(8, 1), (90, 2)]);
            assert_eq!(report.requests.len(), 1, "parked cancel leaves no record");
            assert_eq!(report.request(1).outcome, RequestOutcome::Cancelled);
            let kept = report.request(1).tokens.len();
            assert!(
                kept > 1 && kept < 12,
                "expected a partial decode stream, kept {kept}"
            );
            assert!(report.request(1).disaggregated);
            assert_eq!(report.decode_stats[0].cancellations, 1);

            // Slow link (2 wire bytes per tick): the export spends hundreds of
            // ticks in flight, so the cancel catches it on the wire — the frozen
            // KV is dropped, only the prefill-leg token survives.
            let mut cfg = cluster_cfg(engine);
            cfg.replicas = 1;
            cfg.transfer_bytes_per_tick = 2;
            let schedule = vec![(EngineRequest::new(1, family_prompt(1, 16), 12), 0)];
            let report = run_cluster(&model, &cfg, &mut mk, schedule, &[(40, 1)]);
            assert_eq!(report.request(1).outcome, RequestOutcome::Cancelled);
            assert_eq!(report.request(1).tokens.len(), 1);
            assert_eq!(report.transfer.transfers, 1);
            assert_eq!(report.decode_stats[0].imports, 0);
        },
    );
}

/// Configuration is a value: cluster defaults are constants, whatever the
/// process environment holds.
#[test]
fn cluster_defaults_are_the_documented_constants() {
    let cfg = ClusterConfig::new(REFERENCE);
    assert_eq!((cfg.replicas, cfg.router), (1, RouterPolicy::Affinity));
    assert_eq!(cfg.transfer_bytes_per_tick, 0);
    assert_eq!((cfg.work_tokens_per_tick, cfg.scheduler_cores), (32, 4));
}

/// An arrival reusing an id already in the run fails typed on a record of
/// its own; the first holder's record, placement and stream are those of
/// the run without the intruder.
#[test]
fn duplicate_id_fails_typed_and_spares_the_first() {
    let model = tiny_model();
    let q = profiled_oaken(&model);
    let mut cfg = cluster_cfg(service_config(BENCHMARKED));
    cfg.replicas = 2;
    let mut mk = |_role: EngineRole, _r: usize| pool(&model, &q, 320, 448);
    let clean = vec![
        (EngineRequest::new(1, family_prompt(1, 24), 6), 0),
        (EngineRequest::new(2, family_prompt(2, 17), 4), 3),
    ];
    let mut dirty = clean.clone();
    dirty.insert(1, (EngineRequest::new(1, family_prompt(3, 9), 5), 2));
    let want = run_cluster(&model, &cfg, &mut mk, clean, &[]);
    let got = run_cluster(&model, &cfg, &mut mk, dirty, &[]);
    assert_eq!(got.requests.len(), 3);
    assert_eq!(got.requests[..2], want.requests[..]);
    let dup = &got.requests[2];
    assert_eq!((dup.id, dup.arrival), (1, 2));
    assert_eq!(dup.outcome, RequestOutcome::Failed(RequestFailure::Invalid));
    assert!(dup.tokens.is_empty());
}

/// The pool factory is outside input: a decode pool whose page cannot
/// hold a token its prefill twin wrote (built here for a narrower
/// geometry, the only way the pool's constructor lets a page get that
/// small) can never land that replica's transfers. The request fails
/// typed with its record intact instead of panicking the run, and every
/// other request finishes.
#[test]
fn too_small_decode_page_fails_that_request_typed() {
    let model = Model::synthetic(ModelConfig::llama2_7b().proxy(2, 64), 7);
    let narrow = ModelConfig::llama2_7b().proxy(2, 8);
    let mut cfg = cluster_cfg(engine_config(REFERENCE, 1, PreemptPolicy::SwapToHost));
    cfg.replicas = 2;
    cfg.router = RouterPolicy::RoundRobin;
    // f32 pools: a token is 4 · head_dim = 32 bytes per head, and replica
    // 1's decode pages hold 24.
    let mut mk = |role: EngineRole, r: usize| {
        if role == EngineRole::Decode && r == 1 {
            PagedKvPool::for_model(&narrow, None, 320, 24)
        } else {
            PagedKvPool::for_model(model.config(), None, 320, 512)
        }
    };
    let schedule = vec![
        (EngineRequest::new(1, family_prompt(1, 12), 5), 0),
        (EngineRequest::new(2, family_prompt(2, 12), 5), 1),
        (EngineRequest::new(3, family_prompt(3, 12), 5), 2),
        // Single-token: runs wholly on replica 1's prefill engine.
        (EngineRequest::new(4, family_prompt(4, 12), 1), 3),
    ];
    let report = run_cluster(&model, &cfg, &mut mk, schedule.clone(), &[]);
    assert_eq!(report.requests.len(), 4);
    // Round-robin puts exactly one handoff on replica 1: request 2.
    let failed = report.request(2);
    assert_eq!((failed.replica, failed.disaggregated), (1, true));
    assert_eq!(
        failed.outcome,
        RequestOutcome::Failed(RequestFailure::Pool(PoolError::TransferExceedsPage {
            bytes: 32,
            page_size: 24,
        }))
    );
    assert_eq!(failed.tokens.len(), 1, "the prefill-leg token survives");
    assert_eq!(report.decode_stats[1].imports, 0);
    for (req, _) in schedule.iter().filter(|(req, _)| req.id != 2) {
        let rec = report.request(req.id);
        assert_eq!(rec.outcome, RequestOutcome::Finished, "id {}", req.id);
        assert_eq!(rec.tokens.len(), req.max_new_tokens);
    }
}
