//! Cluster-scaling benchmark: the disaggregated prefill/decode cluster
//! (`oaken-cluster`) swept over replica count, transfer-link bandwidth,
//! and prefix overlap — the measured counterpart of the committed
//! `BENCH_cluster.json` baseline. Every latency in this bench is a
//! service-clock tick count (an exact function of the schedule and the
//! config), so the asserted claims carry zero timer noise; only the
//! wall-clock tokens/sec column rides the host.
//!
//! Four sweeps:
//!
//! 1. **Replica sweep** — a 3-family shared-prefix schedule at 1/2/4
//!    replicas under the affinity router, each point checked token-exact
//!    against the monolithic comparator run of the same schedule (the
//!    cluster determinism contract, asserted before anything is
//!    reported). TTFT/ITL percentiles, prefix reuse, and wire traffic
//!    per replica count.
//! 2. **Transfer-cost sweep** — the 2-replica point re-run from an
//!    instantaneous link down to a few wire bytes per tick: token
//!    streams must not move (only timing may), wire delay and the
//!    handoff-spanning first inter-token gap must grow as bandwidth
//!    shrinks.
//! 3. **Overlap × router sweep** — affinity vs round-robin placement at
//!    0%/50%/100% prompt overlap on 2 replicas. Affinity must never
//!    reuse fewer prompt tokens than round-robin, must reuse strictly
//!    more once families actually overlap (≥50%), and at full overlap
//!    its mean TTFT must not be worse — the routing headline.
//! 4. **Interference sweep** — steady decoders co-scheduled with
//!    long-prompt arrivals, monolithic vs disaggregated at equal total
//!    pages: chunked prefill inflates the monolithic engine's
//!    steady-state inter-token gaps (the iteration fed prompt chunks
//!    *and* decodes, so it costs more ticks), while the cluster's decode
//!    engine never sees a prompt chunk. The steady decoders' worst
//!    decode-phase gap must be strictly smaller on the cluster — the
//!    disaggregation headline.
//!
//! Usage: `cargo run --release -p oaken-bench --bin cluster_scaling
//! [--smoke] [out.json]` — `--smoke` shrinks the model and the sweeps
//! (CI wiring) but keeps every determinism and headline assertion; the
//! default workload writes the committed baseline.

use oaken_bench::{banner, f, row};
use oaken_cluster::{
    run_cluster, run_monolithic, ClusterConfig, ClusterReport, EngineRole, RouterPolicy,
};
use oaken_core::{KvQuantizer, OakenConfig};
use oaken_eval::harness::profile_oaken;
use oaken_model::{KernelMode, Model, ModelConfig, PagedKvPool};
use oaken_serving::{
    AdmissionPolicy, EngineConfig, EngineRequest, PreemptPolicy, Request, RequestOutcome,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct Workload {
    model: Model,
    quantizer: Arc<dyn KvQuantizer>,
    device_pages: u32,
    host_pages: u32,
    page_size: usize,
    /// Main schedule shape: requests, families, prompt/output lengths,
    /// inter-arrival gap in ticks.
    requests: usize,
    families: u64,
    prompt_len: usize,
    max_new: usize,
    arrival_gap: u64,
    replica_sweep: Vec<usize>,
    /// Link bandwidths for the transfer-cost sweep, fastest first.
    transfer_sweep: Vec<u64>,
    overlap_sweep: Vec<usize>,
    /// Interference sweep: steady `(prompt, output)` decoders at tick 0
    /// plus long-prompt `(prompt, output)` arrivals at later ticks.
    steady_shape: (usize, usize),
    steady_count: usize,
    interferer_shape: (usize, usize),
    interferer_arrivals: Vec<u64>,
}

fn workload(smoke: bool) -> Workload {
    if smoke {
        let model = Model::synthetic(ModelConfig::llama2_7b().proxy(2, 32), 11);
        let quantizer = Arc::new(profile_oaken(&model, OakenConfig::default(), 4, 8, 11));
        Workload {
            model,
            quantizer,
            device_pages: 320,
            host_pages: 448,
            page_size: 512,
            requests: 6,
            families: 3,
            prompt_len: 24,
            max_new: 3,
            arrival_gap: 2,
            replica_sweep: vec![1, 2],
            transfer_sweep: vec![0, 16],
            overlap_sweep: vec![0, 100],
            steady_shape: (8, 16),
            steady_count: 1,
            interferer_shape: (48, 2),
            interferer_arrivals: vec![6],
        }
    } else {
        let model = Model::synthetic(ModelConfig::llama2_7b().proxy(2, 256), 11);
        let quantizer = Arc::new(profile_oaken(&model, OakenConfig::default(), 4, 8, 11));
        Workload {
            model,
            quantizer,
            device_pages: 1024,
            host_pages: 1024,
            page_size: 4096,
            requests: 12,
            families: 3,
            prompt_len: 32,
            max_new: 8,
            arrival_gap: 3,
            replica_sweep: vec![1, 2, 4],
            transfer_sweep: vec![0, 128, 8],
            overlap_sweep: vec![0, 50, 100],
            steady_shape: (8, 24),
            steady_count: 2,
            interferer_shape: (64, 2),
            interferer_arrivals: vec![6, 16],
        }
    }
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        max_batch: 4,
        admission: AdmissionPolicy::PromptOnly,
        preempt: PreemptPolicy::SwapToHost,
        record_logits: false,
        prefill_token_budget: 8,
        num_threads: 1,
        num_ranks: 1,
        kernel: KernelMode::Exact,
        ..EngineConfig::default()
    }
}

fn cluster_config(_w: &Workload) -> ClusterConfig {
    ClusterConfig {
        replicas: 1,
        router: RouterPolicy::Affinity,
        transfer_bytes_per_tick: 0,
        work_tokens_per_tick: 8,
        scheduler_cores: 4,
        engine: engine_config(),
    }
}

fn make_pool(w: &Workload) -> PagedKvPool {
    let mut pool = PagedKvPool::for_model(
        w.model.config(),
        Some(w.quantizer.clone()),
        w.device_pages,
        w.page_size,
    );
    pool.set_host_pages(w.host_pages);
    pool.set_block_tokens(8);
    pool
}

/// The main schedule: `requests` arrivals `arrival_gap` ticks apart,
/// consecutive pairs drawn from the same prefix family (seeded per
/// family), so family members overlap in flight — the window in which
/// the prefill trie can actually be shared.
fn family_schedule(w: &Workload, overlap_pct: usize) -> Vec<(EngineRequest, u64)> {
    let shared = w.prompt_len * overlap_pct / 100;
    (0..w.requests)
        .map(|i| {
            let fam = (i as u64 / 2) % w.families;
            let req = EngineRequest::from_lengths_with_shared_prefix(
                &Request {
                    id: i as u64 + 1,
                    input_len: w.prompt_len,
                    output_len: w.max_new,
                },
                256,
                0xBEEF + fam * 0x1000,
                shared,
            );
            (req, i as u64 * w.arrival_gap)
        })
        .collect()
}

/// `q`-th percentile (nearest-rank) of unsorted tick samples.
fn pct(samples: &[u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn mean(samples: &[u64]) -> f64 {
    samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64
}

fn decode_tokens(report: &ClusterReport) -> u64 {
    report
        .prefill_stats
        .iter()
        .chain(&report.decode_stats)
        .map(|s| s.decode_tokens)
        .sum()
}

/// Asserts the cluster determinism contract: every request finished with
/// its full output, token for token identical to `baseline`.
fn assert_streams_match(report: &ClusterReport, baseline: &ClusterReport, what: &str) {
    assert_eq!(report.requests.len(), baseline.requests.len());
    for rec in &report.requests {
        let base = baseline.request(rec.id);
        assert_eq!(
            rec.outcome,
            RequestOutcome::Finished,
            "{what}: request {}",
            rec.id
        );
        assert_eq!(
            rec.tokens, base.tokens,
            "{what}: request {} token stream diverged",
            rec.id
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_cluster.json".to_owned());
    let w = workload(smoke);

    banner(
        "cluster_scaling",
        "disaggregated prefill/decode cluster with prefix-affinity routing",
    );
    println!(
        "model: {} ({} layers, d={}), {} requests of {}:{} tokens in {} families\n",
        w.model.config().name,
        w.model.config().num_layers,
        w.model.config().d_model,
        w.requests,
        w.prompt_len,
        w.max_new,
        w.families,
    );

    let mut json = String::from("{\n  \"bench\": \"cluster_scaling\",\n");
    let _ = writeln!(
        json,
        "  \"model\": \"{}\",\n  \"requests\": {},\n  \"families\": {},\n  \"smoke\": {smoke},",
        w.model.config().name,
        w.requests,
        w.families
    );

    // --- Replica sweep (affinity router, 50% overlap, modeled link) ------
    let schedule = family_schedule(&w, 50);
    let mono = {
        let cfg = cluster_config(&w);
        let mut mk = |_role: EngineRole, _r: usize| make_pool(&w);
        run_monolithic(&w.model, &cfg, &mut mk, schedule.clone(), &[])
    };
    let mono_ttft = mono.ttft_samples();
    let mono_itl = mono.itl_samples(false);
    println!(
        "replica sweep (affinity router, 50% overlap, link 64 B/tick; monolithic clock {}):",
        mono.clock
    );
    let rwidths = [9, 10, 8, 14, 10, 12, 11, 11];
    row(
        &[
            &"replicas",
            &"tok/s",
            &"clock",
            &"ttft p50/p99",
            &"itl p99",
            &"reused_tok",
            &"transfers",
            &"wire_B",
        ],
        &rwidths,
    );
    json.push_str("  \"replica_sweep\": [\n");
    for (i, &replicas) in w.replica_sweep.iter().enumerate() {
        let mut cfg = cluster_config(&w);
        cfg.replicas = replicas;
        cfg.transfer_bytes_per_tick = 64;
        let mut mk = |_role: EngineRole, _r: usize| make_pool(&w);
        let start = Instant::now();
        let report = run_cluster(&w.model, &cfg, &mut mk, schedule.clone(), &[]);
        let secs = start.elapsed().as_secs_f64();
        assert_streams_match(&report, &mono, &format!("{replicas} replicas"));
        let ttft = report.ttft_samples();
        let itl = report.itl_samples(true);
        row(
            &[
                &replicas,
                &f(decode_tokens(&report) as f64 / secs.max(1e-9), 1),
                &report.clock,
                &format!("{}/{}", pct(&ttft, 0.50), pct(&ttft, 0.99)),
                &pct(&itl, 0.99),
                &report.tokens_reused(),
                &report.transfer.transfers,
                &report.transfer.wire_bytes,
            ],
            &rwidths,
        );
        let _ = write!(
            json,
            "    {{\"replicas\": {replicas}, \"clock\": {}, \"ttft_ticks\": {{\"p50\": {}, \"p99\": {}}}, \
             \"decode_itl_p99_ticks\": {}, \"tokens_reused\": {}, \"transfers\": {}, \
             \"wire_bytes\": {}, \"affinity_hits\": {}, \"matches_monolithic\": true}}",
            report.clock,
            pct(&ttft, 0.50),
            pct(&ttft, 0.99),
            pct(&itl, 0.99),
            report.tokens_reused(),
            report.transfer.transfers,
            report.transfer.wire_bytes,
            report.router.affinity_hits,
        );
        json.push_str(if i + 1 < w.replica_sweep.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"monolithic\": {{\"clock\": {}, \"ttft_ticks\": {{\"p50\": {}, \"p99\": {}}}, \
         \"itl_p99_ticks\": {}, \"tokens_reused\": {}}},",
        mono.clock,
        pct(&mono_ttft, 0.50),
        pct(&mono_ttft, 0.99),
        pct(&mono_itl, 0.99),
        mono.tokens_reused(),
    );

    // --- Transfer-cost sweep (2 replicas where available) -----------------
    let replicas = if smoke { 1 } else { 2 };
    println!("\ntransfer-cost sweep ({replicas} replicas, 50% overlap):");
    let twidths = [10, 8, 12, 12, 13, 9];
    row(
        &[
            &"B/tick",
            &"clock",
            &"wire_B",
            &"delay_ticks",
            &"handoff_gap",
            &"retries",
        ],
        &twidths,
    );
    json.push_str("  \"transfer_sweep\": [\n");
    let mut delay_by_cost = Vec::new();
    let mut first_streams: Option<ClusterReport> = None;
    for (i, &bpt) in w.transfer_sweep.iter().enumerate() {
        let mut cfg = cluster_config(&w);
        cfg.replicas = replicas;
        cfg.transfer_bytes_per_tick = bpt;
        let mut mk = |_role: EngineRole, _r: usize| make_pool(&w);
        let report = run_cluster(&w.model, &cfg, &mut mk, schedule.clone(), &[]);
        if let Some(first) = &first_streams {
            assert_streams_match(&report, first, &format!("link {bpt} B/tick"));
        }
        // Mean first inter-token gap: the handoff (export, wire, ingest).
        let handoff: Vec<u64> = report
            .requests
            .iter()
            .filter(|r| r.disaggregated)
            .filter_map(|r| r.itl_gaps().first().copied())
            .collect();
        delay_by_cost.push(report.transfer.delay_ticks);
        row(
            &[
                &(if bpt == 0 {
                    "inf".to_owned()
                } else {
                    bpt.to_string()
                }),
                &report.clock,
                &report.transfer.wire_bytes,
                &report.transfer.delay_ticks,
                &f(mean(&handoff), 1),
                &report.transfer.retries,
            ],
            &twidths,
        );
        let _ = write!(
            json,
            "    {{\"bytes_per_tick\": {bpt}, \"clock\": {}, \"wire_bytes\": {}, \
             \"delay_ticks\": {}, \"mean_handoff_gap_ticks\": {:.1}, \"retries\": {}}}",
            report.clock,
            report.transfer.wire_bytes,
            report.transfer.delay_ticks,
            mean(&handoff),
            report.transfer.retries,
        );
        json.push_str(if i + 1 < w.transfer_sweep.len() {
            ",\n"
        } else {
            "\n"
        });
        if first_streams.is_none() {
            first_streams = Some(report);
        }
    }
    json.push_str("  ],\n");
    assert!(
        delay_by_cost.windows(2).all(|w| w[1] > w[0]),
        "wire delay must grow as bandwidth shrinks: {delay_by_cost:?}"
    );

    // --- Overlap × router sweep (2 replicas) ------------------------------
    let replicas = 2;
    println!("\noverlap x router sweep ({replicas} replicas, instantaneous link):");
    let owidths = [9, 10, 12, 11, 12, 11];
    row(
        &[
            &"overlap",
            &"router",
            &"reused_tok",
            &"mean_ttft",
            &"aff_hits",
            &"fallbacks",
        ],
        &owidths,
    );
    json.push_str("  \"overlap_sweep\": [\n");
    let mut reused = Vec::new(); // (pct, affinity, round_robin)
    let mut ttfts = Vec::new();
    for (i, &pct_overlap) in w.overlap_sweep.iter().enumerate() {
        let sched = family_schedule(&w, pct_overlap);
        let mut per_policy = Vec::new();
        for (j, (name, policy)) in [
            ("affinity", RouterPolicy::Affinity),
            ("rr", RouterPolicy::RoundRobin),
        ]
        .into_iter()
        .enumerate()
        {
            let mut cfg = cluster_config(&w);
            cfg.replicas = replicas;
            cfg.router = policy;
            let mut mk = |_role: EngineRole, _r: usize| make_pool(&w);
            let report = run_cluster(&w.model, &cfg, &mut mk, sched.clone(), &[]);
            let ttft = mean(&report.ttft_samples());
            per_policy.push((report.tokens_reused(), ttft));
            row(
                &[
                    &format!("{pct_overlap}%"),
                    &name,
                    &report.tokens_reused(),
                    &f(ttft, 1),
                    &report.router.affinity_hits,
                    &report.router.fallbacks,
                ],
                &owidths,
            );
            let _ = write!(
                json,
                "    {{\"overlap_pct\": {pct_overlap}, \"router\": \"{name}\", \
                 \"tokens_reused\": {}, \"mean_ttft_ticks\": {ttft:.1}, \
                 \"affinity_hits\": {}, \"fallbacks\": {}}}",
                report.tokens_reused(),
                report.router.affinity_hits,
                report.router.fallbacks,
            );
            let last = i + 1 == w.overlap_sweep.len() && j == 1;
            json.push_str(if last { "\n" } else { ",\n" });
        }
        reused.push((pct_overlap, per_policy[0].0, per_policy[1].0));
        ttfts.push((pct_overlap, per_policy[0].1, per_policy[1].1));
    }
    json.push_str("  ],\n");
    for &(pct_overlap, aff, rr) in &reused {
        assert!(
            aff >= rr,
            "affinity must never reuse fewer tokens than round-robin at {pct_overlap}%: {aff} vs {rr}"
        );
        if pct_overlap >= 50 {
            assert!(
                aff > rr,
                "affinity must reuse strictly more once families overlap ({pct_overlap}%): {aff} vs {rr}"
            );
        }
    }
    let &(_, aff_ttft, rr_ttft) = ttfts.last().expect("overlap sweep ran");
    assert!(
        aff_ttft <= rr_ttft,
        "at full overlap affinity mean TTFT must not be worse: {aff_ttft:.1} vs {rr_ttft:.1}"
    );

    // --- Interference sweep (disaggregation headline) ---------------------
    let (sp, so) = w.steady_shape;
    let (ip, io) = w.interferer_shape;
    let mut sched: Vec<(EngineRequest, u64)> = (0..w.steady_count)
        .map(|i| {
            let req = EngineRequest::from_lengths(
                &Request {
                    id: 100 + i as u64,
                    input_len: sp,
                    output_len: so,
                },
                256,
                0xBEEF,
            );
            (req, 0)
        })
        .collect();
    for (i, &at) in w.interferer_arrivals.iter().enumerate() {
        let req = EngineRequest::from_lengths(
            &Request {
                id: 200 + i as u64,
                input_len: ip,
                output_len: io,
            },
            256,
            0xFEED,
        );
        sched.push((req, at));
    }
    let run_itl = |disaggregate: bool| -> (ClusterReport, u64) {
        let mut cfg = cluster_config(&w);
        cfg.work_tokens_per_tick = 4;
        let mut mk = |_role: EngineRole, _r: usize| make_pool(&w);
        let report = if disaggregate {
            run_cluster(&w.model, &cfg, &mut mk, sched.clone(), &[])
        } else {
            run_monolithic(&w.model, &cfg, &mut mk, sched.clone(), &[])
        };
        // Steady decoders' worst decode-phase gap, past the warmup (the
        // first two gaps cover handoff and ramp on either topology).
        let worst = (0..w.steady_count)
            .map(|i| {
                report
                    .request(100 + i as u64)
                    .itl_gaps()
                    .into_iter()
                    .skip(2)
                    .max()
                    .expect("steady decoder produced gaps")
            })
            .max()
            .expect("at least one steady decoder");
        (report, worst)
    };
    let (mono_i, mono_worst) = run_itl(false);
    let (cluster_i, cluster_worst) = run_itl(true);
    for i in 0..w.steady_count {
        let id = 100 + i as u64;
        assert_eq!(
            cluster_i.request(id).tokens,
            mono_i.request(id).tokens,
            "steady decoder {id} stream diverged between topologies"
        );
    }
    println!(
        "\ninterference sweep ({} steady {sp}:{so} decoders vs {} arriving {ip}-token prompts):",
        w.steady_count,
        w.interferer_arrivals.len()
    );
    println!(
        "  monolithic worst steady gap: {mono_worst} ticks (clock {})",
        mono_i.clock
    );
    println!(
        "  cluster    worst steady gap: {cluster_worst} ticks (clock {})",
        cluster_i.clock
    );
    let _ = writeln!(
        json,
        "  \"interference\": {{\"steady\": {}, \"interferers\": {}, \
         \"monolithic_worst_steady_gap_ticks\": {mono_worst}, \
         \"cluster_worst_steady_gap_ticks\": {cluster_worst}, \
         \"monolithic_clock\": {}, \"cluster_clock\": {}}}",
        w.steady_count,
        w.interferer_arrivals.len(),
        mono_i.clock,
        cluster_i.clock,
    );
    assert!(
        cluster_worst < mono_worst,
        "disaggregation must flatten the steady decoders' worst gap: cluster {cluster_worst} vs monolithic {mono_worst}"
    );

    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("\nwrote {out_path}");
}
