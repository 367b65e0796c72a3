//! Serving-engine demo: replay a (scaled-down) Azure-style trace through
//! the *real* continuous-batching engine — actual token-by-token model
//! execution over the shared paged quantized KV pool, not the analytic
//! simulator — with chunked prefill and copy-on-write prefix sharing.
//!
//! Run with: `cargo run --release --example serve [-- --smoke]
//! [--prefix-overlap <0..100>] [--threads <N>] [--preempt restart|swap]
//! [--host-pages <N>]`
//!
//! The flags below are the only spelling of every setting: nothing here or
//! in the library reads an environment variable.
//!
//! * `--smoke` is the CI wiring: tiny workload, ~2 decode tokens per
//!   request.
//! * `--prefix-overlap P` prepends an identical system prompt covering
//!   `P%` of every request's input — the shared-prompt traffic shape the
//!   prefix trie deduplicates (default 50).
//! * `--threads N` sizes the engine's deterministic fork-join runtime
//!   (default: the machine's available parallelism; `1` reproduces the
//!   single-threaded engine bit for bit).
//! * `--preempt {restart,swap}` picks the preemption policy: `restart`
//!   evicts and recomputes (vLLM-style), `swap` suspends to the host
//!   tier and resumes bit-exactly with zero recompute (default
//!   `restart`).
//! * `--host-pages N` sizes the host swap tier in pages (default: the
//!   device page count; `0` disables swapping entirely).
//! * `--fault-seed N` installs a deterministic fault-injection schedule
//!   seeded with `N` (page-allocation and swap-transfer failures; the
//!   engine absorbs them with retries, demotions, and request-scoped
//!   teardowns). Default: no faults.
//! * `--deadline N` kills any request still in flight `N` iterations
//!   after its first admission (graceful degradation under overload).
//! * `--kernel {exact,fused}` picks the attention read path: `exact`
//!   dequantizes rows to f32 views, `fused` computes scores and weighted
//!   sums directly over the encoded 4-bit + outlier representation
//!   (default `exact`).
//! * `--ranks N` runs the engine tensor-parallel over `N` ranks, each
//!   with a private KV pool shard and a deterministic all-reduce —
//!   logits bit-exact with `--ranks 1` under the exact kernel (default
//!   1).
//! * `--open-loop` drives the workload through the streaming service
//!   frontend (`oaken-service`) on a seeded open-loop arrival schedule
//!   instead of submitting everything up front: per-request token
//!   streams, p50/p95/p99 TTFT and inter-token latency in service-clock
//!   ticks, and an on-line assertion that every stream is bit-identical
//!   to the same schedule replayed directly against the engine.
//! * `--arrival-rate R` sets the open-loop arrival rate in requests per
//!   service-clock tick (default 0.3).
//! * `--burst B` makes the open-loop arrivals bursty: groups of `B`
//!   requests landing together, same long-run rate.
//! * `--replicas N` runs the workload through the disaggregated cluster
//!   (`oaken-cluster`): `N` prefill/decode engine pairs behind the
//!   prefix-affinity router, frozen KV shipped prefill→decode over a
//!   modeled link. Prints the router and transfer counters and checks
//!   every token stream against the monolithic comparator run (default
//!   1; passing the flag engages cluster mode, which ignores
//!   `--open-loop`, `--fault-seed`, and `--deadline`).
//! * `--transfer-cost B` sets the cluster link bandwidth in wire bytes
//!   per service-clock tick (0 = instantaneous; implies cluster mode).

use oaken::cluster::{run_cluster, run_monolithic, ClusterConfig, EngineRole, RouterPolicy};
use oaken::core::OakenConfig;
use oaken::eval::harness::profile_oaken;
use oaken::model::{Model, ModelConfig, PagedKvPool};
use oaken::service::{
    arrival_schedule, replay_open_loop_direct, serve, LatencyRecorder, OpenLoopSpec,
};
use oaken::serving::{
    synthesize_requests, AdmissionPolicy, BatchEngine, EngineConfig, EngineRequest, FaultPlan,
    KernelMode, PreemptPolicy, Request, TokenScheduler, TraceSpec,
};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let overlap_pct: usize = args
        .iter()
        .position(|a| a == "--prefix-overlap")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--prefix-overlap takes 0..100"))
        .unwrap_or(50);
    assert!(overlap_pct <= 100, "--prefix-overlap takes 0..100");
    let num_threads: usize = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--threads takes a positive integer"))
        .unwrap_or_else(oaken::runtime::default_threads);
    assert!(num_threads > 0, "--threads takes a positive integer");
    let preempt = args
        .iter()
        .position(|a| a == "--preempt")
        .and_then(|i| args.get(i + 1))
        .map(|v| match v.as_str() {
            "restart" => PreemptPolicy::RestartRecompute,
            "swap" => PreemptPolicy::SwapToHost,
            other => panic!("--preempt takes restart|swap, got {other:?}"),
        })
        .unwrap_or_default();
    let host_pages: Option<u32> = args
        .iter()
        .position(|a| a == "--host-pages")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--host-pages takes a page count"));
    let fault_plan: Option<FaultPlan> = args
        .iter()
        .position(|a| a == "--fault-seed")
        .and_then(|i| args.get(i + 1))
        .map(|v| FaultPlan::new(v.parse().expect("--fault-seed takes a u64 seed")));
    let deadline: Option<u64> = args
        .iter()
        .position(|a| a == "--deadline")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--deadline takes an iteration count"));
    let kernel = args
        .iter()
        .position(|a| a == "--kernel")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            KernelMode::parse(v).unwrap_or_else(|| panic!("--kernel takes exact|fused, got {v:?}"))
        })
        .unwrap_or_default();
    let num_ranks: usize = args
        .iter()
        .position(|a| a == "--ranks")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--ranks takes a positive integer"))
        .unwrap_or(1);
    assert!(num_ranks > 0, "--ranks takes a positive integer");
    let open_loop = args.iter().any(|a| a == "--open-loop");
    let arrival_rate: f64 = args
        .iter()
        .position(|a| a == "--arrival-rate")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--arrival-rate takes requests per tick"))
        .unwrap_or(0.3);
    assert!(arrival_rate > 0.0, "--arrival-rate takes a positive rate");
    let burst: Option<usize> = args
        .iter()
        .position(|a| a == "--burst")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--burst takes a burst size"));
    let replicas: usize = args
        .iter()
        .position(|a| a == "--replicas")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--replicas takes a positive integer"))
        .unwrap_or(1);
    assert!(replicas > 0, "--replicas takes a positive integer");
    let transfer_cost: Option<u64> = args
        .iter()
        .position(|a| a == "--transfer-cost")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse()
                .expect("--transfer-cost takes wire bytes per tick")
        });
    let cluster_mode = transfer_cost.is_some() || args.iter().any(|a| a == "--replicas");
    let spec = TraceSpec::conversation();

    // A proxy model small enough to execute for real; trace lengths are
    // scaled to its sequence budget (the trace's input:output *ratio* is
    // what Figure 14 exercises, and scaling preserves it).
    let model = Model::synthetic(ModelConfig::llama2_7b().proxy(2, 64), 7);
    let vocab = model.config().vocab_size;
    let (n_requests, scale, max_out) = if smoke { (3, 256, 2) } else { (16, 64, 12) };
    let requests: Vec<EngineRequest> = synthesize_requests(&spec, n_requests, 42)
        .into_iter()
        .map(|r| {
            let scaled = Request {
                id: r.id,
                input_len: (r.input_len / scale).clamp(2, 48),
                output_len: (r.output_len / scale).clamp(1, max_out),
            };
            let shared = scaled.input_len * overlap_pct / 100;
            EngineRequest::from_lengths_with_shared_prefix(&scaled, vocab, 7, shared)
        })
        .collect();

    // Offline phase: profile Oaken's thresholds on this model's own KV
    // distribution (the same observer-hook recipe as the Table 2 harness).
    let quantizer = Arc::new(profile_oaken(&model, OakenConfig::default(), 4, 8, 7));

    // Online phase: the shared paged pool + continuous-batching engine.
    // Prefix sharing is on automatically (Oaken is prefix-deterministic);
    // 8-token blocks suit the scaled-down prompts.
    let pages = if smoke { 512 } else { 2048 };
    // The open-loop path needs two identical pools (one for the live
    // service, one for the direct replay it is checked against), so pool
    // construction is a closure.
    let build_pool = || {
        let mut pool =
            PagedKvPool::for_model(model.config(), Some(quantizer.clone() as _), pages, 1024);
        pool.set_block_tokens(8);
        if let Some(h) = host_pages {
            pool.set_host_pages(h);
        }
        pool
    };
    let pool = build_pool();
    println!(
        "replaying `{}` (scaled 1/{scale}, {overlap_pct}% shared prefix) through the executed engine:",
        spec.name
    );
    println!(
        "  model {} | pool {pages} pages x {} B | host tier {} pages | block {} tokens | {} requests\n  preempt {} | {num_threads} threads | kernel {} | {num_ranks} ranks\n",
        model.config().name,
        pool.page_size(),
        pool.host_capacity_pages(),
        pool.block_tokens(),
        requests.len(),
        match preempt {
            PreemptPolicy::RestartRecompute => "restart-recompute",
            PreemptPolicy::SwapToHost => "swap-to-host",
        },
        kernel.label(),
    );
    let cfg = EngineConfig {
        max_batch: if smoke { 2 } else { 8 },
        admission: AdmissionPolicy::PromptOnly,
        preempt,
        record_logits: false,
        prefill_token_budget: 16,
        num_threads,
        num_ranks,
        fault_plan,
        max_iterations: deadline,
        kernel,
    };

    if cluster_mode {
        run_cluster_mode(
            &model,
            &build_pool,
            cfg,
            requests,
            replicas,
            transfer_cost.unwrap_or(0),
        );
        return;
    }

    if open_loop {
        run_open_loop(
            &model,
            pool,
            build_pool(),
            cfg,
            requests,
            arrival_rate,
            burst,
            &spec,
        );
        return;
    }

    let mut engine = BatchEngine::new(&model, pool, TokenScheduler::new(8), cfg);
    assert_eq!(
        engine.kernel_mode(),
        kernel,
        "Oaken streams support the fused read path"
    );
    for r in requests {
        engine.submit(r);
    }
    let start = Instant::now();
    engine.run();
    let secs = start.elapsed().as_secs_f64();

    let stats = engine.stats().clone();
    println!("{:>22}  {}", "iterations", stats.iterations);
    println!("{:>22}  {}", "admitted", stats.admitted);
    println!("{:>22}  {}", "retired", stats.retired);
    println!("{:>22}  {}", "preemptions", stats.preemptions);
    println!("{:>22}  {}", "admission stalls", stats.admission_stalls);
    println!("{:>22}  {}", "peak concurrent", stats.peak_active);
    println!("{:>22}  {}", "prefill tokens", stats.prefill_tokens);
    println!("{:>22}  {}", "prefill chunks", stats.prefill_chunks);
    println!("{:>22}  {}", "decode tokens", stats.decode_tokens);
    println!("{:>22}  {}", "trie hits", stats.prefix.trie_hits);
    println!("{:>22}  {}", "seal dedups", stats.prefix.seal_dedups);
    println!("{:>22}  {}", "tokens reused", stats.prefix.tokens_reused);
    println!(
        "{:>22}  {}",
        "quant rows skipped", stats.prefix.quant_rows_skipped
    );
    println!(
        "{:>22}  {}",
        "bytes deduplicated", stats.prefix.bytes_deduplicated
    );
    println!("{:>22}  {}", "shared pages peak", stats.shared_pages_peak);
    println!("{:>22}  {}", "pages in use peak", stats.pages_in_use_peak);
    println!("{:>22}  {}", "swap outs", stats.swap_outs);
    println!("{:>22}  {}", "swap ins", stats.swap_ins);
    println!("{:>22}  {}", "swap bytes to host", stats.swap_bytes_to_host);
    println!(
        "{:>22}  {}",
        "swap bytes to device", stats.swap_bytes_to_device
    );
    println!(
        "{:>22}  {:.1} iters",
        "mean resume latency",
        stats.mean_resume_latency()
    );
    println!(
        "{:>22}  {}",
        "recomputed prefill", stats.recomputed_prefill_tokens
    );
    println!("{:>22}  {}", "fused rows read", stats.kv_reads.fused_rows);
    println!(
        "{:>22}  {} B",
        "fused bytes read", stats.kv_reads.fused_bytes
    );
    println!(
        "{:>22}  {}",
        "fused rows swept", stats.kv_reads.fused_rows_swept
    );
    println!("{:>22}  {}", "exact rows read", stats.kv_reads.exact_rows);
    println!(
        "{:>22}  {} B",
        "exact bytes read", stats.kv_reads.exact_bytes
    );
    println!("{:>22}  {}", "engine ranks", stats.num_ranks);
    println!("{:>22}  {}", "all-reduce calls", stats.comm.allreduce_calls);
    println!(
        "{:>22}  {:.1} B/token",
        "all-reduce bytes",
        stats.comm_bytes_per_token()
    );
    println!("{:>22}  {:?}", "per-rank page peaks", stats.rank_page_peaks);
    println!("{:>22}  {}", "faults injected", stats.faults_injected);
    println!("{:>22}  {}", "faults absorbed", stats.faults_absorbed);
    println!("{:>22}  {}", "fault retries", stats.fault_retries);
    println!("{:>22}  {}", "demotions", stats.demotions);
    println!("{:>22}  {}", "deadline kills", stats.deadline_kills);
    println!(
        "{:>22}  {:.2}",
        "mean core util",
        stats.mean_core_utilization()
    );
    println!(
        "{:>22}  {:.1} tok/s",
        "gen throughput",
        stats.decode_tokens as f64 / secs.max(1e-9)
    );

    if let Some(sample) = engine.finished().iter().find(|f| f.completed) {
        println!(
            "\nrequest {}: prompt {} tokens -> {:?} (first token at iteration {})",
            sample.id,
            sample.prompt_len,
            &sample.generated[..sample.generated.len().min(8)],
            sample.ttft_iteration
        );
    }
    // Every request reaches exactly one terminal state; absent faults and
    // deadlines that state is always `Finished`.
    let total = stats.retired + stats.failed + stats.cancellations + stats.deadline_kills;
    assert_eq!(total as usize, engine.finished().len());
    assert_eq!(stats.faults_absorbed, stats.faults_injected);
    if fault_plan.is_none() && deadline.is_none() {
        assert_eq!(stats.retired as usize, engine.finished().len());
        println!("\nall {} requests served to completion.", stats.retired);
    } else {
        println!(
            "\n{} of {} requests served to completion ({} faults absorbed, {} deadline kills).",
            stats.retired,
            engine.finished().len(),
            stats.faults_absorbed,
            stats.deadline_kills
        );
    }
}

/// The `--replicas` path: the scaled trace as an open-loop schedule
/// through the disaggregated cluster — prefill/decode engine pairs
/// behind the prefix-affinity router with frozen-KV handoff over the
/// modeled link — checked token-exact against the monolithic comparator
/// run of the identical schedule.
fn run_cluster_mode(
    model: &Model,
    build_pool: &dyn Fn() -> PagedKvPool,
    mut cfg: EngineConfig,
    requests: Vec<EngineRequest>,
    replicas: usize,
    transfer_cost: u64,
) {
    // Fault injection and deadlines are per-engine knobs; their schedules
    // would differ between the cluster and the comparator, so cluster
    // mode pins both off to keep the bit-exactness check meaningful.
    cfg.fault_plan = None;
    cfg.max_iterations = None;
    let cluster_cfg = ClusterConfig {
        replicas,
        router: RouterPolicy::Affinity,
        transfer_bytes_per_tick: transfer_cost,
        work_tokens_per_tick: 8,
        scheduler_cores: 8,
        engine: cfg,
    };
    let schedule: Vec<(EngineRequest, u64)> = requests
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r, i as u64 * 3))
        .collect();
    println!(
        "cluster mode: {replicas} prefill/decode pair(s) | router {:?} | link {} | arrivals 3 ticks apart\n",
        cluster_cfg.router,
        if transfer_cost == 0 {
            "instantaneous".to_owned()
        } else {
            format!("{transfer_cost} B/tick")
        },
    );

    let start = Instant::now();
    let report = run_cluster(
        model,
        &cluster_cfg,
        &mut |_: EngineRole, _: usize| build_pool(),
        schedule.clone(),
        &[],
    );
    let secs = start.elapsed().as_secs_f64();
    let mono = run_monolithic(
        model,
        &cluster_cfg,
        &mut |_: EngineRole, _: usize| build_pool(),
        schedule,
        &[],
    );
    for rec in &report.requests {
        assert_eq!(
            rec.tokens,
            mono.request(rec.id).tokens,
            "request {}: cluster stream != monolithic comparator",
            rec.id
        );
    }

    let pctl = |samples: &[u64], q: f64| -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64) * q).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    };
    let ttft = report.ttft_samples();
    let mono_ttft = mono.ttft_samples();
    let decode_tokens: u64 = report
        .prefill_stats
        .iter()
        .chain(&report.decode_stats)
        .map(|s| s.decode_tokens)
        .sum();
    println!(
        "{:>22}  {} (monolithic {})",
        "service clock", report.clock, mono.clock
    );
    println!("{:>22}  {}", "placements", report.router.placed);
    println!("{:>22}  {}", "affinity hits", report.router.affinity_hits);
    println!(
        "{:>22}  {}",
        "matched at placement", report.router.matched_tokens
    );
    println!("{:>22}  {}", "router fallbacks", report.router.fallbacks);
    println!("{:>22}  {}", "kv transfers", report.transfer.transfers);
    println!("{:>22}  {} B", "wire bytes", report.transfer.wire_bytes);
    println!(
        "{:>22}  {}",
        "wire delay ticks", report.transfer.delay_ticks
    );
    println!("{:>22}  {}", "bounced deliveries", report.transfer.retries);
    println!(
        "{:>22}  {} (monolithic {})",
        "tokens reused",
        report.tokens_reused(),
        mono.tokens_reused()
    );
    println!(
        "{:>22}  {}/{} ticks (monolithic {}/{})",
        "ttft p50/p99",
        pctl(&ttft, 0.50),
        pctl(&ttft, 0.99),
        pctl(&mono_ttft, 0.50),
        pctl(&mono_ttft, 0.99),
    );
    println!("{:>22}  {}", "decode tokens", decode_tokens);
    println!(
        "{:>22}  {:.1} tok/s",
        "gen throughput",
        decode_tokens as f64 / secs.max(1e-9)
    );
    println!(
        "\nall {} streams bit-exact with the monolithic comparator.",
        report.requests.len()
    );
}

/// The `--open-loop` path: the same scaled trace driven through the
/// streaming service frontend on a seeded arrival schedule, with
/// per-class percentile latency reporting and an on-line bit-exactness
/// check against the direct engine replay of the identical schedule.
#[allow(clippy::too_many_arguments)]
fn run_open_loop(
    model: &Model,
    pool: PagedKvPool,
    replay_pool: PagedKvPool,
    cfg: EngineConfig,
    requests: Vec<EngineRequest>,
    arrival_rate: f64,
    burst: Option<usize>,
    spec: &TraceSpec,
) {
    let mean = 1.0 / arrival_rate;
    let ol = match burst {
        Some(b) => OpenLoopSpec::bursty(mean, b, 11),
        None => OpenLoopSpec::poisson(mean, 11),
    };
    let arrivals = arrival_schedule(&ol, requests.len());
    let last = arrivals.last().copied().unwrap_or(0);
    let schedule: Vec<(EngineRequest, u64)> = requests.into_iter().zip(arrivals).collect();
    println!(
        "open-loop arrivals: {} requests at {arrival_rate:.2} req/tick ({}), last arrival at tick {last}\n",
        schedule.len(),
        match burst {
            Some(b) => format!("bursty x{b}"),
            None => "poisson".to_string(),
        },
    );

    let start = Instant::now();
    let (results, report) = serve(model, pool, TokenScheduler::new(8), cfg, |client| {
        let handles = client.submit_schedule(schedule.iter().cloned());
        handles.into_iter().map(|h| h.wait()).collect::<Vec<_>>()
    });
    let secs = start.elapsed().as_secs_f64();

    // The determinism contract, checked on every run: streams delivered
    // through the concurrent service are bit-identical — tokens, delivery
    // clocks, outcomes, aggregate stats — to the same seeded schedule fed
    // directly to the engine.
    let replay = replay_open_loop_direct(
        model,
        replay_pool,
        TokenScheduler::new(8),
        cfg,
        schedule.clone(),
        &[],
    );
    let mut recorder = LatencyRecorder::new();
    for res in &results {
        let timing = replay.timing_for(res.id);
        assert_eq!(
            res.tokens, timing.tokens,
            "request {}: service != direct",
            res.id
        );
        assert_eq!(
            res.token_clocks, timing.token_clocks,
            "request {}: delivery clocks != direct",
            res.id
        );
        assert_eq!(
            res.end.outcome,
            replay.finished_for(res.id).outcome,
            "request {}",
            res.id
        );
        recorder.record(spec.name, timing.arrival, &res.token_clocks);
    }
    let stats = &report.stats;
    assert_eq!(*stats, replay.stats, "service stats != direct replay stats");
    assert!(report.drained_empty(), "pool residue: {:?}", report.drain);
    assert_eq!(
        stats.retired + stats.failed + stats.cancellations + stats.deadline_kills,
        results.len() as u64
    );
    assert_eq!(stats.faults_absorbed, stats.faults_injected);

    for class in recorder.report() {
        println!(
            "  {:<14} {:>3} reqs | ttft p50/p95/p99/max {}/{}/{}/{} ticks | itl p50/p95/p99/max {}/{}/{}/{} ({} gaps)",
            class.class,
            class.requests,
            class.ttft.p50,
            class.ttft.p95,
            class.ttft.p99,
            class.ttft.max,
            class.itl.p50,
            class.itl.p95,
            class.itl.p99,
            class.itl.max,
            class.itl_samples,
        );
    }
    println!();
    println!("{:>22}  {}", "service clock", report.clock);
    println!("{:>22}  {}", "iterations", stats.iterations);
    println!("{:>22}  {}", "retired", stats.retired);
    println!("{:>22}  {}", "preemptions", stats.preemptions);
    println!("{:>22}  {}", "admission stalls", stats.admission_stalls);
    println!("{:>22}  {}", "swap outs", stats.swap_outs);
    println!("{:>22}  {}", "decode tokens", stats.decode_tokens);
    println!("{:>22}  {}", "faults absorbed", stats.faults_absorbed);
    println!("{:>22}  {}", "deadline kills", stats.deadline_kills);
    println!(
        "{:>22}  {:.1} tok/s",
        "gen throughput",
        stats.decode_tokens as f64 / secs.max(1e-9)
    );
    println!(
        "\nall {} streams bit-exact with the direct engine replay.",
        results.len()
    );
}
