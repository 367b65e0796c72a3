//! The golden ledger: scaled-down replays of the four `BENCHMARK.json`
//! workloads at fixed seeds, across engine configurations, held against
//! the committed rows in `tests/golden/*.tsv`.
//!
//! Each row records what a replay produced and what the engine paid for
//! it: a digest of every request's tokens and outcome, a digest of every
//! decode step's logits bits (engine replays), the finished order, each request's time to first token in service-clock ticks,
//! preemptions, swap bytes, the per-rank page peaks, the fault counters
//! and the prefix-cache counters. A change that moves any of these fails
//! `golden` with a row-level diff naming the file, the row and the
//! column; a change that moves them on purpose re-blesses the files
//! (`cargo test --test golden -- --ignored bless_golden`) and shows the
//! diff in review.
//!
//! Every number is a function of the seeds: the engine, the service clock
//! and the kernels read no wall clock and no environment, and the tile
//! kernel's lanes and the in-repo `exp` share one arithmetic, so the rows
//! hold on any machine, at any optimisation level, with or without the
//! `simd` feature.

use oaken::cluster::{run_cluster, run_monolithic, ClusterConfig, ClusterReport, EngineRole};
use oaken::core::{KvQuantizer, OakenConfig};
use oaken::eval::harness::profile_oaken;
use oaken::model::{FaultPlan, KernelMode, Model, ModelConfig, PagedKvPool};
use oaken::service::{arrival_schedule, replay_open_loop_direct, DirectReplay, OpenLoopSpec};
use oaken::serving::{
    AdmissionPolicy, EngineConfig, EngineRequest, EngineStats, PreemptPolicy, RequestOutcome,
    TokenScheduler,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// One traffic mix, shrunk from its `bench/` namesake.
struct Workload {
    name: &'static str,
    requests: usize,
    mean_gap: f64,
    /// Inclusive ranges of request-unique prompt and decode tokens.
    prompt: (usize, usize),
    output: (usize, usize),
    /// System-prompt tokens every member of a family starts with.
    shared_prefix: usize,
    families: usize,
    /// Device pages per pool; the host tier holds four times as many.
    pages: u32,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "chat_short",
        requests: 8,
        mean_gap: 3.0,
        prompt: (6, 16),
        output: (4, 10),
        shared_prefix: 0,
        families: 1,
        pages: 400,
    },
    Workload {
        name: "long_context",
        requests: 2,
        mean_gap: 6.0,
        prompt: (96, 144),
        output: (6, 6),
        shared_prefix: 0,
        families: 1,
        pages: 400,
    },
    Workload {
        name: "shared_prefix",
        requests: 8,
        mean_gap: 1.5,
        prompt: (4, 10),
        output: (4, 8),
        shared_prefix: 32,
        families: 2,
        pages: 400,
    },
    Workload {
        name: "memory_pressure",
        requests: 6,
        mean_gap: 4.0,
        prompt: (8, 14),
        output: (24, 36),
        shared_prefix: 0,
        families: 1,
        pages: 48,
    },
];

/// The engine configurations every workload replays under: both kernels,
/// one and two threads, one, two and three ranks (three splits the eight
/// KV heads unevenly), and both preemption policies.
const POINTS: [(KernelMode, usize, usize, PreemptPolicy); 6] = [
    (KernelMode::Exact, 1, 1, PreemptPolicy::RestartRecompute),
    (KernelMode::Fused, 1, 1, PreemptPolicy::SwapToHost),
    (KernelMode::Exact, 2, 2, PreemptPolicy::SwapToHost),
    (KernelMode::Fused, 2, 2, PreemptPolicy::RestartRecompute),
    (KernelMode::Exact, 1, 3, PreemptPolicy::SwapToHost),
    (KernelMode::Fused, 2, 3, PreemptPolicy::SwapToHost),
];

/// Seed of every schedule's tokens.
const SEED: u64 = 7;

/// Device pages of the stalling `memory_pressure` row: room for two of its
/// requests' whole footprints at a time.
const STALL_PAGES: u32 = 40;

fn engine_config(
    kernel: KernelMode,
    threads: usize,
    ranks: usize,
    preempt: PreemptPolicy,
) -> EngineConfig {
    EngineConfig {
        max_batch: 4,
        admission: AdmissionPolicy::PromptOnly,
        preempt,
        record_logits: true,
        prefill_token_budget: 16,
        num_threads: threads,
        num_ranks: ranks,
        fault_plan: None,
        max_iterations: None,
        kernel,
    }
}

/// Splitmix64, the schedule's only random source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn within(&mut self, (lo, hi): (usize, usize)) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// The workload's open-loop schedule at `seed`: Poisson arrivals, prompt
/// and output lengths drawn from its ranges, and one system prompt per
/// family ahead of every member's own tokens.
fn schedule(w: &Workload, vocab: usize, seed: u64) -> Vec<(EngineRequest, u64)> {
    let arrivals = arrival_schedule(&OpenLoopSpec::poisson(w.mean_gap, seed), w.requests);
    let mut rng = Rng(seed ^ 0x0A4E_5EED);
    let token = |rng: &mut Rng| (rng.next() % vocab as u64) as u32;
    let families: Vec<Vec<u32>> = (0..w.families)
        .map(|_| (0..w.shared_prefix).map(|_| token(&mut rng)).collect())
        .collect();
    (0..w.requests)
        .zip(arrivals)
        .map(|(i, arrival)| {
            let (len, out) = (rng.within(w.prompt), rng.within(w.output));
            let mut prompt = families[rng.within((0, w.families - 1))].clone();
            prompt.extend((0..len).map(|_| token(&mut rng)));
            (EngineRequest::new(i as u64, prompt, out), arrival)
        })
        .collect()
}

fn pool(model: &Model, q: &Arc<dyn KvQuantizer>, pages: u32) -> PagedKvPool {
    let mut pool = PagedKvPool::for_model(model.config(), Some(q.clone()), pages, 256);
    pool.set_host_pages(4 * pages);
    pool.set_block_tokens(8);
    pool
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn outcome_code(outcome: RequestOutcome) -> u64 {
    match outcome {
        RequestOutcome::Finished => 0,
        RequestOutcome::Failed(_) => 1,
        RequestOutcome::Cancelled => 2,
        RequestOutcome::DeadlineExceeded => 3,
    }
}

fn list<T: ToString>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
    if items.is_empty() {
        "-".into()
    } else {
        items.join(",")
    }
}

/// One ledger row: `(column, value)` pairs, the row's key first.
type Row = Vec<(&'static str, String)>;

/// The engine counters of a row: preemptions, swap bytes to host / to
/// device, per-rank page peaks, `injected/absorbed/retries/demotions` (the
/// engine's mirror of the pool's fault injector and what containment made
/// of it) and the prefix-cache counters.
fn engine_columns(row: &mut Row, stats: &EngineStats) {
    let p = stats.prefix;
    row.extend([
        ("preemptions", stats.preemptions.to_string()),
        (
            "swap_bytes",
            format!(
                "{}/{}",
                stats.swap_bytes_to_host, stats.swap_bytes_to_device
            ),
        ),
        ("rank_page_peaks", list(&stats.rank_page_peaks)),
        (
            "faults",
            format!(
                "{}/{}/{}/{}",
                stats.faults_injected, stats.faults_absorbed, stats.fault_retries, stats.demotions
            ),
        ),
        ("trie_hits", p.trie_hits.to_string()),
        ("seal_dedups", p.seal_dedups.to_string()),
        ("tokens_reused", p.tokens_reused.to_string()),
        ("quant_rows_skipped", p.quant_rows_skipped.to_string()),
        ("bytes_deduplicated", p.bytes_deduplicated.to_string()),
    ]);
}

fn replay_row(key: String, replay: &DirectReplay) -> Row {
    let digest = fnv(replay.finished.iter().flat_map(|f| {
        let head = [f.id, outcome_code(f.outcome), f.generated.len() as u64];
        head.into_iter()
            .chain(f.generated.iter().map(|&t| u64::from(t)))
    }));
    // Every decode step's logits, bit for bit: a rounding that moves no
    // greedy token still moves this.
    let logits = fnv(replay.finished.iter().flat_map(|f| {
        let rows = f.logits.iter().flatten();
        rows.map(|x| u64::from(x.to_bits()))
    }));
    let ttft = replay.timings.iter().map(|t| match t.token_clocks.first() {
        Some(&c) => (c - t.arrival).to_string(),
        None => "-".into(),
    });
    let mut row = vec![
        ("row", key),
        ("digest", format!("{digest:016x}")),
        ("logits", format!("{logits:016x}")),
        ("finished", list(replay.finished.iter().map(|f| f.id))),
        ("ttft_ticks", list(ttft)),
        ("clock", replay.clock.to_string()),
    ];
    engine_columns(&mut row, &replay.stats);
    row
}

fn cluster_row(key: String, report: &ClusterReport) -> Row {
    let digest = fnv(report.requests.iter().flat_map(|r| {
        let head = [r.id, outcome_code(r.outcome), r.tokens.len() as u64];
        head.into_iter()
            .chain(r.tokens.iter().map(|&t| u64::from(t)))
    }));
    let mut order: Vec<&_> = report.requests.iter().collect();
    order.sort_by_key(|r| (r.finish_clock, r.id));
    let ttft = report
        .requests
        .iter()
        .map(|r| r.ttft().map_or("-".into(), |t| t.to_string()));
    let (t, p) = (report.transfer, report.router);
    // Every engine's counters, prefill then decode, in replica order.
    let engines = fnv(report
        .prefill_stats
        .iter()
        .chain(&report.decode_stats)
        .flat_map(|s| format!("{s:?}").into_bytes())
        .map(u64::from));
    let mut row = vec![
        ("row", key),
        ("digest", format!("{digest:016x}")),
        ("finished", list(order.iter().map(|r| r.id))),
        ("ttft_ticks", list(ttft)),
        ("clock", report.clock.to_string()),
        (
            "transfers",
            format!(
                "{}/{}/{}/{}",
                t.transfers, t.wire_bytes, t.delay_ticks, t.retries
            ),
        ),
        (
            "router",
            format!(
                "{}/{}/{}/{}",
                p.placed, p.affinity_hits, p.matched_tokens, p.fallbacks
            ),
        ),
        ("engines", format!("{engines:016x}")),
    ];
    // Every engine's per-rank page peaks, engines in replica order.
    for (column, stats) in [
        ("prefill_page_peaks", &report.prefill_stats),
        ("decode_page_peaks", &report.decode_stats),
    ] {
        let peaks = stats.iter().flat_map(|s| &s.rank_page_peaks);
        row.push((column, list(peaks).replace(',', ";")));
    }
    // The prefill engine's counters: it holds the shared prefixes.
    engine_columns(&mut row, &report.prefill_stats[0]);
    row
}

/// The model and quantizer every row runs: 8 KV heads, so two and three
/// ranks both split them.
fn setup() -> (Model, Arc<dyn KvQuantizer>) {
    let model = Model::synthetic(ModelConfig::llama2_7b().proxy(2, 32), 7);
    let q: Arc<dyn KvQuantizer> = Arc::new(profile_oaken(&model, OakenConfig::default(), 6, 8, 5));
    (model, q)
}

/// Every ledger file's rows, computed: one file per workload (a row per
/// configuration point, plus the faulted two-rank row on
/// `memory_pressure`), and `handoff.tsv`'s cluster rows on the
/// `shared_prefix` schedule.
fn ledger() -> BTreeMap<String, Vec<Row>> {
    let (model, q) = setup();
    let vocab = model.config().vocab_size;
    let mut files = BTreeMap::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = WORKLOADS
            .iter()
            .map(|w| {
                let (model, q) = (&model, &q);
                scope.spawn(move || {
                    let mut rows = Vec::new();
                    for (kernel, threads, ranks, preempt) in POINTS {
                        let cfg = engine_config(kernel, threads, ranks, preempt);
                        let replay = replay_open_loop_direct(
                            model,
                            pool(model, q, w.pages),
                            TokenScheduler::new(4),
                            cfg,
                            schedule(w, vocab, SEED),
                            &[],
                        );
                        let key = format!(
                            "{}-t{threads}-r{ranks}-{}",
                            kernel.label(),
                            match preempt {
                                PreemptPolicy::SwapToHost => "swap",
                                PreemptPolicy::RestartRecompute => "restart",
                            }
                        );
                        rows.push(replay_row(key, &replay));
                    }
                    if w.name == "memory_pressure" {
                        let plan = FaultPlan::new(11).with_rate_permille(120);
                        let cfg = EngineConfig {
                            fault_plan: Some(plan),
                            ..engine_config(KernelMode::Fused, 1, 2, PreemptPolicy::SwapToHost)
                        };
                        let replay = replay_open_loop_direct(
                            model,
                            pool(model, q, w.pages),
                            TokenScheduler::new(4),
                            cfg,
                            schedule(w, vocab, SEED),
                            &[],
                        );
                        rows.push(replay_row("fused-t1-r2-swap-faults".into(), &replay));
                    }
                    (format!("{}.tsv", w.name), rows)
                })
            })
            .collect();
        files.insert("handoff.tsv".to_string(), handoff(&model, &q));
        for h in handles {
            let (file, rows) = h.join().expect("a workload's replays ran");
            files.insert(file, rows);
        }
    });
    files
}

/// `handoff.tsv`'s rows. Three run the `shared_prefix` schedule: one
/// replica over a 256-byte-per-tick link, the monolithic comparator of
/// the same config, and two affinity-routed replicas over a slower link
/// into decode host tiers that bounce a landing, with three scripted
/// cancels — request 7 still in the schedule, request 1 on the wire and
/// request 3 decoding. The fourth runs `memory_pressure` monolithically
/// under `FullSequence` admission on a pool too small for the queue, so
/// admission stalls before and after retirement in one iteration: its
/// `engines` digest pins the stall count the engine rows do not show.
fn handoff(model: &Model, q: &Arc<dyn KvQuantizer>) -> Vec<Row> {
    let w = &WORKLOADS[2];
    let vocab = model.config().vocab_size;
    let cfg = ClusterConfig {
        replicas: 1,
        work_tokens_per_tick: 16,
        transfer_bytes_per_tick: 256,
        ..ClusterConfig::new(engine_config(
            KernelMode::Fused,
            1,
            2,
            PreemptPolicy::SwapToHost,
        ))
    };
    let mut make_pool = |_: EngineRole, _: usize| pool(model, q, w.pages);
    let single = run_cluster(model, &cfg, &mut make_pool, schedule(w, vocab, SEED), &[]);
    let mono = run_monolithic(model, &cfg, &mut make_pool, schedule(w, vocab, SEED), &[]);
    let wide = ClusterConfig {
        replicas: 2,
        transfer_bytes_per_tick: 128,
        ..cfg
    };
    let mut tight_decode = |role: EngineRole, _: usize| {
        let mut pool = pool(model, q, w.pages);
        if role == EngineRole::Decode {
            pool.set_host_pages(32);
        }
        pool
    };
    let cancels = [(6, 7), (30, 1), (71, 3)];
    let affinity = run_cluster(
        model,
        &wide,
        &mut tight_decode,
        schedule(w, vocab, SEED),
        &cancels,
    );
    let w = &WORKLOADS[3];
    let stalling = ClusterConfig::new(EngineConfig {
        admission: AdmissionPolicy::FullSequence,
        ..engine_config(KernelMode::Exact, 1, 1, PreemptPolicy::RestartRecompute)
    });
    let mut tight = |_: EngineRole, _: usize| pool(model, q, STALL_PAGES);
    let stalls = run_monolithic(model, &stalling, &mut tight, schedule(w, vocab, SEED), &[]);
    vec![
        cluster_row("shared_prefix-fused-t1-r2-swap".into(), &single),
        cluster_row("shared_prefix-fused-t1-r2-swap-monolithic".into(), &mono),
        cluster_row(
            "shared_prefix-fused-t1-r2-swap-x2-affinity-cancels".into(),
            &affinity,
        ),
        cluster_row(
            "memory_pressure-exact-t1-r1-restart-fullseq-monolithic".into(),
            &stalls,
        ),
    ]
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let header: Vec<&str> = rows[0].iter().map(|(c, _)| *c).collect();
    writeln!(out, "{}", header.join("\t")).unwrap();
    for row in rows {
        let values: Vec<&str> = row.iter().map(|(_, v)| v.as_str()).collect();
        writeln!(out, "{}", values.join("\t")).unwrap();
    }
    out
}

/// `(header, rows keyed by their first column)` of a committed file.
fn parse(text: &str) -> (Vec<String>, BTreeMap<String, Vec<String>>) {
    let mut lines = text.lines();
    let header = lines
        .next()
        .map(|l| l.split('\t').map(str::to_string).collect())
        .unwrap_or_default();
    let rows = lines
        .map(|l| {
            let cells: Vec<String> = l.split('\t').map(str::to_string).collect();
            (cells[0].clone(), cells)
        })
        .collect();
    (header, rows)
}

/// Every row of every ledger file agrees with the committed ledger;
/// otherwise the failure lists each differing cell.
#[test]
fn golden() {
    let mut diffs = Vec::new();
    for (file, rows) in ledger() {
        let path = golden_dir().join(&file);
        let Ok(committed) = std::fs::read_to_string(&path) else {
            diffs.push(format!("{file}: not committed (run bless_golden)"));
            continue;
        };
        let (header, want) = parse(&committed);
        let got = parse(&render(&rows));
        if header != got.0 {
            diffs.push(format!(
                "{file}: columns\n    committed {header:?}\n    got       {:?}",
                got.0
            ));
            continue;
        }
        for (key, cells) in &got.1 {
            let Some(old) = want.get(key) else {
                diffs.push(format!("{file}: row {key} is new"));
                continue;
            };
            for ((column, a), b) in header.iter().zip(old).zip(cells) {
                if a != b {
                    diffs.push(format!(
                        "{file}: row {key}, column {column}\n    committed {a}\n    got       {b}"
                    ));
                }
            }
        }
        for key in want.keys().filter(|k| !got.1.contains_key(*k)) {
            diffs.push(format!("{file}: row {key} is gone"));
        }
    }
    assert!(
        diffs.is_empty(),
        "the ledger moved ({} cells):\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

/// Rewrites `tests/golden/*.tsv` from this build. Run it only for a
/// change that moves the ledger on purpose, and review the diff.
#[test]
#[ignore = "rewrites the committed ledger"]
fn bless_golden() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("create tests/golden");
    for (file, rows) in ledger() {
        std::fs::write(dir.join(file), render(&rows)).expect("write a ledger file");
    }
}
