//! Per-layer costs, measured from outside: each probe times calls into
//! one crate's public functions on inputs shaped like the traced
//! workload's steps (batch widths, attended length, K/V rows captured
//! from the model with a KV observer). The costs are then multiplied by the
//! trace's counts and reconciled against the summed step time.

use crate::report::Metric;
use crate::timed::{percentile, TimedRepeat};
use crate::traced::Trace;
use crate::workload::{engine_config, Rng, Schedule, Setup, Spec, MAX_BATCH};
use oaken_cluster::{run_cluster, run_monolithic, ClusterConfig, ClusterReport, RouterPolicy};
use oaken_core::KvKind;
use oaken_mmu::{MmuSim, StreamClass, StreamKey};
use oaken_model::{
    attend_kv_group_fused_into, attend_kv_group_into, AttentionScratch, AttentionShape, BatchStep,
    ExactCache, FfnWeights, KernelMode, KvCacheBackend, Model, PagedKvPool, SeqId, SingleSlot,
};
use oaken_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

/// Best (minimum) seconds per call of `f`, sampled for `budget` seconds
/// and at least three calls: the probes want each layer's cost on a
/// quiet machine, the same thing the timed path's min-reduction
/// estimates.
fn best_secs(budget: f64, mut f: impl FnMut()) -> f64 {
    let begin = Instant::now();
    let mut best = f64::INFINITY;
    let mut calls = 0;
    while calls < 3 || begin.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
        calls += 1;
    }
    best
}

fn random_vec(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.unit_f32() - 0.5).collect()
}

/// The shapes the probes run at, read off a traced replay's counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeShapes {
    /// Step widths (tokens fed) at the 0/25/50/75/100th percentile of
    /// working steps, ascending and distinct.
    pub widths: Vec<usize>,
    pub median_width: usize,
    /// Mean cached rows one attention call read.
    pub attended: usize,
}

impl ProbeShapes {
    pub fn of(trace: &Trace, layers: usize) -> Self {
        let widths: Vec<f64> = trace
            .ticks
            .iter()
            .filter(|t| t.worked())
            .map(|t| t.tokens_fed as f64)
            .collect();
        let at = |p: f64| percentile(&widths, p).max(1.0) as usize;
        let mut probe: Vec<usize> = [0.0, 25.0, 50.0, 75.0, 100.0].map(at).to_vec();
        probe.dedup();
        let calls = trace.tokens_fed() * layers as u64;
        let row_pairs = trace.replay.stats.kv_reads.fused_rows / 2;
        Self {
            widths: probe,
            median_width: at(50.0),
            attended: (row_pairs as f64 / calls.max(1) as f64).round().max(1.0) as usize,
        }
    }
}

/// K and V rows of every layer, as the model produces them.
pub struct CapturedRows {
    /// `[layer][kind]` → rows.
    rows: Vec<[Vec<Vec<f32>>; 2]>,
}

impl CapturedRows {
    /// Runs `want` tokens (the schedule's prompts, concatenated; at most
    /// 2048) through the model over an FP32 cache with a KV observer
    /// attached. Distinct rows matter: a short cycle of repeated rows
    /// makes the fused kernels' data-dependent branches predictable and
    /// halves their measured cost.
    pub fn capture(setup: &Setup, schedule: &Schedule, want: usize) -> Self {
        let cfg = setup.model.config();
        let want = want.clamp(64, 2048.min(cfg.max_seq_len));
        let tokens: Vec<u32> = schedule
            .iter()
            .flat_map(|(req, _)| req.prompt.iter().copied())
            .take(want)
            .collect();
        let mut rows = vec![[Vec::new(), Vec::new()]; cfg.num_layers];
        let mut cache = ExactCache::new();
        cache.reset(cfg.num_layers, cfg.kv_dim());
        for (c, chunk) in tokens.chunks(64).enumerate() {
            let steps: Vec<BatchStep> = chunk
                .iter()
                .enumerate()
                .map(|(i, &token)| BatchStep {
                    slot: 0,
                    pos: c * 64 + i,
                    token,
                })
                .collect();
            let mut observe = |_step: usize, layer: usize, kind: KvKind, row: &[f32]| {
                rows[layer][usize::from(kind == KvKind::Value)].push(row.to_vec());
            };
            setup
                .model
                .forward_batch(&mut SingleSlot(&mut cache), &steps, Some(&mut observe));
        }
        Self { rows }
    }

    fn count(&self) -> usize {
        self.rows[0][0].len()
    }

    /// Row `t` of `(layer, kind)`, cycling when `t` outruns the capture.
    fn row(&self, layer: usize, kind: usize, t: usize) -> &[f32] {
        let rows = &self.rows[layer][kind];
        &rows[t % rows.len()]
    }
}

/// A pool holding one sequence of `len` tokens appended from `rows`.
/// Returns the pool, the sequence and the seconds the appends took.
fn filled_pool(
    setup: &Setup,
    rows: &CapturedRows,
    len: usize,
    kernel: KernelMode,
    rng: &mut Rng,
) -> (PagedKvPool, SeqId, f64) {
    let cfg = setup.model.config();
    let pages = 2 * setup.ample_pages_for(len);
    let mut pool = setup.pool_of(pages, pages);
    pool.set_kernel_mode(kernel);
    // Announce a prompt so blocks are planned and sealed as on the
    // serving path; random tokens, so nothing is adopted.
    let tokens: Vec<u32> = (0..len)
        .map(|_| rng.below(cfg.vocab_size as u64) as u32)
        .collect();
    let seq = pool.alloc_seq_with_prefix(&tokens).seq;
    let start = Instant::now();
    for t in 0..len {
        for layer in 0..cfg.num_layers {
            pool.append(seq, layer, rows.row(layer, 0, t), rows.row(layer, 1, t))
                .expect("ample pool");
        }
    }
    (pool, seq, start.elapsed().as_secs_f64())
}

/// One round of every probe, in seconds. Rounds taken at different times
/// are merged with [`Probes::keep_best`], so a slow phase of the host
/// during one round does not set a layer's cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Probes {
    /// One step's weight sweeps at each of `ProbeShapes::widths`.
    sweep: Vec<f64>,
    /// Weight elements one token is multiplied against.
    params: usize,
    /// `KvRowStream::append_row_encoded`, per row.
    quantize_row: f64,
    encoded_bytes_per_row: f64,
    /// One token's attention over `attended` rows on one layer.
    attend_fused: f64,
    attend_exact: f64,
    /// `PagedKvPool::append` over all layers, per token.
    pool_append_token: f64,
    suspend_resume: f64,
    prefix_alloc: f64,
    mmu_write_token: f64,
    mmu_swap_page: f64,
}

impl Probes {
    pub fn measure(
        setup: &Setup,
        schedule: &Schedule,
        rows: &CapturedRows,
        shapes: &ProbeShapes,
        budget: f64,
    ) -> Self {
        let cfg = setup.model.config();
        let mut rng = Rng::new(0x001A_7E25);
        let (sweep, params) = sweep_secs(&setup.model, &shapes.widths, budget, &mut rng);
        let (quantize_row, encoded_bytes_per_row) = quantize_cost(setup, rows, budget);
        let len = shapes.attended;

        let shape = AttentionShape {
            num_heads: cfg.num_heads,
            num_kv_heads: cfg.num_kv_heads,
            head_dim: cfg.head_dim(),
            window: cfg.sliding_window,
        };
        let q = random_vec(&mut rng, shape.q_dim());
        let mut out_g = vec![0.0f32; shape.group_size().max(1) * shape.head_dim];
        let (mut pool, seq, mut append) =
            filled_pool(setup, rows, len, KernelMode::Fused, &mut rng);
        let attend_fused = {
            let (keys, values) = pool
                .encoded_kv(seq, 0)
                .expect("fused pool serves encoded rows");
            let mut scratch = AttentionScratch::default();
            best_secs(budget, || {
                for kvh in 0..shape.num_kv_heads {
                    attend_kv_group_fused_into(
                        &q,
                        &keys,
                        &values,
                        len,
                        &shape,
                        kvh,
                        &mut out_g,
                        &mut scratch,
                    );
                    black_box(&out_g);
                }
            })
        };
        let suspend_resume = best_secs(budget, || {
            black_box(pool.suspend_seq(seq).expect("host tier holds the sequence"));
            black_box(pool.resume_seq(seq).expect("device holds the sequence"));
        });
        let (mut pool, seq, secs) = filled_pool(setup, rows, len, KernelMode::Exact, &mut rng);
        append = append.min(secs);
        let keys = pool.keys(seq, 0).to_vec();
        let values = pool.values(seq, 0).to_vec();
        let mut scores = Vec::new();
        let attend_exact = best_secs(budget, || {
            for kvh in 0..shape.num_kv_heads {
                attend_kv_group_into(
                    &q,
                    &keys,
                    &values,
                    len,
                    &shape,
                    kvh,
                    &mut out_g,
                    &mut scores,
                );
                black_box(&out_g);
            }
        });

        // Prefix adoption: a holder seals the first request's prompt,
        // then the same prompt is admitted and freed again.
        let prompt = &schedule[0].0.prompt;
        let mut pool = setup.pool_of(setup.ample_pages, setup.ample_pages);
        pool.set_kernel_mode(KernelMode::Fused);
        let holder = pool.alloc_seq_with_prefix(prompt).seq;
        for t in 0..prompt.len() {
            for layer in 0..cfg.num_layers {
                pool.append(holder, layer, rows.row(layer, 0, t), rows.row(layer, 1, t))
                    .expect("ample pool");
            }
        }
        let prefix_alloc = best_secs(budget, || {
            let adopted = pool.alloc_seq_with_prefix(prompt).seq;
            black_box(pool.free_seq(adopted).expect("just allocated"));
        });

        let dense_row_bytes = (encoded_bytes_per_row / cfg.num_kv_heads as f64).ceil() as u32;
        let (mmu_write_token, mmu_swap_page) = mmu_costs(setup, dense_row_bytes.max(1), budget);
        Self {
            sweep,
            params,
            quantize_row,
            encoded_bytes_per_row,
            attend_fused,
            attend_exact,
            pool_append_token: append / len as f64,
            suspend_resume,
            prefix_alloc,
            mmu_write_token,
            mmu_swap_page,
        }
    }

    /// Keeps, probe by probe, the faster of `self` and `other`.
    pub fn keep_best(&mut self, other: &Probes) {
        for (a, b) in self.sweep.iter_mut().zip(&other.sweep) {
            *a = a.min(*b);
        }
        for (a, b) in [
            (&mut self.quantize_row, other.quantize_row),
            (&mut self.attend_fused, other.attend_fused),
            (&mut self.attend_exact, other.attend_exact),
            (&mut self.pool_append_token, other.pool_append_token),
            (&mut self.suspend_resume, other.suspend_resume),
            (&mut self.prefix_alloc, other.prefix_alloc),
            (&mut self.mmu_write_token, other.mmu_write_token),
            (&mut self.mmu_swap_page, other.mmu_swap_page),
        ] {
            *a = a.min(b);
        }
    }

    /// Sweep seconds at width `w`, interpolated between probed widths.
    fn sweep_at(&self, widths: &[usize], w: usize) -> f64 {
        if w == 0 {
            return 0.0;
        }
        let hi = widths.partition_point(|&pw| pw < w);
        if hi == 0 || hi == widths.len() {
            // Outside the probed range: scale the nearest probe.
            let k = hi.saturating_sub(1).min(widths.len() - 1);
            return self.sweep[k] * w as f64 / widths[k] as f64;
        }
        let (w0, w1) = (widths[hi - 1], widths[hi]);
        let (s0, s1) = (self.sweep[hi - 1], self.sweep[hi]);
        s0 + (s1 - s0) * (w - w0) as f64 / (w1 - w0) as f64
    }
}

/// Seconds one step's weight sweeps (`Tensor::matvec_batch` over every
/// weight shape of the model) take at each width, and the weight
/// elements one token is multiplied against.
fn sweep_secs(model: &Model, widths: &[usize], budget: f64, rng: &mut Rng) -> (Vec<f64>, usize) {
    let cfg = model.config();
    // `Model` keeps its LM head private; a tensor of the same shape costs
    // the same to sweep.
    let lm_head = Tensor::from_vec(
        random_vec(rng, cfg.vocab_size * cfg.d_model),
        &[cfg.vocab_size, cfg.d_model],
    )
    .expect("LM head shape");
    // Every matrix a token meets, with whether its input is FFN-wide.
    let mut weights: Vec<(&Tensor, bool)> = vec![(&lm_head, false)];
    for lw in model.layers() {
        weights.extend([&lw.wq, &lw.wk, &lw.wv, &lw.wo].map(|t| (t, false)));
        match &lw.ffn {
            FfnWeights::Dense(f) => {
                weights.extend(f.w_gate.as_ref().map(|g| (g, false)));
                weights.extend([(&f.w_up, false), (&f.w_down, true)]);
            }
            FfnWeights::Moe { .. } => unreachable!("the benchmark's models are dense"),
        }
    }
    let params = weights.iter().map(|(t, _)| t.len()).sum();
    let secs = widths
        .iter()
        .map(|&w| {
            let xs_d: Vec<Vec<f32>> = (0..w).map(|_| random_vec(rng, cfg.d_model)).collect();
            let xs_f: Vec<Vec<f32>> = (0..w).map(|_| random_vec(rng, cfg.ffn_hidden)).collect();
            let xd: Vec<&[f32]> = xs_d.iter().map(Vec::as_slice).collect();
            let xf: Vec<&[f32]> = xs_f.iter().map(Vec::as_slice).collect();
            best_secs(budget, || {
                for &(weight, ffn_wide) in &weights {
                    let xs = if ffn_wide { &xf } else { &xd };
                    black_box(weight.matvec_batch(xs).expect("weight shape"));
                }
            })
        })
        .collect();
    (secs, params)
}

/// `(seconds per encoded row, payload bytes per encoded row)` of
/// `KvRowStream::append_row_encoded` over the captured rows.
fn quantize_cost(setup: &Setup, rows: &CapturedRows, budget: f64) -> (f64, f64) {
    let cfg = setup.model.config();
    let streams = cfg.num_layers * 2;
    let mut secs = 0.0;
    let mut bytes = 0usize;
    for layer in 0..cfg.num_layers {
        for (slot, kind) in KvKind::ALL.into_iter().enumerate() {
            let mut stream = setup
                .quantizer
                .row_stream(cfg.kv_dim(), layer, kind)
                .expect("Oaken streams rows");
            secs += best_secs(budget / streams as f64, || {
                stream.reset();
                for row in &rows.rows[layer][slot] {
                    black_box(stream.append_row_encoded(row));
                }
            });
            bytes += stream.payload_bytes().unwrap_or(0);
        }
    }
    let encoded = (rows.count() * streams) as f64;
    (secs / encoded, bytes as f64 / encoded)
}

/// `(seconds per write_token, seconds per page swapped)` on a bare
/// `MmuSim` written the way the pool writes: one dense stream per head,
/// `row_bytes` per token.
fn mmu_costs(setup: &Setup, row_bytes: u32, budget: f64) -> (f64, f64) {
    let heads = setup.model.config().num_kv_heads as u16;
    let tokens = 256usize;
    let key = |head: u16| StreamKey {
        request: 7,
        layer: 0,
        head,
        class: StreamClass::Dense,
    };
    let fresh = || {
        let mut mmu = MmuSim::new(8192, setup.page_size);
        mmu.attach_host_tier(8192);
        mmu
    };
    let fill = |mmu: &mut MmuSim| {
        for _ in 0..tokens {
            for head in 0..heads {
                black_box(mmu.write_token(key(head), row_bytes).expect("ample pages"));
            }
        }
    };
    let write = best_secs(budget, || fill(&mut fresh()));
    let build = best_secs(budget / 4.0, || {
        black_box(fresh());
    });
    let write_token = (write - build).max(0.0) / (tokens * heads as usize) as f64;

    let mut mmu = fresh();
    fill(&mut mmu);
    let pages = mmu.request_pages(7).max(1);
    let swap = best_secs(budget, || {
        black_box(
            mmu.swap_out_request(7)
                .expect("host tier holds the request"),
        );
        black_box(mmu.swap_in_request(7).expect("device holds the request"));
    });
    (write_token, swap / (2 * pages) as f64)
}

fn cluster_metrics(setup: &Setup, spec: &Spec, schedule: &Schedule, out: &mut Vec<Metric>) {
    let sample: Schedule = schedule[..spec.cluster_requests.min(schedule.len())].to_vec();
    let config = ClusterConfig {
        replicas: 2,
        router: RouterPolicy::Affinity,
        transfer_bytes_per_tick: 0,
        work_tokens_per_tick: 32,
        scheduler_cores: MAX_BATCH,
        engine: engine_config(),
    };
    let pages = setup.ample_pages;
    let start = Instant::now();
    let cluster: ClusterReport = run_cluster(
        &setup.model,
        &config,
        &mut |_, _| setup.pool_of(pages, pages),
        sample.clone(),
        &[],
    );
    let wall = start.elapsed().as_secs_f64();
    let mono = run_monolithic(
        &setup.model,
        &config,
        &mut |_, _| setup.pool_of(pages, pages),
        sample,
        &[],
    );
    let ttft: Vec<f64> = cluster.ttft_samples().iter().map(|&t| t as f64).collect();
    let share = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    out.extend([
        Metric::new(
            "cluster.wall_ms_per_tick",
            wall * 1e3 / cluster.clock.max(1) as f64,
            "ms",
        ),
        Metric::new(
            "cluster.affinity_hit_share",
            share(cluster.router.affinity_hits, cluster.router.placed),
            "share",
        ),
        Metric::new(
            "cluster.wire_bytes_per_request",
            share(cluster.transfer.wire_bytes, cluster.requests.len() as u64),
            "bytes",
        ),
        Metric::new("cluster.ttft_ticks_p90", percentile(&ttft, 90.0), "ticks"),
        Metric::new(
            "cluster.clock_over_monolithic",
            share(cluster.clock, mono.clock),
            "ratio",
        ),
    ]);
}

/// Every per-layer metric of one workload: `traces` are the traced
/// replays (identical in ticks and counts, differing only in timing),
/// `served` the `serve` run made just before the first of them, `probes`
/// the merged probe rounds taken at `shapes`.
pub fn per_layer_metrics(
    setup: &Setup,
    spec: &Spec,
    schedule: &Schedule,
    traces: &[Trace],
    served: &TimedRepeat,
    shapes: &ProbeShapes,
    probes: &Probes,
) -> Vec<Metric> {
    let trace = &traces[0];
    let cfg = setup.model.config();
    let stats = &trace.replay.stats;
    let working: Vec<usize> = (0..trace.ticks.len())
        .filter(|&i| trace.ticks[i].worked())
        .collect();
    // Each tick's duration on its fastest traced replay.
    let step_secs: Vec<f64> = working
        .iter()
        .map(|&i| {
            traces
                .iter()
                .map(|t| t.ticks[i].secs())
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let step_total: f64 = step_secs.iter().sum();
    let steps = working.len().max(1) as f64;
    let tokens_fed = trace.tokens_fed();
    let kv_row_pairs = stats.kv_reads.fused_rows / 2;
    let share = |secs: f64| secs / step_total.max(1e-12);

    let sweep_total: f64 = working
        .iter()
        .map(|&i| probes.sweep_at(&shapes.widths, trace.ticks[i].tokens_fed as usize))
        .sum();
    let sweep_median = probes.sweep_at(&shapes.widths, shapes.median_width);
    let rows_encoded = tokens_fed * cfg.num_layers as u64 * 2;
    let attended = shapes.attended as f64;
    let attention_total = probes.attend_fused / attended * kv_row_pairs as f64;
    let append_total = probes.pool_append_token * tokens_fed as f64;

    let waits: Vec<f64> = trace
        .requests
        .iter()
        .filter_map(|r| {
            r.admitted_tick
                .map(|a| a.saturating_sub(r.arrival_tick) as f64)
        })
        .collect();
    let step_ms: Vec<f64> = step_secs.iter().map(|s| s * 1e3).collect();
    let mut out = vec![
        Metric::new(
            "tensor.sweep_ms_per_token",
            sweep_median * 1e3 / shapes.median_width as f64,
            "ms",
        ),
        Metric::new(
            "tensor.sweep_gflops",
            2.0 * probes.params as f64 * shapes.median_width as f64 / sweep_median.max(1e-12) / 1e9,
            "gflop/s",
        ),
        Metric::new("tensor.step_share", share(sweep_total), "share"),
        Metric::new("core.quantize_ns_per_row", probes.quantize_row * 1e9, "ns"),
        Metric::new(
            "core.encoded_bytes_per_row",
            probes.encoded_bytes_per_row,
            "bytes",
        ),
        Metric::new(
            "core.quantize_step_share",
            share(probes.quantize_row * rows_encoded as f64),
            "share",
        ),
        Metric::new("mmu.write_token_ns", probes.mmu_write_token * 1e9, "ns"),
        Metric::new("mmu.page_fill_share", trace.page_fill_at_peak, "share"),
        Metric::new("mmu.swap_us_per_page", probes.mmu_swap_page * 1e6, "us"),
        Metric::new(
            "mmu.swap_bytes",
            (stats.swap_bytes_to_host + stats.swap_bytes_to_device) as f64,
            "bytes",
        ),
        Metric::new(
            "model.attn_fused_ns_per_row",
            probes.attend_fused * 1e9 / attended,
            "ns",
        ),
        Metric::new(
            "model.attn_exact_ns_per_row",
            probes.attend_exact * 1e9 / attended,
            "ns",
        ),
        Metric::new("model.attn_step_share", share(attention_total), "share"),
        Metric::new(
            "model.kv_read_bytes_per_token",
            stats.kv_reads.fused_bytes as f64 / tokens_fed.max(1) as f64,
            "bytes",
        ),
        Metric::new(
            "model.pool_append_us_per_token",
            probes.pool_append_token * 1e6,
            "us",
        ),
        Metric::new("model.prefix_alloc_us", probes.prefix_alloc * 1e6, "us"),
        Metric::new(
            "model.prefix_hit_share",
            stats.prefix.tokens_reused as f64 / trace.prompt_tokens_submitted.max(1) as f64,
            "share",
        ),
        Metric::new("model.suspend_resume_us", probes.suspend_resume * 1e6, "us"),
        Metric::new("serving.step_ms_p50", percentile(&step_ms, 50.0), "ms"),
        Metric::new("serving.step_ms_p99", percentile(&step_ms, 99.0), "ms"),
        Metric::new("serving.ticks", trace.replay.clock as f64, "count"),
        Metric::new(
            "serving.batch_occupancy_mean",
            working
                .iter()
                .map(|&i| trace.ticks[i].active as f64)
                .sum::<f64>()
                / steps
                / MAX_BATCH as f64,
            "share",
        ),
        Metric::new(
            "serving.tokens_fed_per_step_mean",
            tokens_fed as f64 / steps,
            "count",
        ),
        Metric::new(
            "serving.prefill_step_share",
            working
                .iter()
                .filter(|&&i| trace.ticks[i].prefill_tokens > 0)
                .count() as f64
                / steps,
            "share",
        ),
        Metric::new(
            "serving.queue_wait_ticks_p90",
            percentile(&waits, 90.0),
            "ticks",
        ),
        Metric::new(
            "serving.admission_stalls",
            stats.admission_stalls as f64,
            "count",
        ),
        Metric::new("serving.preemptions", stats.preemptions as f64, "count"),
        // Pool append already contains the quantizer and the page-table
        // writes, so core and mmu are not subtracted a second time.
        Metric::new(
            "serving.unattributed_share",
            1.0 - share(sweep_total + attention_total + append_total),
            "share",
        ),
        Metric::new(
            "service.submit_us_per_request",
            served.submit_secs * 1e6 / schedule.len() as f64,
            "us",
        ),
        Metric::new("service.drain_ms", served.drain_secs * 1e3, "ms"),
        // One replay against the one made just before it, both as
        // observed: a ratio of two single runs, as noisy as either.
        Metric::new(
            "trace.overhead_share",
            trace.replay.timeline().wall() / served.replay.timeline().wall().max(1e-12) - 1.0,
            "share",
        ),
    ];
    cluster_metrics(setup, spec, schedule, &mut out);
    out
}
