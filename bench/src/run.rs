//! One workload's run: set-up, timed repeats and output check for the
//! end-to-end half; serve runs, traced replays and layer probes for the
//! per-layer half; folded into a `WorkloadResult`.

use crate::host::{host_factor, peak_rss_mb, reference_secs, NOISY_SHARE};
use crate::layers::{per_layer_metrics, CapturedRows, ProbeShapes, Probes};
use crate::report::{Metric, WorkloadResult};
use crate::timed::{percentile, timed_repeat, Latency, Replay, TimedRepeat, Timeline};
use crate::traced::traced_replay;
use crate::verify::{fused_identical, token_match_fp32, Checks};
use crate::workload::{schedule, Setup, Spec};
use std::path::PathBuf;
use std::time::Instant;

/// Which halves of the benchmark a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Timed repeats only: the end-to-end metrics (`--trace 0`).
    EndToEnd,
    /// Traced replays and layer probes only: the per-layer metrics
    /// (`--trace 1`).
    PerLayer,
    /// Both (no `--trace` given).
    Both,
}

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Seconds each half is sized for. The replay counts follow from it
    /// and the workload's nominal replay time, never from the clock: a
    /// slow host makes a run longer, not a different estimate.
    pub seconds: f64,
    pub mode: Mode,
    /// Seconds each layer probe samples for, per round.
    pub probe_secs: f64,
    /// Directory for `trace.<workload>.json`.
    pub out: PathBuf,
}

/// Seconds a round of the per-layer half (a traced replay and every
/// probe) is sized for; fixes the number of rounds from `--seconds`.
const ROUND_SECONDS: f64 = 5.0;

/// A half that took this many times `--seconds` is flagged
/// `over_budget`.
const OVER_BUDGET: f64 = 1.5;

/// Builds the set-up — model synthesis, threshold profiling, pool
/// construction — and returns it with the seconds it took.
fn timed_setup(spec: &Spec) -> (Setup, f64) {
    let start = Instant::now();
    let setup = Setup::build(spec);
    std::hint::black_box(setup.pool());
    (setup, start.elapsed().as_secs_f64())
}

/// How many times a schedule replays in `seconds`.
fn repeats_for(seconds: f64, nominal: f64) -> usize {
    ((seconds / nominal).round() as usize).max(2)
}

fn budget_info(result: &mut WorkloadResult, key: &'static str, began: Instant, seconds: f64) {
    let took = began.elapsed().as_secs_f64();
    let flag = if took > OVER_BUDGET * seconds {
        " over_budget"
    } else {
        ""
    };
    result.info.push((key, format!("{took:.1}{flag}")));
}

fn end_to_end(spec: &Spec, opts: &Options, result: &mut WorkloadResult, checks: &mut Checks) {
    let began = Instant::now();
    let sched = schedule(spec, opts.seed);
    let (setup, first) = timed_setup(spec);
    // Before every repeat a set-up and a reference reading are timed
    // (`setup_s` is the median of the set-ups), so that one slow second
    // of the host decides neither.
    let mut setup_secs = vec![first];
    let mut references = Vec::new();
    let mut runs: Vec<TimedRepeat> = Vec::new();
    let mut rss = 0.0;
    for _ in 0..repeats_for(opts.seconds, spec.repeat_seconds) {
        if !runs.is_empty() {
            setup_secs.push(timed_setup(spec).1);
        }
        references.push(reference_secs());
        runs.push(timed_repeat(&setup, &sched));
        // Read after the first repeat: later ones add whatever the
        // allocator keeps in each arena an engine thread happened to get,
        // which differs from run to run (24-39 MB on `chat_short`).
        if runs.len() == 1 {
            rss = peak_rss_mb();
        }
    }
    references.push(reference_secs());
    let replays: Vec<&Replay> = runs.iter().map(|r| &r.replay).collect();
    checks.same_replays(spec.name, &replays);
    for (i, r) in runs.iter().enumerate() {
        checks.require(r.drained_empty, || {
            format!(
                "{}: repeat {i} left pages or sequences in the pool",
                spec.name
            )
        });
        checks.require(r.replay.failed() == 0, || {
            format!(
                "{}: repeat {i} had {} unfinished requests",
                spec.name,
                r.replay.failed()
            )
        });
    }
    let attempted = runs.len() * sched.len();
    let failed: usize = runs.iter().map(|r| r.replay.failed()).sum();
    result.attempted += attempted;
    result.failed += failed;
    result.digest = replays[0].digest();
    result.ticks = replays[0].clock;

    // Every time below is divided by this: 1 unless the host was slow
    // throughout the run.
    let host = host_factor(&references);
    let best_reference = references.iter().copied().fold(f64::INFINITY, f64::min);
    result.reference_secs = references.windows(2).map(|w| (w[0], w[1])).collect();
    result.noisy_repeats = (0..runs.len())
        .filter(|&i| references[i].max(references[i + 1]) > best_reference * (1.0 + NOISY_SHARE))
        .collect();

    // `None` only when the repeats delivered on different ticks, which
    // `same_replays` has just recorded as a failure.
    let Some(timeline) = Timeline::reduced(&replays) else {
        return;
    };
    let reduced = Latency::of(&timeline, &sched, replays[0]);
    let raw: Vec<Latency> = runs
        .iter()
        .map(|r| Latency::of(&r.replay.timeline(), &sched, &r.replay))
        .collect();
    checks.require(
        fused_identical(&setup, spec, &sched, &replays[0].requests),
        || {
            format!(
                "{}: a fused QuantizedCache session did not regenerate the engine's tokens",
                spec.name
            )
        },
    );
    let (token_match, match_positions) = token_match_fp32(&setup, spec);

    let stats = &replays[0].stats;
    let wall = |pick: fn(&Latency) -> f64, name, unit| {
        Metric::new(name, pick(&reduced) / host, unit).with_raw(raw.iter().map(pick).collect())
    };
    result.end_to_end = vec![
        Metric::new("tokens_per_s", reduced.tokens_per_s * host, "1/s")
            .with_raw(raw.iter().map(|l| l.tokens_per_s).collect()),
        wall(|l| l.ttft_ms_p50, "ttft_ms_p50", "ms"),
        wall(|l| l.ttft_ms_p90, "ttft_ms_p90", "ms"),
        wall(|l| l.itl_ms_p50, "itl_ms_p50", "ms"),
        wall(|l| l.itl_ms_p99, "itl_ms_p99", "ms"),
        Metric::new(
            "finished_share",
            1.0 - failed as f64 / attempted as f64,
            "share",
        ),
        Metric::new(
            "peak_kv_mb",
            stats.pages_in_use_peak as f64 * setup.page_size as f64 / 1e6,
            "MB",
        ),
        Metric::new("peak_rss_mb", rss, "MB"),
        Metric::new("token_match_fp32", token_match, "share"),
        Metric::new("setup_s", percentile(&setup_secs, 50.0) / host, "s"),
    ];
    result.info.extend([
        ("repeats", runs.len().to_string()),
        ("setups_timed", setup_secs.len().to_string()),
        ("requests", sched.len().to_string()),
        ("ttft_samples", reduced.ttft_samples.to_string()),
        ("itl_samples", reduced.itl_samples.to_string()),
        ("token_match_positions", match_positions.to_string()),
        ("pool_pages", setup.pool_pages.to_string()),
        ("pages_in_use_peak", stats.pages_in_use_peak.to_string()),
        ("reduced_wall_s", format!("{:.4}", timeline.wall())),
        ("host_factor", format!("{host:.4}")),
    ]);
    budget_info(result, "end_to_end_took_s", began, opts.seconds);
}

fn per_layer(
    spec: &Spec,
    opts: &Options,
    result: &mut WorkloadResult,
    checks: &mut Checks,
) -> std::io::Result<()> {
    let began = Instant::now();
    let sched = schedule(spec, opts.seed);
    let setup = Setup::build(spec);
    // One `serve` run, then rounds of a traced replay followed by every
    // probe: spans and probes keep their minima, and alternating them
    // lets both sample the same stretches of the host's drifting speed.
    let served = timed_repeat(&setup, &sched);
    let rounds = ((opts.seconds / ROUND_SECONDS.max(spec.repeat_seconds)).round() as usize).max(1);
    let mut traces = vec![traced_replay(&setup, &sched)];
    let shapes = ProbeShapes::of(&traces[0], setup.model.config().num_layers);
    let rows = CapturedRows::capture(&setup, &sched, shapes.attended);
    let probe_round = || Probes::measure(&setup, &sched, &rows, &shapes, opts.probe_secs);
    let mut probes = probe_round();
    for _ in 1..rounds {
        traces.push(traced_replay(&setup, &sched));
        probes.keep_best(&probe_round());
    }

    let replays: Vec<&Replay> = std::iter::once(&served.replay)
        .chain(traces.iter().map(|t| &t.replay))
        .collect();
    checks.same_replays(spec.name, &replays);
    checks.require(served.drained_empty, || {
        format!(
            "{}: the serve run left pages or sequences in the pool",
            spec.name
        )
    });
    result.attempted += replays.len() * sched.len();
    result.failed += replays.iter().map(|r| r.failed()).sum::<usize>();
    result.digest = replays[0].digest();
    result.ticks = replays[0].clock;
    std::fs::create_dir_all(&opts.out)?;
    let path = opts.out.join(format!("trace.{}.json", spec.name));
    std::fs::write(&path, traces[0].chrome_json(spec.name))?;
    result.info.extend([
        ("trace_file", path.display().to_string()),
        ("traced_replays", traces.len().to_string()),
    ]);
    result.per_layer = per_layer_metrics(&setup, spec, &sched, &traces, &served, &shapes, &probes);
    budget_info(result, "per_layer_took_s", began, opts.seconds);
    Ok(())
}

/// Runs one workload. An `Err` is an I/O failure writing the trace; an
/// output-check failure comes back inside the result.
pub fn run_workload(spec: &Spec, opts: &Options) -> std::io::Result<WorkloadResult> {
    let mut result = WorkloadResult {
        workload: spec.name,
        ..WorkloadResult::default()
    };
    let mut checks = Checks::default();
    if opts.mode != Mode::PerLayer {
        end_to_end(spec, opts, &mut result, &mut checks);
    }
    // A failed end-to-end half is not worth tracing.
    if opts.mode != Mode::EndToEnd && checks.failures.is_empty() {
        per_layer(spec, opts, &mut result, &mut checks)?;
    }
    result.failures = checks.failures;
    Ok(result)
}
