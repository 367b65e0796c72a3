//! What a run prints and writes: one line per metric, the result object
//! the driver reads from the last line, and `run.json` for `compare`.

use crate::json::{num, quote};
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// The same metric on each timed repeat's own, unreduced timeline
    /// (empty for metrics that are not reduced across repeats).
    pub raw: Vec<f64>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value,
            unit,
            raw: Vec::new(),
        }
    }

    pub fn with_raw(mut self, raw: Vec<f64>) -> Self {
        self.raw = raw;
        self
    }
}

/// Everything one workload's run produced.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    pub workload: &'static str,
    /// Requests submitted over all replays, and how many of them did not
    /// finish.
    pub attempted: usize,
    pub failed: usize,
    /// Output-check failures; empty when the run is correct.
    pub failures: Vec<String>,
    pub digest: u64,
    pub ticks: u64,
    /// Timed repeats whose reference loop ran slow (0-based).
    pub noisy_repeats: Vec<usize>,
    /// Reference-loop seconds before and after each timed repeat.
    pub reference_secs: Vec<(f64, f64)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Free-form facts about the run (sample counts, pool size).
    pub info: Vec<(&'static str, String)>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The human-readable lines: one per metric (workload, name, value,
    /// unit), raw per-repeat values beside the reduced ones.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        let w = self.workload;
        let _ = writeln!(
            out,
            "info {w} digest {:016x} ticks {}",
            self.digest, self.ticks
        );
        for (key, value) in &self.info {
            let _ = writeln!(out, "info {w} {key} {value}");
        }
        for (i, (before, after)) in self.reference_secs.iter().enumerate() {
            let noisy = if self.noisy_repeats.contains(&i) {
                " noisy"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "info {w} repeat {i} reference_ms {:.2} {:.2}{noisy}",
                before * 1e3,
                after * 1e3
            );
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let _ = write!(out, "metric {w} {} {} {}", m.name, num(m.value), m.unit);
            if !m.raw.is_empty() {
                let raw: Vec<String> = m.raw.iter().map(|&v| num(v)).collect();
                let _ = write!(out, " raw {}", raw.join(" "));
            }
            out.push('\n');
        }
        out
    }

    fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>, with_raw: bool) -> String {
        let items: Vec<String> = metrics
            .map(|m| {
                let raw = if with_raw && !m.raw.is_empty() {
                    let raw: Vec<String> = m.raw.iter().map(|&v| num(v)).collect();
                    format!(", \"raw\": [{}]", raw.join(", "))
                } else {
                    String::new()
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}{raw}}}",
                    quote(m.name),
                    num(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }

    /// The result object the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics = self.end_to_end.iter().chain(&self.per_layer);
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            Self::metrics_json(metrics, false)
        )
    }

    /// This workload's entry of `run.json`.
    pub fn run_json(&self) -> String {
        let noisy: Vec<String> = self.noisy_repeats.iter().map(usize::to_string).collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"digest\": \"{:016x}\", \"ticks\": {}, \"noisy_repeats\": [{}], \"end_to_end\": {}, \"per_layer\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.digest,
            self.ticks,
            noisy.join(", "),
            Self::metrics_json(self.end_to_end.iter(), true),
            Self::metrics_json(self.per_layer.iter(), true)
        )
    }
}

/// The whole `run.json` document.
pub fn run_json(seed: u64, host: &str, results: &[WorkloadResult]) -> String {
    let workloads: Vec<String> = results
        .iter()
        .map(|r| format!("{}: {}", quote(r.workload), r.run_json()))
        .collect();
    format!(
        "{{\"seed\": {seed}, \"host\": {host}, \"workloads\": {{{}}}}}\n",
        workloads.join(", ")
    )
}
