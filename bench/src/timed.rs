//! Timed repeats through `oaken-service`, and the noise reduction that
//! turns them into end-to-end metrics.
//!
//! A schedule replays bit-exactly on the service clock: the same ticks
//! deliver the same tokens on every repeat, and only how long each tick
//! took varies. Receiver threads timestamp the first event of each
//! delivering tick, so a window of consecutive delivering ticks is the
//! same unit of work on every repeat. Each window is taken from the
//! repeat that ran it fastest, which removes whatever the host added to
//! the others, and every wall-clock metric is computed on the timeline
//! spliced from those windows.

use crate::workload::{engine_config, scheduler, Schedule, Setup};
use oaken_service::{serve, EngineStats, RequestOutcome, SessionHandle, StreamEvent};
use std::collections::BTreeMap;
use std::time::Instant;

/// What one request produced in one replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestRun {
    pub tokens: Vec<u32>,
    /// Service clock that delivered each token.
    pub token_clocks: Vec<u64>,
    /// Service clock of the terminal event.
    pub done_clock: u64,
    /// `None` when the stream closed without a terminal event.
    pub outcome: Option<RequestOutcome>,
}

impl RequestRun {
    pub fn finished(&self) -> bool {
        self.outcome == Some(RequestOutcome::Finished)
    }
}

/// One replay of a schedule, timed or traced.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Per request, in schedule order (index = request id).
    pub requests: Vec<RequestRun>,
    /// Service clocks that delivered at least one event, ascending.
    pub ticks: Vec<u64>,
    /// Seconds from the start of submission to the first event of each
    /// entry of `ticks`.
    pub tick_secs: Vec<f64>,
    /// Final service clock.
    pub clock: u64,
    pub stats: EngineStats,
}

impl Replay {
    /// FNV-1a over everything a replay must reproduce: each request's
    /// tokens, delivery clocks, terminal clock and outcome, and the final
    /// service clock.
    pub fn digest(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for (id, r) in self.requests.iter().enumerate() {
            eat(id as u64);
            eat(r.tokens.len() as u64);
            for (&t, &c) in r.tokens.iter().zip(&r.token_clocks) {
                eat(t as u64);
                eat(c);
            }
            eat(r.done_clock);
            eat(u64::from(r.finished()));
        }
        eat(self.clock);
        h
    }

    pub fn failed(&self) -> usize {
        self.requests.iter().filter(|r| !r.finished()).count()
    }

    pub fn decode_tokens(&self) -> usize {
        self.requests.iter().map(|r| r.tokens.len()).sum()
    }

    /// This replay's own (unreduced) timeline.
    pub fn timeline(&self) -> Timeline {
        Timeline {
            ticks: self.ticks.clone(),
            secs: self.tick_secs.clone(),
        }
    }
}

/// One timed repeat: the replay plus what only the service path shows.
#[derive(Debug, Clone)]
pub struct TimedRepeat {
    pub replay: Replay,
    /// Wall time of `submit_schedule`.
    pub submit_secs: f64,
    /// Last terminal event received → `serve` returned.
    pub drain_secs: f64,
    pub drained_empty: bool,
}

/// Replays `schedule` once through `serve`: one engine thread, and one
/// receiver thread per session blocked in `SessionHandle::recv`, each
/// timestamping the events it is woken for. Nothing polls: on the
/// reference host the two virtual CPUs do not add up to two cores (a
/// compute loop that takes 4 ms alone takes 11–47 ms, in stretches,
/// while another thread spins), so a spinning client slows the engine it
/// times by a different amount on every repeat.
pub fn timed_repeat(setup: &Setup, schedule: &Schedule) -> TimedRepeat {
    let pool = setup.pool();
    let outer = Instant::now();
    let ((received, submit_secs), report) =
        serve(&setup.model, pool, scheduler(), engine_config(), |client| {
            let start = Instant::now();
            let handles = client.submit_schedule(schedule.iter().cloned());
            let submit_secs = start.elapsed().as_secs_f64();
            let received: Vec<(RequestRun, Vec<(u64, f64)>)> = std::thread::scope(|scope| {
                let receivers: Vec<_> = handles
                    .into_iter()
                    .map(|handle| scope.spawn(move || receive(&handle, start)))
                    .collect();
                receivers
                    .into_iter()
                    .map(|r| r.join().expect("receiver thread panicked"))
                    .collect()
            });
            (received, submit_secs)
        });
    let total = outer.elapsed().as_secs_f64();

    let mut first_seen: BTreeMap<u64, f64> = BTreeMap::new();
    let mut last_event = 0.0f64;
    let mut requests = Vec::with_capacity(received.len());
    for (run, seen) in received {
        for (clock, at) in seen {
            first_seen
                .entry(clock)
                .and_modify(|s| *s = s.min(at))
                .or_insert(at);
            last_event = last_event.max(at);
        }
        requests.push(run);
    }
    let mut tick_secs: Vec<f64> = first_seen.values().copied().collect();
    // A tick was delivered before any later tick was: a receiver woken
    // late for tick k must not place it after tick k + 1.
    for k in (1..tick_secs.len()).rev() {
        tick_secs[k - 1] = tick_secs[k - 1].min(tick_secs[k]);
    }
    TimedRepeat {
        replay: Replay {
            requests,
            ticks: first_seen.keys().copied().collect(),
            tick_secs,
            clock: report.clock,
            stats: report.stats.clone(),
        },
        submit_secs,
        drain_secs: (total - last_event).max(0.0),
        drained_empty: report.drained_empty(),
    }
}

/// Drains one session, returning what it produced and the service clock
/// and receipt time (seconds since `start`) of every event.
fn receive(handle: &SessionHandle, start: Instant) -> (RequestRun, Vec<(u64, f64)>) {
    let mut run = RequestRun::default();
    let mut seen = Vec::new();
    // `None`: closed without a terminal event, counted failed.
    while let Some(ev) = handle.recv() {
        let at = start.elapsed().as_secs_f64();
        match ev {
            StreamEvent::Token(t) => {
                seen.push((t.clock, at));
                run.tokens.push(t.token);
                run.token_clocks.push(t.clock);
            }
            StreamEvent::Done(end) => {
                seen.push((end.clock, at));
                run.done_clock = end.clock;
                run.outcome = Some(end.outcome);
                break;
            }
        }
    }
    (run, seen)
}

/// Wall-clock position of every delivering tick.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    pub ticks: Vec<u64>,
    pub secs: Vec<f64>,
}

/// Delivering ticks per reduction window. A receipt is stamped within a
/// thread wake-up (~0.1 ms) of its delivery, so a window must be long
/// against that for its fastest repeat to be the one that worked
/// fastest and not the one stamped luckiest: eight ticks are 10–500 ms
/// on the default workloads. Per-tick reduction would also pick, tick by
/// tick, the interval a late previous receipt had shortened.
pub const WINDOW_TICKS: usize = 8;

impl Timeline {
    /// Splices, window by window, the repeat that ran that window of
    /// [`WINDOW_TICKS`] delivering ticks fastest. Inside a window the
    /// tick times are the ones that repeat observed, except that no tick
    /// counts for more than its median over all repeats: a hiccup inside
    /// the fastest window belongs to that repeat, not to the work, and
    /// would otherwise put every gap of that tick into the tail. `None`
    /// when the replays disagree on which ticks delivered.
    pub fn reduced(replays: &[&Replay]) -> Option<Self> {
        let first = replays.first()?;
        if replays.iter().any(|r| r.ticks != first.ticks) {
            return None;
        }
        // Seconds at which tick `k` began: the delivery before it.
        let began = |r: &Replay, k: usize| if k == 0 { 0.0 } else { r.tick_secs[k - 1] };
        let took = |r: &Replay, k: usize| r.tick_secs[k] - began(r, k);
        let n = first.ticks.len();
        let mut secs = Vec::with_capacity(n);
        let mut at = 0.0f64;
        for from in (0..n).step_by(WINDOW_TICKS) {
            let to = (from + WINDOW_TICKS).min(n);
            let window = |r: &Replay| r.tick_secs[to - 1] - began(r, from);
            let best = replays
                .iter()
                .min_by(|a, b| window(a).total_cmp(&window(b)))
                .expect("at least one replay");
            for k in from..to {
                let mut across: Vec<f64> = replays.iter().map(|r| took(r, k)).collect();
                across.sort_by(f64::total_cmp);
                // The upper median: with two repeats nothing is clipped.
                at += took(best, k).min(across[across.len() / 2]);
                secs.push(at);
            }
        }
        Some(Self {
            ticks: first.ticks.clone(),
            secs,
        })
    }

    /// Seconds at which tick `clock` delivered.
    pub fn at(&self, clock: u64) -> f64 {
        match self.ticks.binary_search(&clock) {
            Ok(k) => self.secs[k],
            Err(_) => self.before(clock),
        }
    }

    /// Seconds of the last delivering tick strictly below `clock` — the
    /// instant a request scheduled for `clock` arrived (0 when nothing
    /// delivered earlier: idle ticks take no wall time).
    pub fn before(&self, clock: u64) -> f64 {
        match self.ticks.partition_point(|&t| t < clock) {
            0 => 0.0,
            k => self.secs[k - 1],
        }
    }

    /// Seconds from submission to the last delivery.
    pub fn wall(&self) -> f64 {
        self.secs.last().copied().unwrap_or(0.0)
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 for
/// an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    from_percentile(samples, p).first().copied().unwrap_or(0.0)
}

/// The samples at and beyond the nearest-rank `p`-th percentile,
/// ascending.
fn from_percentile(samples: &[f64], p: f64) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.split_off(k.clamp(1, sorted.len().max(1)) - 1)
}

/// Mean of the samples at and beyond the nearest-rank `p`-th percentile
/// (the worst `100 - p` %); 0 for an empty set. The percentile itself is
/// one sample, and where the tail is steep (a dozen stalled gaps above a
/// thousand ordinary ones) a single gap more or less above it moves it by
/// a quarter; the mean beyond it moves by that gap's share.
pub fn tail_mean(samples: &[f64], p: f64) -> f64 {
    let tail = from_percentile(samples, p);
    if tail.is_empty() {
        return 0.0;
    }
    tail.iter().sum::<f64>() / tail.len() as f64
}

/// The wall-clock end-to-end numbers of one timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    pub tokens_per_s: f64,
    pub ttft_ms_p50: f64,
    pub ttft_ms_p90: f64,
    pub itl_ms_p50: f64,
    /// Mean of the gaps at and beyond the 99th percentile ([`tail_mean`]).
    pub itl_ms_p99: f64,
    pub ttft_samples: usize,
    pub itl_samples: usize,
}

impl Latency {
    /// Time to first token is measured from the request's arrival
    /// instant on the timeline; inter-token latency is the gap between
    /// one request's consecutive tokens.
    pub fn of(timeline: &Timeline, schedule: &Schedule, replay: &Replay) -> Self {
        let mut ttft = Vec::new();
        let mut itl = Vec::new();
        for ((_, arrival), run) in schedule.iter().zip(&replay.requests) {
            if let Some(&first) = run.token_clocks.first() {
                ttft.push((timeline.at(first) - timeline.before(*arrival)) * 1e3);
            }
            for w in run.token_clocks.windows(2) {
                itl.push((timeline.at(w[1]) - timeline.at(w[0])) * 1e3);
            }
        }
        Self {
            tokens_per_s: replay.decode_tokens() as f64 / timeline.wall().max(1e-9),
            ttft_ms_p50: percentile(&ttft, 50.0),
            ttft_ms_p90: percentile(&ttft, 90.0),
            itl_ms_p50: percentile(&itl, 50.0),
            itl_ms_p99: tail_mean(&itl, 99.0),
            ttft_samples: ttft.len(),
            itl_samples: itl.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay(ticks: &[u64], secs: &[f64]) -> Replay {
        Replay {
            requests: Vec::new(),
            ticks: ticks.to_vec(),
            tick_secs: secs.to_vec(),
            clock: 0,
            stats: EngineStats::default(),
        }
    }

    /// A replay of `n` delivering ticks (clocks 0, 2, 4, ...) whose
    /// k-th receipt is stamped at `stamp(k)`.
    fn stamped(n: usize, stamp: impl Fn(usize) -> f64) -> Replay {
        let ticks: Vec<u64> = (0..n as u64).map(|k| 2 * k).collect();
        let secs: Vec<f64> = (0..n).map(stamp).collect();
        replay(&ticks, &secs)
    }

    #[test]
    fn reduction_takes_each_window_from_its_fastest_repeat() {
        let w = WINDOW_TICKS;
        // `a` runs its first window at 1 s a tick and its second at 3 s;
        // `b` the other way round.
        let pace = |first: f64, second: f64| {
            move |k: usize| {
                if k < w {
                    first * (k + 1) as f64
                } else {
                    first * w as f64 + second * (k + 1 - w) as f64
                }
            }
        };
        let a = stamped(2 * w, pace(1.0, 3.0));
        let b = stamped(2 * w, pace(3.0, 1.0));
        let t = Timeline::reduced(&[&a, &b]).unwrap();
        let expect: Vec<f64> = (1..=2 * w).map(|k| k as f64).collect();
        assert_eq!(t.secs, expect);
        assert_eq!(t.wall(), 2.0 * w as f64);
        assert_eq!(t.at(2), 2.0);
        assert_eq!(t.before(2), 1.0);
        assert_eq!(t.before(0), 0.0);
        // Clock 1 delivered nothing: it sits at the previous delivery.
        assert_eq!(t.at(1), 1.0);
    }

    #[test]
    fn late_receipts_do_not_shorten_the_reduced_wall() {
        // Every tick takes 1 s on both repeats, but each repeat stamps one
        // receipt 0.9 s late, which lengthens one interval and shortens
        // the next. Per-tick minima would sum to 2·n − 1.8; whole windows
        // keep the true wall.
        let n = 2 * WINDOW_TICKS;
        let late = |at: usize| move |k: usize| (k + 1) as f64 + if k == at { 0.9 } else { 0.0 };
        let a = stamped(n, late(2));
        let b = stamped(n, late(WINDOW_TICKS + 3));
        let t = Timeline::reduced(&[&a, &b]).unwrap();
        assert_eq!(t.wall(), n as f64);
        assert!(t.secs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn a_hiccup_in_the_fastest_window_is_clipped_to_the_tick_median() {
        // Three repeats of one window; `a` is fastest overall but its
        // third tick took 0.5 s where the others took 0.1 s.
        let n = WINDOW_TICKS;
        let pace = |step: f64, slow: f64| {
            move |k: usize| step * (k + 1) as f64 + if k >= 2 { slow } else { 0.0 }
        };
        let a = stamped(n, pace(0.1, 0.4));
        let b = stamped(n, pace(0.2, 0.0));
        let c = stamped(n, pace(0.2, 0.0));
        let t = Timeline::reduced(&[&a, &b, &c]).unwrap();
        // Every tick at `a`'s 0.1 s but the third, clipped to 0.2 s.
        assert!(
            (t.wall() - (0.1 * n as f64 + 0.1)).abs() < 1e-9,
            "{}",
            t.wall()
        );
        assert!((t.secs[2] - t.secs[1] - 0.2).abs() < 1e-9);
    }

    #[test]
    fn reduction_refuses_replays_that_disagree_on_ticks() {
        let a = replay(&[0, 1], &[1.0, 2.0]);
        let b = replay(&[0, 2], &[1.0, 2.0]);
        assert!(Timeline::reduced(&[&a, &b]).is_none());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn the_tail_mean_averages_from_the_percentile_up() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        // Nearest-rank p99 of 200 samples is the 198th: 198, 199, 200.
        assert_eq!(tail_mean(&s, 99.0), 199.0);
        assert_eq!(tail_mean(&[7.0], 99.0), 7.0);
        assert_eq!(tail_mean(&[], 99.0), 0.0);
    }
}
