//! Deterministic fault injection for the memory hierarchy.
//!
//! A [`FaultPlan`] is a *seeded schedule* of injectable faults, not a
//! random one: whether attempt `n` of operation `op` fails is a pure
//! function of `(seed, op, n)`. Two runs with the same plan over the
//! same logical operation sequence inject the identical faults — which
//! is what lets the chaos property tests replay a failing case, and what
//! keeps the engine's degradation paths (retry, backoff, demotion)
//! bit-reproducible at every thread count: callers poll faults at the
//! *pre-check boundary* of each operation, on the single MMU-writer
//! thread, in serial item order.
//!
//! Faults come in two severities, chosen by the same hash:
//!
//! * [`FaultKind::Transient`] — this one attempt fails; the next attempt
//!   of the same operation polls a fresh coin (retry-able);
//! * [`FaultKind::Persistent`] — the operation keeps failing for a burst
//!   of consecutive polls (the plan's `burst` length), modelling a stuck
//!   transfer engine or an exhausted tier that will not recover soon —
//!   retries are futile and the caller must degrade.
//!
//! The hooks are **zero-cost when disabled**: with no plan installed the
//! poll is a single `Option` discriminant check and the engine's output
//! is bit-identical to a build without the feature.

use std::fmt;

/// Injectable operation classes, one attempt-counter stream each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Device page allocation on the append path.
    DeviceAlloc,
    /// Host page allocation when a suspend charges the swap tier.
    HostAlloc,
    /// Device → host transfer during a suspend.
    SwapOut,
    /// Host → device transfer during a resume.
    SwapIn,
}

impl FaultOp {
    /// All operation classes, for stats iteration.
    pub const ALL: [FaultOp; 4] = [
        FaultOp::DeviceAlloc,
        FaultOp::HostAlloc,
        FaultOp::SwapOut,
        FaultOp::SwapIn,
    ];

    fn index(self) -> usize {
        match self {
            FaultOp::DeviceAlloc => 0,
            FaultOp::HostAlloc => 1,
            FaultOp::SwapOut => 2,
            FaultOp::SwapIn => 3,
        }
    }

    /// Per-op salt folded into the hash so the four attempt streams are
    /// independent.
    fn salt(self) -> u64 {
        match self {
            FaultOp::DeviceAlloc => 0x0DE5_1CE0,
            FaultOp::HostAlloc => 0x0057_A110,
            FaultOp::SwapOut => 0x5A00_0007,
            FaultOp::SwapIn => 0x5A00_0001,
        }
    }
}

impl fmt::Display for FaultOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultOp::DeviceAlloc => "device-alloc",
            FaultOp::HostAlloc => "host-alloc",
            FaultOp::SwapOut => "swap-out",
            FaultOp::SwapIn => "swap-in",
        };
        f.write_str(s)
    }
}

/// Severity of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// One attempt fails; an immediate retry polls a fresh coin.
    Transient,
    /// The operation fails for a burst of consecutive polls; retrying
    /// within the burst is futile and callers should degrade.
    Persistent,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Transient => "transient",
            FaultKind::Persistent => "persistent",
        })
    }
}

/// A deterministic, seeded fault schedule (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the schedule; same seed, same faults.
    pub seed: u64,
    /// Injection probability per eligible operation, in permille
    /// (`25` = 2.5% of polls fault).
    pub rate_permille: u16,
    /// Polls a persistent fault keeps failing for (>= 1).
    pub burst: u8,
}

impl FaultPlan {
    /// Default injection rate: 2.5% of polled operations fault.
    pub const DEFAULT_RATE_PERMILLE: u16 = 25;
    /// Default persistent-burst length.
    pub const DEFAULT_BURST: u8 = 3;

    /// A plan with the default rate and burst length.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rate_permille: Self::DEFAULT_RATE_PERMILLE,
            burst: Self::DEFAULT_BURST,
        }
    }

    /// Same plan with a different injection rate (clamped to 1000‰).
    pub fn with_rate_permille(mut self, rate: u16) -> Self {
        self.rate_permille = rate.min(1000);
        self
    }
}

/// Counters over injected faults (one [`FaultInjector`]'s lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total faults injected (transient + every poll of a burst).
    pub injected: u64,
    /// Transient faults injected.
    pub transient: u64,
    /// Persistent-burst polls failed (each burst counts `burst` times).
    pub persistent: u64,
    /// Injections per operation class, indexed by [`FaultOp::ALL`] order.
    pub by_op: [u64; 4],
}

/// Stateful evaluator of a [`FaultPlan`]: per-op attempt counters plus
/// the remaining length of an in-flight persistent burst.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    attempts: [u64; 4],
    burst_left: [u8; 4],
    stats: FaultStats,
}

/// `splitmix64` finalizer — a well-mixed 64-bit hash of the input.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// Creates an injector at the start of `plan`'s schedule.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            attempts: [0; 4],
            burst_left: [0; 4],
            stats: FaultStats::default(),
        }
    }

    /// The installed plan.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Polls the schedule for one attempt of `op`: `None` means the
    /// operation proceeds, `Some(kind)` means the caller must fail it
    /// *without mutating any state* (injection sites sit at pre-check
    /// boundaries, so a faulted operation is a no-op).
    pub fn poll(&mut self, op: FaultOp) -> Option<FaultKind> {
        let i = op.index();
        if self.burst_left[i] > 0 {
            self.burst_left[i] -= 1;
            self.record(op, FaultKind::Persistent);
            return Some(FaultKind::Persistent);
        }
        let n = self.attempts[i];
        self.attempts[i] += 1;
        let h = mix(self.plan.seed ^ op.salt().wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (n << 8));
        if (h % 1000) as u16 >= self.plan.rate_permille {
            return None;
        }
        let kind = if (h >> 32) & 1 == 0 {
            FaultKind::Transient
        } else {
            // The current poll is the first failure of the burst.
            self.burst_left[i] = self.plan.burst.max(1) - 1;
            FaultKind::Persistent
        };
        self.record(op, kind);
        Some(kind)
    }

    fn record(&mut self, op: FaultOp, kind: FaultKind) {
        self.stats.injected += 1;
        self.stats.by_op[op.index()] += 1;
        match kind {
            FaultKind::Transient => self.stats.transient += 1,
            FaultKind::Persistent => self.stats.persistent += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic() {
        let mut a = FaultInjector::new(FaultPlan::new(7));
        let mut b = FaultInjector::new(FaultPlan::new(7));
        for i in 0..4000 {
            let op = FaultOp::ALL[i % 4];
            assert_eq!(a.poll(op), b.poll(op), "attempt {i} diverged");
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn rate_is_roughly_honored() {
        let mut inj = FaultInjector::new(FaultPlan::new(11).with_rate_permille(100));
        let mut injected = 0u64;
        for _ in 0..10_000 {
            if inj.poll(FaultOp::DeviceAlloc).is_some() {
                injected += 1;
            }
        }
        // 10% nominal, persistent bursts push the realized rate up a bit.
        assert!(
            (500..3000).contains(&injected),
            "10k polls at 100 permille injected {injected}"
        );
        assert_eq!(inj.stats().injected, injected);
    }

    #[test]
    fn persistent_bursts_fail_consecutively() {
        let plan = FaultPlan::new(3).with_rate_permille(200);
        let mut inj = FaultInjector::new(plan);
        for _ in 0..100_000 {
            if inj.poll(FaultOp::SwapIn) == Some(FaultKind::Persistent) {
                // The remaining polls of the burst must all fail.
                for j in 1..plan.burst {
                    assert_eq!(
                        inj.poll(FaultOp::SwapIn),
                        Some(FaultKind::Persistent),
                        "burst poll {j} did not fail"
                    );
                }
                return;
            }
        }
        panic!("no persistent fault in 100k polls at 20%");
    }

    #[test]
    fn op_streams_are_independent() {
        let plan = FaultPlan::new(5).with_rate_permille(500);
        let mut solo = FaultInjector::new(plan);
        let solo_seq: Vec<_> = (0..200).map(|_| solo.poll(FaultOp::DeviceAlloc)).collect();
        // Interleaving other ops must not perturb DeviceAlloc's stream.
        let mut mixed = FaultInjector::new(plan);
        let mixed_seq: Vec<_> = (0..200)
            .map(|_| {
                mixed.poll(FaultOp::HostAlloc);
                mixed.poll(FaultOp::SwapOut);
                mixed.poll(FaultOp::DeviceAlloc)
            })
            .collect();
        assert_eq!(solo_seq, mixed_seq);
    }

    #[test]
    fn env_knob_parses_seed() {
        // A bare seed (what `serve --fault-seed` passes) selects the
        // default rate and burst; rates clamp at 1000 permille.
        let p = FaultPlan::new(42);
        assert_eq!(p.rate_permille, FaultPlan::DEFAULT_RATE_PERMILLE);
        assert_eq!(p.burst, FaultPlan::DEFAULT_BURST);
        assert_eq!(p.with_rate_permille(2000).rate_permille, 1000);
    }
}
