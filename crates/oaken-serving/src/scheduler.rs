//! Token-level batch scheduling (§5.3): in the generation phase each
//! compute core owns one request's token. The engine asks for one
//! least-loaded assignment per iteration and reports its core utilization.

/// Assignment of requests to compute cores for one generation iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreAssignment {
    /// `core_of[i]` = core executing request `i` of the active set.
    pub core_of: Vec<usize>,
    /// Number of physical cores.
    pub num_cores: usize,
}

impl CoreAssignment {
    /// Fraction of cores with at least one request this iteration —
    /// the generation-phase utilization picture of Figure 3(b).
    pub fn core_utilization(&self) -> f64 {
        let mut busy = vec![false; self.num_cores];
        for &c in &self.core_of {
            busy[c] = true;
        }
        busy.iter().filter(|&&b| b).count() as f64 / self.num_cores.max(1) as f64
    }
}

/// The token-level scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenScheduler {
    /// Physical compute cores.
    pub num_cores: usize,
}

impl TokenScheduler {
    /// Creates a scheduler for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn new(num_cores: usize) -> Self {
        assert!(num_cores > 0, "need at least one core");
        Self { num_cores }
    }

    /// Least-loaded generation assignment: requests are placed on the core
    /// with the smallest accumulated load, heaviest requests first (LPT
    /// scheduling). `loads[i]` is request `i`'s per-iteration cost — in
    /// generation that is its context length, since attention reads the
    /// whole cached prefix — so long-context requests stop piling onto the
    /// same core the way position-based round-robin lets them.
    pub fn assign_generation_least_loaded(&self, loads: &[f64]) -> CoreAssignment {
        let mut order: Vec<usize> = (0..loads.len()).collect();
        // Heaviest first; ties broken by request index for determinism.
        order.sort_by(|&a, &b| {
            loads[b]
                .partial_cmp(&loads[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut core_load = vec![0.0f64; self.num_cores];
        let mut core_of = vec![0usize; loads.len()];
        for req in order {
            let core = core_load
                .iter()
                .enumerate()
                .min_by(|(ca, la), (cb, lb)| {
                    la.partial_cmp(lb)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(ca.cmp(cb))
                })
                .map(|(c, _)| c)
                .expect("at least one core");
            core_of[req] = core;
            core_load[core] += loads[req];
        }
        CoreAssignment {
            core_of,
            num_cores: self.num_cores,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Position-based round-robin (request `i` → core `i % cores`): the
    /// assignment least-loaded is measured against.
    fn round_robin(active: usize, cores: usize) -> CoreAssignment {
        CoreAssignment {
            core_of: (0..active).map(|i| i % cores).collect(),
            num_cores: cores,
        }
    }

    /// Most requests multiplexed onto one core (>1 means the iteration
    /// serializes).
    fn max_per_core(a: &CoreAssignment) -> usize {
        let mut counts = vec![0usize; a.num_cores];
        for &c in &a.core_of {
            counts[c] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn small_batches_underutilize_cores() {
        let s = TokenScheduler::new(256);
        let a = s.assign_generation_least_loaded(&[1.0; 16]);
        assert!((a.core_utilization() - 16.0 / 256.0).abs() < 1e-9);
        assert_eq!(max_per_core(&a), 1);
    }

    #[test]
    fn oversubscription_serializes() {
        let s = TokenScheduler::new(256);
        let a = s.assign_generation_least_loaded(&[1.0; 512]);
        assert_eq!(a.core_utilization(), 1.0);
        assert_eq!(max_per_core(&a), 2);
    }

    #[test]
    fn least_loaded_beats_round_robin_on_skewed_contexts() {
        let s = TokenScheduler::new(2);
        // Index-based round-robin stacks the long contexts (even indices)
        // onto core 0; least-loaded must split them and never finish later
        // than round-robin's slowest core.
        let loads = [800.0, 100.0, 700.0, 90.0, 600.0, 80.0];
        let max_core_load = |a: &CoreAssignment| {
            let mut per_core = vec![0.0f64; a.num_cores];
            for (i, &c) in a.core_of.iter().enumerate() {
                per_core[c] += loads[i];
            }
            per_core.into_iter().fold(0.0f64, f64::max)
        };
        let rr = round_robin(loads.len(), 2);
        let ll = s.assign_generation_least_loaded(&loads);
        assert!(ll.core_of.iter().all(|&c| c < 2));
        assert_ne!(ll.core_of[0], ll.core_of[2], "two heaviest must split");
        assert!(
            max_core_load(&ll) <= max_core_load(&rr),
            "least-loaded {} vs round-robin {}",
            max_core_load(&ll),
            max_core_load(&rr)
        );
        assert_eq!(ll.core_utilization(), 1.0);
    }

    /// Regression: on *shrinking* active sets (requests completing during
    /// generation, Figure 3b), the utilization picture reported by
    /// round-robin and least-loaded must agree — both fill `min(active,
    /// cores)` cores with at most `ceil(active/cores)` requests each.
    #[test]
    fn utilization_agrees_between_strategies_on_shrinking_sets() {
        let s = TokenScheduler::new(16);
        for active in (0..=48).rev() {
            let rr = round_robin(active, 16);
            let loads: Vec<f64> = (0..active).map(|i| 64.0 + i as f64).collect();
            let ll = s.assign_generation_least_loaded(&loads);
            let expected_util = (active.min(16)) as f64 / 16.0;
            assert!(
                (rr.core_utilization() - expected_util).abs() < 1e-9,
                "rr at {active}"
            );
            assert!(
                (ll.core_utilization() - expected_util).abs() < 1e-9,
                "ll at {active}"
            );
            assert_eq!(
                max_per_core(&rr),
                active.div_ceil(16),
                "rr rounds at {active}"
            );
            assert_eq!(
                max_per_core(&ll),
                max_per_core(&rr),
                "ll rounds at {active}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn rejects_zero_cores() {
        TokenScheduler::new(0);
    }
}
