//! Multi-replica request placement.
//!
//! The router sees every arrival before any engine does and decides which
//! replica serves it. Its leverage is the prefix trie: quantization is
//! prefix-deterministic, so a replica that already holds a prompt's
//! prefix can skip both the forward pass and the quantization for the
//! shared tokens — but only if the request actually lands there. The
//! affinity policy probes every replica's prefill trie for the longest
//! shared prefix and scores replicas by tokens reused minus a load
//! penalty; when nothing matches anywhere it degrades to least-loaded
//! placement. Placement is a pure function of the probe results and the
//! router's own counters, so cluster runs replay deterministically.

/// Placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterPolicy {
    /// Prefix-affinity scoring (the default): every replica's prefill
    /// trie is probed for the arriving prompt, and the replica with the
    /// best `tokens_matched × 1000 − outstanding_load` score wins (ties
    /// to the lowest index). The weight makes any positive match dominate
    /// realistic load gaps — affinity splits a prefix family across
    /// replicas only under a thousand-request load imbalance — which is
    /// what makes "affinity never reuses fewer tokens than round-robin"
    /// a provable property, not a heuristic tendency. Requests matching
    /// nowhere fall back to least-loaded.
    #[default]
    Affinity,
    /// Strict rotation, ignoring both tries and load — the baseline the
    /// affinity headlines are measured against.
    RoundRobin,
    /// Lowest outstanding load (ties to the lowest index), ignoring
    /// tries — the classic load balancer.
    LeastLoaded,
}

/// What the router knows about one replica at placement time.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaProbe {
    /// Prompt tokens the replica's prefill trie already holds (longest
    /// shared prefix, in tokens).
    pub matched_tokens: usize,
    /// Outstanding work on the replica: requests active, queued, or
    /// suspended on either engine, plus transfers still in flight to it.
    pub load: u64,
}

/// Placement counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Requests placed.
    pub placed: u64,
    /// Placements that followed a positive trie match.
    pub affinity_hits: u64,
    /// Prompt tokens matched at placement time, summed over placements
    /// (an upper bound on alloc-time reuse: the trie can evolve between
    /// placement and admission).
    pub matched_tokens: u64,
    /// Affinity placements that matched nowhere and fell back to
    /// least-loaded.
    pub fallbacks: u64,
}

/// The placement engine: policy + counters + the round-robin cursor.
#[derive(Debug)]
pub struct Router {
    policy: RouterPolicy,
    stats: RouterStats,
    next_rr: usize,
}

impl Router {
    /// A router with the given policy.
    pub fn new(policy: RouterPolicy) -> Self {
        Self {
            policy,
            stats: RouterStats::default(),
            next_rr: 0,
        }
    }

    /// The installed policy.
    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// Placement counters so far.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Chooses the replica for one arrival given each replica's probe.
    ///
    /// # Panics
    ///
    /// Panics on an empty probe slice.
    pub fn place(&mut self, probes: &[ReplicaProbe]) -> usize {
        assert!(!probes.is_empty(), "a cluster has at least one replica");
        self.stats.placed += 1;
        match self.policy {
            RouterPolicy::RoundRobin => {
                let r = self.next_rr % probes.len();
                self.next_rr = (self.next_rr + 1) % probes.len();
                r
            }
            RouterPolicy::LeastLoaded => least_loaded(probes),
            RouterPolicy::Affinity => {
                if probes.iter().all(|p| p.matched_tokens == 0) {
                    self.stats.fallbacks += 1;
                    return least_loaded(probes);
                }
                // score = tokens reused − load penalty, with the match
                // weighted so it dominates realistic load imbalances.
                let r = probes
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, p)| {
                        (
                            p.matched_tokens as i64 * 1000 - p.load as i64,
                            std::cmp::Reverse(i),
                        )
                    })
                    .map(|(i, _)| i)
                    .expect("non-empty");
                self.stats.affinity_hits += 1;
                self.stats.matched_tokens += probes[r].matched_tokens as u64;
                r
            }
        }
    }
}

/// Lowest load, ties to the lowest index.
fn least_loaded(probes: &[ReplicaProbe]) -> usize {
    probes
        .iter()
        .enumerate()
        .min_by_key(|&(i, p)| (p.load, i))
        .map(|(i, _)| i)
        .expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(matched: usize, load: u64) -> ReplicaProbe {
        ReplicaProbe {
            matched_tokens: matched,
            load,
        }
    }

    #[test]
    fn affinity_prefers_longest_match_then_load_then_index() {
        let mut r = Router::new(RouterPolicy::Affinity);
        assert_eq!(r.place(&[probe(4, 9), probe(8, 9), probe(0, 0)]), 1);
        // Equal matches: lighter replica wins.
        assert_eq!(r.place(&[probe(8, 5), probe(8, 3)]), 1);
        // Full tie: lowest index wins.
        assert_eq!(r.place(&[probe(8, 3), probe(8, 3)]), 0);
        // A positive match beats a big load gap...
        assert_eq!(r.place(&[probe(1, 900), probe(0, 0)]), 0);
        // ...until the gap reaches the 1000×match weight.
        assert_eq!(r.place(&[probe(1, 1001), probe(0, 0)]), 1);
        let s = r.stats();
        assert_eq!(s.placed, 5);
        assert_eq!(s.affinity_hits, 5);
        assert_eq!(s.fallbacks, 0);
        assert_eq!(s.matched_tokens, 8 + 8 + 8 + 1);
    }

    #[test]
    fn affinity_falls_back_to_least_loaded_on_no_match() {
        let mut r = Router::new(RouterPolicy::Affinity);
        assert_eq!(r.place(&[probe(0, 7), probe(0, 2), probe(0, 2)]), 1);
        assert_eq!(r.stats().fallbacks, 1);
        assert_eq!(r.stats().affinity_hits, 0);
    }

    #[test]
    fn round_robin_rotates_regardless_of_state() {
        let mut r = Router::new(RouterPolicy::RoundRobin);
        let probes = [probe(100, 0), probe(0, 100), probe(0, 0)];
        let picks: Vec<usize> = (0..6).map(|_| r.place(&probes)).collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2]);
    }
}
