//! Deterministic collective communication for rank-sharded execution.
//!
//! Tensor-parallel ranks in this repository are simulated: all ranks live in
//! one process and "communication" is a memcpy plus byte accounting. What the
//! module pins down is the *arithmetic* of the collectives, because that is
//! where real tensor-parallel systems lose bit-exactness. A floating-point
//! all-reduce is only deterministic if the combine order is fixed; ours is a
//! binomial tree over rank indices with a pinned gap-doubling schedule, so the
//! reduction order for N ranks is a pure function of N — independent of thread
//! count, scheduling, and timing.
//!
//! # Bit-exactness with 1 rank
//!
//! The serving engine shards every projection by *rows*: rank `r` computes a
//! disjoint row-range of each output vector and contributes a full-width
//! buffer that is **zero outside its owned range**. Summing zero-padded
//! disjoint-support buffers would already be value-exact, but `x + 0.0` is not
//! always bit-exact (`-0.0 + 0.0 == +0.0` flips the sign bit of a legitimate
//! `-0.0` output). The combine therefore treats bitwise `+0.0` — the padding
//! value, produced only by `vec![0.0; n]` — as the identity and returns the
//! other operand *unchanged*:
//!
//! * element owned by exactly one rank → that rank's bits pass through
//!   untouched (even `-0.0` and NaN payloads);
//! * element owned by no rank → stays `+0.0`, as in the serial run.
//!
//! Under the disjoint-support discipline no element is owned by two ranks, so
//! the `a + b` branch never fires for padded reductions; it exists so the
//! all-reduce is still a correct (tree-ordered) sum for overlapping inputs.
//!
//! # Accounting
//!
//! [`CommStats`] records what a real interconnect would move. Each all-reduce
//! of a length-`L` buffer across `N` ranks is modeled as a reduce +
//! broadcast costing `2·(N−1)·L·4` bytes (ring/tree all-reduce lower bound,
//! up to the `N/(N−1)` factor). Side-channel synchronisations that move
//! metadata rather than activations — e.g. sharing per-row quantizer scales
//! so every rank encodes its KV slice against the global min/max — are
//! charged via [`Comm::account_sync`].

use crate::chunk_range;

/// Counters for the simulated interconnect, reported in engine stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Number of all-reduce collectives executed.
    pub allreduce_calls: u64,
    /// Number of side-channel synchronisations (e.g. quantizer scale syncs).
    pub sync_calls: u64,
    /// Total modeled bytes moved across ranks, collectives plus syncs.
    pub bytes_moved: u64,
}

/// A deterministic all-reduce context for a fixed rank count.
///
/// With one rank every operation is a no-op and nothing is accounted: a
/// 1-rank group has no interconnect.
#[derive(Debug, Clone)]
pub struct Comm {
    ranks: usize,
    stats: CommStats,
}

impl Comm {
    /// A communicator for `ranks` ranks (`ranks >= 1`).
    pub fn new(ranks: usize) -> Self {
        assert!(ranks >= 1, "Comm requires at least one rank");
        Self {
            ranks,
            stats: CommStats::default(),
        }
    }

    /// The rank count this communicator was built for.
    pub fn num_ranks(&self) -> usize {
        self.ranks
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Reset counters (e.g. between warmup and a measured run).
    pub fn reset(&mut self) {
        self.stats = CommStats::default();
    }

    /// Sum `parts` element-wise across ranks and broadcast the result back to
    /// every rank, in a fixed binomial-tree order.
    ///
    /// `parts[r]` is rank `r`'s full-width contribution; all parts must have
    /// equal length. After the call every `parts[r]` holds the identical
    /// reduced buffer. The combine order is gap-doubling over rank indices
    /// (`1, 2, 4, …`), so for a given rank count the floating-point reduction
    /// tree is fixed regardless of threads or timing.
    ///
    /// Bitwise `+0.0` acts as the identity (see module docs), which makes the
    /// reduction lossless for the zero-padded disjoint-support buffers the
    /// ranked forward pass produces.
    ///
    /// # Panics
    ///
    /// Panics if `parts.len()` differs from the rank count or the buffers
    /// have unequal lengths.
    pub fn all_reduce(&mut self, parts: &mut [&mut [f32]]) {
        assert_eq!(parts.len(), self.ranks, "one part per rank");
        if self.ranks == 1 {
            return;
        }
        let len = parts[0].len();
        for p in parts.iter() {
            assert_eq!(p.len(), len, "all-reduce parts must have equal length");
        }
        // Reduce: binomial tree, fixed gap-doubling order. After the loop,
        // parts[0] holds the tree-ordered sum.
        let mut gap = 1;
        while gap < self.ranks {
            let mut i = 0;
            while i + gap < self.ranks {
                let (lo, hi) = parts.split_at_mut(i + gap);
                let dst = &mut lo[i];
                let src = &hi[0];
                for (d, &s) in dst.iter_mut().zip(src.iter()) {
                    *d = combine(*d, s);
                }
                i += gap * 2;
            }
            gap *= 2;
        }
        // Broadcast: copy rank 0's reduced buffer to every other rank.
        let (head, tail) = parts.split_at_mut(1);
        for p in tail.iter_mut() {
            p.copy_from_slice(head[0]);
        }
        self.stats.allreduce_calls += 1;
        self.stats.bytes_moved += 2 * (self.ranks as u64 - 1) * len as u64 * 4;
    }

    /// Account a metadata synchronisation of `floats` f32 values per call,
    /// repeated `calls` times (no data movement happens; the values are
    /// already shared in-process).
    pub fn account_sync(&mut self, calls: u64, floats: u64) {
        if self.ranks == 1 {
            return;
        }
        self.stats.sync_calls += calls;
        self.stats.bytes_moved += 2 * (self.ranks as u64 - 1) * floats * 4 * calls;
    }
}

/// Tree-combine two elements with bitwise `+0.0` as the identity.
#[inline]
fn combine(a: f32, b: f32) -> f32 {
    if a.to_bits() == 0 {
        b
    } else if b.to_bits() == 0 {
        a
    } else {
        a + b
    }
}

/// The contiguous KV-head range owned by `rank` out of `ranks`, balanced for
/// uneven divisions via [`chunk_range`] (earlier ranks take the larger
/// shares, e.g. 7 heads over 2 ranks split 4 + 3).
pub fn rank_head_range(rank: usize, num_kv_heads: usize, ranks: usize) -> std::ops::Range<usize> {
    chunk_range(rank, num_kv_heads, ranks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reduce(ranks: usize, mk: impl Fn(usize) -> Vec<f32>) -> (Vec<Vec<f32>>, Comm) {
        let mut bufs: Vec<Vec<f32>> = (0..ranks).map(mk).collect();
        let mut comm = Comm::new(ranks);
        {
            let mut parts: Vec<&mut [f32]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
            comm.all_reduce(&mut parts);
        }
        (bufs, comm)
    }

    #[test]
    fn single_rank_is_a_free_no_op() {
        let (bufs, comm) = reduce(1, |_| vec![1.5, -0.0, 3.0]);
        assert_eq!(bufs[0], vec![1.5, -0.0, 3.0]);
        assert_eq!(comm.stats(), CommStats::default());
    }

    #[test]
    fn disjoint_padded_parts_pass_bits_through() {
        // Rank 0 owns [0,2), rank 1 owns [2,4); padding is +0.0.
        let vals = [1.25f32, -0.0, -7.5, f32::MIN_POSITIVE];
        let (bufs, comm) = reduce(2, |r| {
            let mut b = vec![0.0f32; 4];
            let rg = chunk_range(r, 4, 2);
            for i in rg {
                b[i] = vals[i];
            }
            b
        });
        for b in &bufs {
            for (got, want) in b.iter().zip(vals.iter()) {
                assert_eq!(got.to_bits(), want.to_bits(), "bitwise pass-through");
            }
        }
        assert_eq!(comm.stats().allreduce_calls, 1);
        // 2·(N−1)·len·4 with N=2, len=4.
        assert_eq!(comm.stats().bytes_moved, 32);
    }

    #[test]
    fn negative_zero_survives_the_identity() {
        // -0.0 owned by rank 1, padding +0.0 elsewhere: a plain sum would
        // turn it into +0.0.
        let (bufs, _) = reduce(3, |r| {
            let mut b = vec![0.0f32; 1];
            if r == 1 {
                b[0] = -0.0;
            }
            b
        });
        for b in &bufs {
            assert_eq!(b[0].to_bits(), (-0.0f32).to_bits());
        }
    }

    #[test]
    fn all_ranks_see_the_same_bits() {
        for ranks in [2usize, 3, 4, 5, 8] {
            let (bufs, _) = reduce(ranks, |r| {
                (0..17).map(|i| (r * 31 + i) as f32 * 0.37 - 2.0).collect()
            });
            for r in 1..ranks {
                assert_eq!(bufs[0], bufs[r], "rank {r} diverged at N={ranks}");
            }
        }
    }

    #[test]
    fn tree_order_is_a_function_of_rank_count_only() {
        // Same inputs, reduced twice: identical bits (determinism), and the
        // result equals the explicit gap-doubling tree evaluation.
        let mk = |r: usize| vec![(r as f32 + 1.0) * 1e-3, (r as f32) * 7.25];
        let (a, _) = reduce(4, mk);
        let (b, _) = reduce(4, mk);
        assert_eq!(a, b);
        // Explicit tree for N=4: ((r0+r1) + (r2+r3)).
        let v: Vec<Vec<f32>> = (0..4).map(mk).collect();
        for i in 0..2 {
            let want = (v[0][i] + v[1][i]) + (v[2][i] + v[3][i]);
            assert_eq!(a[0][i].to_bits(), want.to_bits());
        }
    }

    #[test]
    fn sync_accounting_scales_with_ranks() {
        let mut comm = Comm::new(4);
        comm.account_sync(10, 4);
        assert_eq!(comm.stats().sync_calls, 10);
        assert_eq!(comm.stats().bytes_moved, 2 * 3 * 4 * 4 * 10);
        let mut one = Comm::new(1);
        one.account_sync(10, 4);
        assert_eq!(one.stats(), CommStats::default());
    }

    #[test]
    fn head_ranges_balance_odd_counts() {
        // 7 heads over 2 ranks: 4 + 3, contiguous, covering.
        assert_eq!(rank_head_range(0, 7, 2), 0..4);
        assert_eq!(rank_head_range(1, 7, 2), 4..7);
        // 5 heads over 4 ranks: 2 + 1 + 1 + 1.
        let lens: Vec<usize> = (0..4).map(|r| rank_head_range(r, 5, 4).len()).collect();
        assert_eq!(lens, vec![2, 1, 1, 1]);
        assert_eq!(rank_head_range(3, 5, 4).end, 5);
    }
}
