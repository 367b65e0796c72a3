//! Sharding helpers for deterministic task decompositions: balanced index
//! ranges.

use std::ops::Range;

/// The index range task `task` of `n_tasks` owns when `n_items` items are
/// split into contiguous, balanced chunks (sizes differ by at most one,
/// earlier tasks get the larger chunks).
///
/// The decomposition is a pure function of `(n_items, n_tasks)` — no
/// thread count, no scheduling — so a parallel loop built on it touches
/// exactly the same `(task, index)` pairs on every run.
///
/// # Panics
///
/// Panics if `n_tasks == 0`.
pub fn chunk_range(task: usize, n_items: usize, n_tasks: usize) -> Range<usize> {
    assert!(n_tasks > 0, "decomposition needs at least one task");
    if task >= n_tasks {
        return n_items..n_items;
    }
    let base = n_items / n_tasks;
    let extra = n_items % n_tasks;
    let start = task * base + task.min(extra);
    let len = base + usize::from(task < extra);
    start..(start + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_tile_the_items_exactly() {
        for n_items in 0..40usize {
            for n_tasks in 1..10usize {
                let mut covered = vec![0u8; n_items];
                let mut sizes = Vec::new();
                for t in 0..n_tasks {
                    let r = chunk_range(t, n_items, n_tasks);
                    sizes.push(r.len());
                    for i in r {
                        covered[i] += 1;
                    }
                }
                assert!(
                    covered.iter().all(|&c| c == 1),
                    "{n_items} items / {n_tasks} tasks"
                );
                let (min, max) = (
                    sizes.iter().min().copied().unwrap(),
                    sizes.iter().max().copied().unwrap(),
                );
                assert!(max - min <= 1, "balanced split: {sizes:?}");
            }
        }
    }

    #[test]
    fn out_of_range_task_gets_empty_range() {
        assert!(chunk_range(5, 3, 2).is_empty());
    }
}
