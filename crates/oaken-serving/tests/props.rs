//! Property tests for the token scheduler's conservation laws.

use oaken_serving::TokenScheduler;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every request lands on exactly one core and, at equal loads, cores
    /// are balanced to within one request.
    #[test]
    fn generation_assignment_is_balanced(active in 1usize..600, cores in 1usize..300) {
        let s = TokenScheduler::new(cores);
        let a = s.assign_generation_least_loaded(&vec![1.0; active]);
        prop_assert_eq!(a.core_of.len(), active);
        let mut counts = vec![0usize; cores];
        for &c in &a.core_of {
            prop_assert!(c < cores);
            counts[c] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        prop_assert!(max - min <= 1, "imbalance: {min}..{max}");
        prop_assert_eq!(active.div_ceil(cores), max);
    }
}
