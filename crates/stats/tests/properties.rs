//! Property tests for the statistics substrate.

use lb_stats::{jain_index, BatchMeans};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn jain_index_bounds_and_invariance(values in prop::collection::vec(0.01f64..1e4, 1..40), scale in 0.01f64..100.0) {
        let m = values.len() as f64;
        let idx = jain_index(&values).unwrap();
        prop_assert!(idx >= 1.0 / m - 1e-12);
        prop_assert!(idx <= 1.0 + 1e-12);
        // Scale invariance.
        let scaled: Vec<f64> = values.iter().map(|v| v * scale).collect();
        let idx2 = jain_index(&scaled).unwrap();
        prop_assert!((idx - idx2).abs() < 1e-9);
        // Permutation invariance.
        let mut rev = values.clone();
        rev.reverse();
        prop_assert!((jain_index(&rev).unwrap() - idx).abs() < 1e-12);
    }

    #[test]
    fn batch_means_grand_mean_matches_complete_batches(
        data in prop::collection::vec(-1e3f64..1e3, 1..300),
        batch in 1u64..20,
    ) {
        let mut bm = BatchMeans::new(batch);
        for &x in &data {
            bm.push(x);
        }
        let complete = (data.len() as u64 / batch) as usize * batch as usize;
        if complete > 0 {
            let expected = data[..complete].iter().sum::<f64>() / complete as f64;
            prop_assert!((bm.mean() - expected).abs() < 1e-9 * (1.0 + expected.abs()));
        } else {
            prop_assert_eq!(bm.batches(), 0);
        }
    }
}
