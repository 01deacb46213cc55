//! Property-based tests (proptest) over cross-crate invariants.

use proptest::prelude::*;
use transfergraph_repro::linalg::{decomp, distance, stats, Matrix};
use transfergraph_repro::rng::{AliasTable, Rng};

/// Gram-vs-SVD parity bound for the *adversarial* shapes proptest shrinks
/// to (near-duplicate rows, forced off-heuristic wide matrices), where
/// squaring the spectrum through `FᵀF` costs up to half the digits. At the
/// production shapes the `Auto` heuristic actually routes to the Gram path
/// (`n ≥ 4·d`, benign conditioning) the observed deviation is ~1e-15 and
/// the bench gates `1e-6`.
const GRAM_PARITY_TOL: f64 = 1e-4;

/// Looser bound for the forced-wide case (`n ≪ d`): the Gram spectrum
/// there is rank-deficient by construction (`d − n` exact zeros) and the
/// surviving `n` directions carry the squared conditioning of
/// near-duplicate rows, so shrinking reliably finds deviations just past
/// `1e-4`. `Auto` never routes a wide matrix to the Gram path.
const GRAM_PARITY_TOL_WIDE: f64 = 1e-3;

/// Relative-or-absolute deviation of `b` from the reference `a`.
fn parity_dev(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pearson correlation is symmetric, bounded, and invariant under
    /// positive affine transforms.
    #[test]
    fn pearson_invariances(
        xs in prop::collection::vec(-1e3f64..1e3, 3..40),
        scale in 0.1f64..10.0,
        shift in -100.0f64..100.0,
    ) {
        let ys: Vec<f64> = xs.iter().enumerate().map(|(i, &x)| x * 0.5 + (i as f64).sin()).collect();
        if let (Some(r1), Some(r2)) = (stats::pearson(&xs, &ys), stats::pearson(&ys, &xs)) {
            prop_assert!((r1 - r2).abs() < 1e-10);
            prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&r1));
            let zs: Vec<f64> = ys.iter().map(|y| y * scale + shift).collect();
            if let Some(r3) = stats::pearson(&xs, &zs) {
                prop_assert!((r1 - r3).abs() < 1e-8);
            }
        }
    }

    /// Spearman is invariant under any strictly monotone transform.
    #[test]
    fn spearman_monotone_invariance(xs in prop::collection::vec(-50f64..50.0, 4..30)) {
        let ys: Vec<f64> = xs.iter().map(|&x| x * 2.0 + 1.0).collect();
        // Scale into exp's comfortable range so the transform stays
        // strictly monotone (no overflow clamping that would create ties).
        let zs: Vec<f64> = ys.iter().map(|&y| (y / 25.0).exp()).collect();
        if let (Some(a), Some(b)) = (stats::spearman(&xs, &ys), stats::spearman(&xs, &zs)) {
            prop_assert!((a - b).abs() < 1e-9, "a={a} b={b}");
        }
    }

    /// Ranks are a permutation-consistent assignment: they sum to n(n+1)/2.
    #[test]
    fn ranks_sum_invariant(xs in prop::collection::vec(-1e6f64..1e6, 1..50)) {
        let r = stats::ranks(&xs);
        let n = xs.len() as f64;
        let sum: f64 = r.iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
    }

    /// Cholesky solve really solves SPD systems built as A = BᵀB + I.
    #[test]
    fn cholesky_solves_spd(
        vals in prop::collection::vec(-2f64..2.0, 9),
        b in prop::collection::vec(-5f64..5.0, 3),
    ) {
        let m = Matrix::from_vec(3, 3, vals);
        let mut a = m.gram();
        for i in 0..3 {
            a.set(i, i, a.get(i, i) + 1.0);
        }
        let x = decomp::cholesky_solve(&a, &b).unwrap();
        let ax = a.matvec(&x);
        for (l, r) in ax.iter().zip(&b) {
            prop_assert!((l - r).abs() < 1e-8, "Ax={l} b={r}");
        }
    }

    /// Thin SVD reconstructs arbitrary matrices.
    #[test]
    fn svd_reconstructs(
        vals in prop::collection::vec(-3f64..3.0, 12),
        tall in prop::bool::ANY,
    ) {
        let (r, c) = if tall { (4, 3) } else { (3, 4) };
        let a = Matrix::from_vec(r, c, vals);
        let svd = decomp::thin_svd(&a).unwrap();
        let k = svd.sigma.len();
        let sig = Matrix::from_fn(k, k, |i, j| if i == j { svd.sigma[i] } else { 0.0 });
        let rec = svd.u.matmul(&sig).matmul(&svd.v.transpose());
        for i in 0..r {
            for j in 0..c {
                prop_assert!((rec.get(i, j) - a.get(i, j)).abs() < 1e-7);
            }
        }
    }

    /// Correlation distance is a bounded symmetric dissimilarity.
    #[test]
    fn correlation_distance_properties(
        xs in prop::collection::vec(-10f64..10.0, 4..20),
    ) {
        let ys: Vec<f64> = xs.iter().enumerate().map(|(i, &x)| x + (i as f64) * 0.1).collect();
        let d1 = distance::correlation_distance(&xs, &ys);
        let d2 = distance::correlation_distance(&ys, &xs);
        prop_assert!((d1 - d2).abs() < 1e-10);
        prop_assert!((-1e-12..=2.0 + 1e-12).contains(&d1));
        prop_assert!(distance::correlation_distance(&xs, &xs) < 1e-9);
    }

    /// Alias tables never emit an index with zero weight and always emit a
    /// valid index.
    #[test]
    fn alias_table_support(
        weights in prop::collection::vec(0f64..10.0, 1..20),
        seed in any::<u64>(),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let table = AliasTable::new(&weights);
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..200 {
            let i = table.sample(&mut rng);
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0, "sampled zero-weight index {i}");
        }
    }

    /// min-max normalisation maps into [0, 1] and preserves order.
    #[test]
    fn min_max_normalize_order_preserving(xs in prop::collection::vec(-1e3f64..1e3, 2..30)) {
        let normed = stats::min_max_normalize(&xs);
        prop_assert_eq!(normed.len(), xs.len());
        for v in &normed {
            prop_assert!((0.0..=1.0).contains(v));
        }
        for i in 0..xs.len() {
            for j in 0..xs.len() {
                if xs[i] < xs[j] {
                    prop_assert!(normed[i] <= normed[j]);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fine-tune accuracies are always valid probabilities, for any model,
    /// dataset, and method in any seeded world.
    #[test]
    fn fine_tune_always_bounded(seed in 0u64..1000) {
        use transfergraph_repro::zoo::{FineTuneMethod, Modality, ModelZoo, ZooConfig};
        let zoo = ModelZoo::build(&ZooConfig::small(seed));
        for modality in [Modality::Image, Modality::Text] {
            let m = zoo.models_of(modality)[0];
            for &d in &zoo.targets_of(modality) {
                for method in [FineTuneMethod::Full, FineTuneMethod::Lora] {
                    let a = zoo.fine_tune(m, d, method);
                    prop_assert!((0.0..=1.0).contains(&a));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The LogME kernel on the SVD reference path is bit-identical to the
    /// seed implementation (`tg-logme-seed`) across random shapes (tall and
    /// wide), class counts, and labelings — including labelings where some
    /// classes get a single sample or none at all (random draws hit both
    /// regularly at these sizes). The path is pinned to `Svd` because the
    /// bit-identity contract belongs to that path; the default `Auto`
    /// heuristic may pick the Gram path (tolerance contract, asserted below)
    /// at tall shapes.
    #[test]
    fn logme_batched_matches_seed_bitwise(
        n in 2usize..40,
        d in 1usize..9,
        num_classes in 2usize..7,
        vals in prop::collection::vec(-10f64..10.0, 40 * 8),
        raw_labels in prop::collection::vec(0usize..64, 40),
    ) {
        use transfergraph_repro::transfer::{DecompPath, Labels, LogMe, Scorer};
        let features = Matrix::from_fn(n, d, |r, c| vals[r * 8 + c]);
        let labels_vec: Vec<usize> = raw_labels[..n].iter().map(|&l| l % num_classes).collect();
        let labels = Labels::new(&labels_vec, num_classes).unwrap();
        let batched = LogMe::default()
            .with_path(DecompPath::Svd)
            .score(&features, &labels)
            .unwrap();
        let seed = tg_logme_seed::seed_log_me(&features, &labels_vec, num_classes);
        prop_assert!(
            batched.to_bits() == seed.to_bits(),
            "batched {batched:?} != seed {seed:?} at n={n} d={d} C={num_classes}"
        );
    }

    /// Bit-identity also holds on rank-deficient feature matrices: every
    /// column is a multiple of one base column, so the numerical rank is 1
    /// regardless of the requested width.
    #[test]
    fn logme_batched_matches_seed_on_rank_deficient(
        n in 2usize..30,
        d in 2usize..9,
        num_classes in 2usize..5,
        base in prop::collection::vec(-5f64..5.0, 30),
        raw_labels in prop::collection::vec(0usize..64, 30),
    ) {
        use transfergraph_repro::transfer::{DecompPath, Labels, LogMe, Scorer};
        let features = Matrix::from_fn(n, d, |r, c| base[r] * (c + 1) as f64);
        let labels_vec: Vec<usize> = raw_labels[..n].iter().map(|&l| l % num_classes).collect();
        let labels = Labels::new(&labels_vec, num_classes).unwrap();
        let batched = LogMe::default()
            .with_path(DecompPath::Svd)
            .score(&features, &labels)
            .unwrap();
        let seed = tg_logme_seed::seed_log_me(&features, &labels_vec, num_classes);
        prop_assert!(batched.to_bits() == seed.to_bits());
    }

    /// The Gram path agrees with the SVD reference path within the
    /// documented `1e-6` tolerance on arbitrary random shapes — the paths
    /// share the same mathematical evidence and differ only in rounding.
    #[test]
    fn logme_gram_path_matches_svd_within_tolerance(
        n in 2usize..40,
        d in 1usize..9,
        num_classes in 2usize..7,
        vals in prop::collection::vec(-10f64..10.0, 40 * 8),
        raw_labels in prop::collection::vec(0usize..64, 40),
    ) {
        use transfergraph_repro::transfer::{DecompPath, Labels, LogMe, Scorer};
        let features = Matrix::from_fn(n, d, |r, c| vals[r * 8 + c]);
        let labels_vec: Vec<usize> = raw_labels[..n].iter().map(|&l| l % num_classes).collect();
        let labels = Labels::new(&labels_vec, num_classes).unwrap();
        let svd = LogMe::default().with_path(DecompPath::Svd).score(&features, &labels).unwrap();
        let gram = LogMe::default().with_path(DecompPath::Gram).score(&features, &labels).unwrap();
        let dev = parity_dev(svd, gram);
        prop_assert!(dev <= GRAM_PARITY_TOL, "svd {svd} gram {gram} dev {dev:.3e} at n={n} d={d}");
    }

    /// Gram-vs-SVD parity holds on rank-deficient matrices (rank 1 by
    /// construction): the dropped σ≈0 directions contribute the same
    /// residual mass and `ln α` terms on both paths.
    #[test]
    fn logme_gram_path_parity_on_rank_deficient(
        n in 2usize..30,
        d in 2usize..9,
        num_classes in 2usize..5,
        base in prop::collection::vec(-5f64..5.0, 30),
        raw_labels in prop::collection::vec(0usize..64, 30),
    ) {
        use transfergraph_repro::transfer::{DecompPath, Labels, LogMe, Scorer};
        let features = Matrix::from_fn(n, d, |r, c| base[r] * (c + 1) as f64);
        let labels_vec: Vec<usize> = raw_labels[..n].iter().map(|&l| l % num_classes).collect();
        let labels = Labels::new(&labels_vec, num_classes).unwrap();
        let svd = LogMe::default().with_path(DecompPath::Svd).score(&features, &labels).unwrap();
        let gram = LogMe::default().with_path(DecompPath::Gram).score(&features, &labels).unwrap();
        let dev = parity_dev(svd, gram);
        prop_assert!(dev <= GRAM_PARITY_TOL, "svd {svd} gram {gram} dev {dev:.3e}");
    }

    /// Gram-vs-SVD parity holds on ill-conditioned matrices: column `c` is
    /// scaled by `10^{-c}`, giving condition numbers up to ~1e8 at d=9.
    /// Squaring the spectrum through the Gram matrix loses small singular
    /// values first, but the evidence tolerates it — tiny σ directions are
    /// clamped identically on both paths.
    #[test]
    fn logme_gram_path_parity_on_ill_conditioned(
        n in 4usize..30,
        d in 2usize..9,
        num_classes in 2usize..5,
        vals in prop::collection::vec(-5f64..5.0, 30 * 9),
        raw_labels in prop::collection::vec(0usize..64, 30),
    ) {
        use transfergraph_repro::transfer::{DecompPath, Labels, LogMe, Scorer};
        let features = Matrix::from_fn(n, d, |r, c| vals[r * 9 + c] * 10f64.powi(-(c as i32)));
        let labels_vec: Vec<usize> = raw_labels[..n].iter().map(|&l| l % num_classes).collect();
        let labels = Labels::new(&labels_vec, num_classes).unwrap();
        let svd = LogMe::default().with_path(DecompPath::Svd).score(&features, &labels).unwrap();
        let gram = LogMe::default().with_path(DecompPath::Gram).score(&features, &labels).unwrap();
        let dev = parity_dev(svd, gram);
        prop_assert!(dev <= GRAM_PARITY_TOL, "svd {svd} gram {gram} dev {dev:.3e} at n={n} d={d}");
    }

    /// Gram-vs-SVD parity at the wide extreme (n ≪ d), where the Gram
    /// spectrum carries d−n exact zeros that must reproduce the SVD path's
    /// rank bookkeeping.
    #[test]
    fn logme_gram_path_parity_wide(
        n in 2usize..6,
        d in 8usize..16,
        num_classes in 2usize..4,
        vals in prop::collection::vec(-10f64..10.0, 6 * 16),
        raw_labels in prop::collection::vec(0usize..64, 6),
    ) {
        use transfergraph_repro::transfer::{DecompPath, Labels, LogMe, Scorer};
        let features = Matrix::from_fn(n, d, |r, c| vals[r * 16 + c]);
        let labels_vec: Vec<usize> = raw_labels[..n].iter().map(|&l| l % num_classes).collect();
        let labels = Labels::new(&labels_vec, num_classes).unwrap();
        let svd = LogMe::default().with_path(DecompPath::Svd).score(&features, &labels).unwrap();
        let gram = LogMe::default().with_path(DecompPath::Gram).score(&features, &labels).unwrap();
        let dev = parity_dev(svd, gram);
        prop_assert!(
            dev <= GRAM_PARITY_TOL_WIDE,
            "svd {svd} gram {gram} dev {dev:.3e} at n={n} d={d}"
        );
    }

    /// Gram-vs-SVD parity at the tall extreme (n ≫ d) — the regime the
    /// Auto heuristic sends down the Gram path in production.
    #[test]
    fn logme_gram_path_parity_tall(
        n in 50usize..120,
        d in 2usize..5,
        num_classes in 2usize..5,
        vals in prop::collection::vec(-10f64..10.0, 120 * 4),
        raw_labels in prop::collection::vec(0usize..64, 120),
    ) {
        use transfergraph_repro::transfer::{DecompPath, Labels, LogMe, Scorer};
        let features = Matrix::from_fn(n, d, |r, c| vals[r * 4 + c]);
        let labels_vec: Vec<usize> = raw_labels[..n].iter().map(|&l| l % num_classes).collect();
        let labels = Labels::new(&labels_vec, num_classes).unwrap();
        let svd = LogMe::default().with_path(DecompPath::Svd).score(&features, &labels).unwrap();
        let gram = LogMe::default().with_path(DecompPath::Gram).score(&features, &labels).unwrap();
        let dev = parity_dev(svd, gram);
        prop_assert!(dev <= GRAM_PARITY_TOL, "svd {svd} gram {gram} dev {dev:.3e} at n={n} d={d}");
    }

    /// A label vector of the wrong length surfaces as `ScoreError` on
    /// every decomposition path — never a panic.
    #[test]
    fn logme_mismatched_labels_always_error(
        n in 2usize..20,
        wrong in 1usize..25,
        num_classes in 2usize..5,
    ) {
        use transfergraph_repro::transfer::{DecompPath, Labels, LogMe, ScoreError, Scorer};
        prop_assume!(wrong != n);
        let features = Matrix::from_fn(n, 3, |r, c| (r + c) as f64);
        let labels_vec: Vec<usize> = (0..wrong).map(|i| i % num_classes).collect();
        let labels = Labels::new(&labels_vec, num_classes).unwrap();
        for path in [DecompPath::Auto, DecompPath::Svd, DecompPath::Gram] {
            let got = LogMe::default().with_path(path).score(&features, &labels);
            prop_assert_eq!(
                got,
                Err(ScoreError::LabelCountMismatch { labels: wrong, rows: n })
            );
        }
    }
}
