//! LEEP (Nguyen et al., ICML 2020) and NCE (Tran et al., ICCV 2019):
//! transferability from source-head predictions.

use tg_linalg::Matrix;

use crate::scorer::{Labels, ScoreError};

/// LEEP: log expected empirical prediction, behind [`crate::Leep`].
///
/// Given the source-head soft predictions `θ` (`source_probs`, `n × Z`, rows
/// sum to 1) and target labels `y`, LEEP builds the empirical joint
/// `P(y, z)`, forms the conditional `P(y | z)`, and scores the mean
/// log-likelihood of the target labels under the composed classifier
/// `x ↦ Σ_z P(y|z) θ(x)_z`.
pub(crate) fn leep_impl(source_probs: &Matrix, labels: &Labels) -> Result<f64, ScoreError> {
    let n = source_probs.rows();
    labels.check_rows(n)?;
    if n == 0 {
        return Err(ScoreError::TooFewSamples { rows: 0, needed: 1 });
    }
    let num_classes = labels.num_classes();
    let z_dim = source_probs.cols();

    // Empirical joint P(y, z) and marginal P(z).
    let mut joint = Matrix::zeros(num_classes, z_dim);
    for (i, &y) in labels.as_slice().iter().enumerate() {
        for z in 0..z_dim {
            joint.set(y, z, joint.get(y, z) + source_probs.get(i, z) / n as f64);
        }
    }
    let mut pz = vec![0.0; z_dim];
    for z in 0..z_dim {
        for y in 0..num_classes {
            pz[z] += joint.get(y, z);
        }
    }
    // Conditional P(y | z).
    let cond = Matrix::from_fn(num_classes, z_dim, |y, z| {
        if pz[z] > 1e-12 {
            joint.get(y, z) / pz[z]
        } else {
            1.0 / num_classes as f64
        }
    });

    // Mean log-likelihood.
    let mut total = 0.0;
    for (i, &y) in labels.as_slice().iter().enumerate() {
        let mut p = 0.0;
        for z in 0..z_dim {
            p += cond.get(y, z) * source_probs.get(i, z);
        }
        total += p.max(1e-12).ln();
    }
    Ok(total / n as f64)
}

/// NCE: negative conditional entropy `−H(Y | Z)` of target labels given
/// hard source pseudo-labels, behind [`crate::Nce`] (which derives the
/// pseudo-labels by argmax). Higher (closer to 0) is better.
pub(crate) fn nce_impl(
    source_labels: &[usize],
    labels: &Labels,
    num_source_classes: usize,
) -> Result<f64, ScoreError> {
    let n = labels.len();
    if source_labels.len() != n {
        return Err(ScoreError::LabelCountMismatch {
            labels: n,
            rows: source_labels.len(),
        });
    }
    if n == 0 {
        return Err(ScoreError::TooFewSamples { rows: 0, needed: 1 });
    }
    for (index, &z) in source_labels.iter().enumerate() {
        if z >= num_source_classes {
            return Err(ScoreError::LabelOutOfRange {
                index,
                label: z,
                num_classes: num_source_classes,
            });
        }
    }
    let num_classes = labels.num_classes();

    let mut joint = Matrix::zeros(num_classes, num_source_classes);
    for (&z, &y) in source_labels.iter().zip(labels.as_slice()) {
        joint.set(y, z, joint.get(y, z) + 1.0 / n as f64);
    }
    let mut pz = vec![0.0; num_source_classes];
    for z in 0..num_source_classes {
        for y in 0..num_classes {
            pz[z] += joint.get(y, z);
        }
    }
    // −H(Y|Z) = Σ_{y,z} P(y,z) log(P(y,z)/P(z)).
    let mut nce = 0.0;
    for y in 0..num_classes {
        for z in 0..num_source_classes {
            let pyz = joint.get(y, z);
            if pyz > 0.0 && pz[z] > 0.0 {
                nce += pyz * (pyz / pz[z]).ln();
            }
        }
    }
    Ok(nce)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::{Leep, Nce, Scorer};
    use tg_rng::Rng;

    fn leep(p: &Matrix, y: &[usize], c: usize) -> f64 {
        Leep.score(p, &Labels::new(y, c).unwrap()).unwrap()
    }

    fn nce(zs: &[usize], y: &[usize], zc: usize, c: usize) -> f64 {
        nce_impl(zs, &Labels::new(y, c).unwrap(), zc).unwrap()
    }

    /// Source predictions that reveal the target label with probability
    /// `informativeness`.
    fn synthetic(
        rng: &mut Rng,
        n: usize,
        classes: usize,
        z_dim: usize,
        informativeness: f64,
    ) -> (Matrix, Vec<usize>) {
        let mut probs = Matrix::zeros(n, z_dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let y = i % classes;
            labels.push(y);
            let peak = y % z_dim;
            for z in 0..z_dim {
                let base = if z == peak {
                    informativeness
                } else {
                    (1.0 - informativeness) / (z_dim - 1) as f64
                };
                probs.set(i, z, (base * rng.uniform_range(0.8, 1.2)).max(1e-9));
            }
            let s: f64 = probs.row(i).iter().sum();
            for z in 0..z_dim {
                probs.set(i, z, probs.get(i, z) / s);
            }
        }
        (probs, labels)
    }

    #[test]
    fn leep_prefers_informative_source() {
        let mut rng = Rng::seed_from_u64(1);
        let (p_good, y) = synthetic(&mut rng, 300, 3, 6, 0.9);
        let (p_bad, _) = synthetic(&mut rng, 300, 3, 6, 1.0 / 6.0);
        assert!(leep(&p_good, &y, 3) > leep(&p_bad, &y, 3));
    }

    #[test]
    fn leep_upper_bound_is_zero() {
        // Log-likelihood of a probability is ≤ 0.
        let mut rng = Rng::seed_from_u64(2);
        let (p, y) = synthetic(&mut rng, 200, 4, 8, 0.7);
        assert!(leep(&p, &y, 4) <= 0.0);
    }

    #[test]
    fn leep_perfect_predictor_near_zero() {
        // Deterministic one-to-one mapping: LEEP ≈ log 1 = 0.
        let n = 120;
        let classes = 4;
        let mut probs = Matrix::zeros(n, classes);
        let mut labels = Vec::new();
        for i in 0..n {
            let y = i % classes;
            labels.push(y);
            probs.set(i, y, 1.0);
        }
        let s = leep(&probs, &labels, classes);
        assert!(s > -1e-6, "perfect LEEP should be ~0, got {s}");
    }

    #[test]
    fn nce_perfect_alignment_is_zero() {
        // z == y: H(Y|Z) = 0, NCE = 0.
        let labels: Vec<usize> = (0..100).map(|i| i % 5).collect();
        let s = nce(&labels.clone(), &labels, 5, 5);
        assert!(s.abs() < 1e-12);
    }

    #[test]
    fn nce_independent_labels_are_negative() {
        // z carries no information about y.
        let labels: Vec<usize> = (0..300).map(|i| i % 3).collect();
        let zs: Vec<usize> = (0..300).map(|i| (i / 3) % 4).collect();
        let s = nce(&zs, &labels, 4, 3);
        // H(Y|Z) ≈ H(Y) = ln 3.
        assert!((s + (3.0f64).ln()).abs() < 0.05, "got {s}");
    }

    #[test]
    fn nce_monotone_in_alignment() {
        let mut rng = Rng::seed_from_u64(3);
        let labels: Vec<usize> = (0..400).map(|i| i % 4).collect();
        let score_at = |p_correct: f64, rng: &mut Rng| {
            let zs: Vec<usize> = labels
                .iter()
                .map(|&y| {
                    if rng.bernoulli(p_correct) {
                        y
                    } else {
                        rng.index(4)
                    }
                })
                .collect();
            nce(&zs, &labels, 4, 4)
        };
        let low = score_at(0.2, &mut rng);
        let high = score_at(0.9, &mut rng);
        assert!(high > low);
    }

    #[test]
    fn nce_scorer_matches_argmax_pseudo_labels() {
        // Scoring the soft predictions through the trait must agree with
        // feeding the hard argmax labels to nce_impl directly.
        let mut rng = Rng::seed_from_u64(4);
        let (p, y) = synthetic(&mut rng, 200, 3, 5, 0.8);
        let labels = Labels::new(&y, 3).unwrap();
        let via_trait = Nce.score(&p, &labels).unwrap();
        let hard: Vec<usize> = (0..p.rows())
            .map(|r| {
                p.row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect();
        let direct = nce_impl(&hard, &labels, 5).unwrap();
        assert_eq!(via_trait.to_bits(), direct.to_bits());
    }

    #[test]
    fn nce_out_of_range_source_label_is_an_error() {
        let labels = Labels::new(&[0, 1, 0], 2).unwrap();
        assert_eq!(
            nce_impl(&[0, 7, 1], &labels, 4),
            Err(ScoreError::LabelOutOfRange {
                index: 1,
                label: 7,
                num_classes: 4
            })
        );
    }
}
