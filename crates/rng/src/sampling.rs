//! Weighted sampling helpers.

use crate::Rng;

/// Walker's alias method for O(1) sampling from a fixed discrete
/// distribution.
///
/// Node2Vec-style random walks and SGNS negative sampling repeatedly draw
/// from the same weight vectors; the alias table makes each draw two random
/// numbers and one comparison, independent of the support size.
#[derive(Clone, Debug)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds a table from non-negative weights. Panics if the weights do not
    /// have a positive finite sum.
    pub fn new(weights: &[f64]) -> Self {
        let n = weights.len();
        assert!(n > 0, "AliasTable: empty weights");
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "AliasTable: weights must have a positive finite sum"
        );
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0usize; n];
        // Scaled probabilities: average exactly 1.
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &p) in scaled.iter().enumerate() {
            assert!(p >= 0.0, "AliasTable: negative weight at {i}");
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        // Fallback partner for residual cells: any index with positive
        // weight (one exists, the total is positive). If floating-point
        // rounding strands a zero-weight cell in either residual branch
        // below, aliasing it to `self` with probability 1 would make the
        // zero-weight index sampleable — alias it to the fallback with
        // probability 0 instead.
        #[expect(
            clippy::expect_used,
            reason = "guarded by the positive-total check above: a positive sum of non-negative weights has a positive element"
        )]
        let fallback = weights
            .iter()
            .position(|&w| w > 0.0)
            .expect("AliasTable: positive total implies a positive weight");
        while let Some(s) = small.pop() {
            let Some(l) = large.pop() else {
                // Rounding left a "small" cell with no large partner: its
                // scaled probability is ~1 — unless the cell's weight is 0,
                // in which case it must stay unsampleable.
                if weights[s] > 0.0 {
                    prob[s] = 1.0;
                    alias[s] = s;
                } else {
                    prob[s] = 0.0;
                    alias[s] = fallback;
                }
                continue;
            };
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Whatever remains has probability ~1 up to rounding; the same
        // zero-weight guard applies.
        for i in large {
            if weights[i] > 0.0 {
                prob[i] = 1.0;
                alias[i] = i;
            } else {
                prob[i] = 0.0;
                alias[i] = fallback;
            }
        }
        AliasTable { prob, alias }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the table has no categories (never constructible; kept for API
    /// completeness).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one index.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let i = rng.index(self.prob.len());
        if rng.uniform() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alias_matches_weights() {
        let weights = [0.1, 0.2, 0.3, 0.4];
        let table = AliasTable::new(&weights);
        let mut rng = Rng::seed_from_u64(99);
        let n = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let freq = counts[i] as f64 / n as f64;
            assert!((freq - w).abs() < 0.01, "cat {i}: freq {freq} vs {w}");
        }
    }

    #[test]
    fn alias_zero_weight_never_sampled() {
        let table = AliasTable::new(&[1.0, 0.0, 1.0]);
        let mut rng = Rng::seed_from_u64(100);
        for _ in 0..10_000 {
            assert_ne!(table.sample(&mut rng), 1);
        }
    }

    #[test]
    fn alias_single_category() {
        let table = AliasTable::new(&[5.0]);
        let mut rng = Rng::seed_from_u64(101);
        assert_eq!(table.sample(&mut rng), 0);
        assert_eq!(table.len(), 1);
        assert!(!table.is_empty());
    }

    #[test]
    #[should_panic(expected = "AliasTable")]
    fn alias_rejects_all_zero() {
        AliasTable::new(&[0.0, 0.0]);
    }

    /// Adversarial near-zero weights: denormals and exact zeros interleaved
    /// with dominant cells stress the residual branches of the construction.
    /// No zero-weight index may ever be sampleable, and near-zero weights
    /// must keep a (vanishingly small but valid) alias entry.
    #[test]
    fn alias_adversarial_near_zero_weights() {
        let cases: Vec<Vec<f64>> = vec![
            vec![41.017265912619436, 0.0, 0.0, 43.86568159681817],
            vec![0.0, 1e-308, 0.0, 1.0],
            vec![1e-320, 0.0, 2.0, 0.0, 3.0],
            vec![f64::MIN_POSITIVE, 0.0, f64::MIN_POSITIVE],
            vec![0.0, 0.0, 0.0, 1e-300],
            vec![1.0, 1e-17, 0.0, 1.0, 0.0, 1.0],
        ];
        for weights in &cases {
            let table = AliasTable::new(weights);
            // Structural check: every sampling path (keep slot i, or follow
            // its alias) must land on a positive weight.
            for i in 0..weights.len() {
                if table.prob[i] > 0.0 {
                    assert!(
                        weights[i] > 0.0,
                        "slot {i} keeps zero weight with prob {} in {weights:?}",
                        table.prob[i]
                    );
                }
                if table.prob[i] < 1.0 {
                    assert!(
                        weights[table.alias[i]] > 0.0,
                        "slot {i} aliases zero weight {} in {weights:?}",
                        table.alias[i]
                    );
                }
            }
            // Behavioural check.
            let mut rng = Rng::seed_from_u64(7);
            for _ in 0..5_000 {
                let i = table.sample(&mut rng);
                assert!(i < weights.len());
                assert!(weights[i] > 0.0, "sampled zero-weight {i} of {weights:?}");
            }
        }
    }
}
