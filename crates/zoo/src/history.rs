//! The training-history store: fine-tuning and pre-training records that
//! feed graph construction and the supervised prediction model.

use crate::finetune::FineTuneMethod;
use crate::{DatasetId, ModelId};
use tg_rng::Rng;

/// One observed training outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FineTuneRecord {
    /// The model trained.
    pub model: ModelId,
    /// The dataset it was trained on (target fine-tune or pre-train source).
    pub dataset: DatasetId,
    /// Achieved accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Fine-tuning method that produced the record.
    pub method: FineTuneMethod,
}

/// An append-only collection of training records with the query shapes the
/// pipeline needs.
#[derive(Clone, Debug, Default)]
pub struct TrainingHistory {
    records: Vec<FineTuneRecord>,
}

impl TrainingHistory {
    /// Wraps a record list.
    pub fn new(records: Vec<FineTuneRecord>) -> Self {
        TrainingHistory { records }
    }

    /// All records.
    pub fn records(&self) -> &[FineTuneRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Adds a record.
    pub fn push(&mut self, r: FineTuneRecord) {
        self.records.push(r);
    }

    /// Records excluding a target dataset — the leave-one-out view used both
    /// for graph construction ("we remove all the edges of models connected
    /// to the target dataset node") and for the regression training set.
    pub fn excluding_dataset(&self, d: DatasetId) -> TrainingHistory {
        TrainingHistory {
            records: self
                .records
                .iter()
                .filter(|r| r.dataset != d)
                .copied()
                .collect(),
        }
    }

    /// Records for one dataset.
    pub fn for_dataset(&self, d: DatasetId) -> Vec<&FineTuneRecord> {
        self.records.iter().filter(|r| r.dataset == d).collect()
    }

    /// Looks up the accuracy of a specific (model, dataset) pair, if
    /// recorded.
    pub fn accuracy(&self, m: ModelId, d: DatasetId) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.model == m && r.dataset == d)
            .map(|r| r.accuracy)
    }

    /// Keeps a deterministic random fraction of the records (Fig. 13's
    /// input-ratio experiment). `ratio` is clamped to `[0, 1]`.
    pub fn subsample(&self, ratio: f64, seed: u64) -> TrainingHistory {
        let ratio = ratio.clamp(0.0, 1.0);
        let mut rng = Rng::seed_from_u64(seed);
        let k = ((self.records.len() as f64) * ratio).round() as usize;
        let idx = rng.sample_indices(self.records.len(), k.min(self.records.len()));
        let mut idx = idx;
        idx.sort_unstable();
        TrainingHistory {
            records: idx.into_iter().map(|i| self.records[i]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history() -> TrainingHistory {
        let mut h = TrainingHistory::default();
        for m in 0..4 {
            for d in 0..3 {
                h.push(FineTuneRecord {
                    model: ModelId(m),
                    dataset: DatasetId(d),
                    accuracy: (m * 3 + d) as f64 / 12.0,
                    method: FineTuneMethod::Full,
                });
            }
        }
        h
    }

    #[test]
    fn excluding_dataset_removes_all_its_records() {
        let h = history();
        let e = h.excluding_dataset(DatasetId(1));
        assert_eq!(e.len(), 8);
        assert!(e.records().iter().all(|r| r.dataset != DatasetId(1)));
    }

    #[test]
    fn accuracy_lookup() {
        let h = history();
        assert_eq!(h.accuracy(ModelId(2), DatasetId(1)), Some(7.0 / 12.0));
        assert_eq!(h.accuracy(ModelId(2), DatasetId(9)), None);
    }

    #[test]
    fn for_dataset_filters() {
        let h = history();
        assert_eq!(h.for_dataset(DatasetId(0)).len(), 4);
    }

    #[test]
    fn subsample_ratio_and_determinism() {
        let h = history();
        let s1 = h.subsample(0.5, 42);
        let s2 = h.subsample(0.5, 42);
        assert_eq!(s1.records(), s2.records());
        assert_eq!(s1.len(), 6);
        let full = h.subsample(1.0, 1);
        assert_eq!(full.len(), h.len());
        let none = h.subsample(0.0, 1);
        assert!(none.is_empty());
    }

    #[test]
    fn subsample_clamps_ratio() {
        let h = history();
        assert_eq!(h.subsample(2.0, 1).len(), h.len());
    }
}
