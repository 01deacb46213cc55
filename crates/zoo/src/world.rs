//! The [`ModelZoo`] container: builds registries, owns the latent world, and
//! exposes the simulated operations (fine-tuning, forward passes, probe
//! embeddings).

use crate::datasets::{build_datasets, DatasetInfo, DatasetRole};
use crate::features::{simulate_forward_pass, ForwardPass};
use crate::finetune::{
    accuracy_from_skill, base_skill, feature_skill, noisy_skill, FineTuneMethod,
};
use crate::history::{FineTuneRecord, TrainingHistory};
use crate::models::{build_models, ModelInfo};
use crate::probe;
use crate::{DatasetId, Modality, ModelId};
use tg_linalg::Matrix;
use tg_rng::{splitmix64, Rng};

/// Configuration of the simulated zoo.
#[derive(Clone, Debug)]
pub struct ZooConfig {
    /// Master seed: everything downstream is a pure function of it.
    pub seed: u64,
    /// Dimension of the latent task space.
    pub latent_dim: usize,
    /// Number of image-classification models (paper: 185).
    pub n_image_models: usize,
    /// Number of text-classification models (paper: 163).
    pub n_text_models: usize,
    /// Dimension of simulated forward-pass features.
    pub feature_dim: usize,
    /// Dimension of the Domain Similarity probe embedding.
    pub embed_dim: usize,
}

impl ZooConfig {
    /// The paper-scale configuration (185 + 163 models, 89 image + 24 text
    /// datasets).
    pub fn paper(seed: u64) -> Self {
        ZooConfig {
            seed,
            latent_dim: 16,
            n_image_models: 185,
            n_text_models: 163,
            feature_dim: 32,
            embed_dim: 64,
        }
    }

    /// Stable 64-bit fingerprint of the configuration.
    ///
    /// Every artefact the pipeline caches (LogME scores, probe embeddings,
    /// similarities) is a pure function of the zoo, and the zoo is a pure
    /// function of this configuration — so the fingerprint keys cross-run
    /// artifact files: equal fingerprints guarantee bit-identical cached
    /// values, and a mismatch means the file belongs to a different world
    /// and must be ignored.
    pub fn fingerprint(&self) -> u64 {
        // SplitMix64-style mixing of every field, order-sensitive.
        let mut h = 0x5445_4e53_4f52_4657u64; // "TENSORFW" tag
        for field in [
            self.seed,
            self.latent_dim as u64,
            self.n_image_models as u64,
            self.n_text_models as u64,
            self.feature_dim as u64,
            self.embed_dim as u64,
        ] {
            h ^= field.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
        }
        h
    }

    /// A small configuration for fast tests and examples.
    pub fn small(seed: u64) -> Self {
        ZooConfig {
            seed,
            latent_dim: 16,
            n_image_models: 24,
            n_text_models: 20,
            feature_dim: 16,
            embed_dim: 32,
        }
    }
}

/// The simulated model zoo. See the crate docs for the world model.
pub struct ModelZoo {
    /// Configuration used to build the zoo.
    pub config: ZooConfig,
    /// All datasets (image block first, then text).
    pub datasets: Vec<DatasetInfo>,
    /// All models (image block first, then text).
    pub models: Vec<ModelInfo>,
    /// Fixed probe projection (embed_dim × latent_dim) shared by every
    /// dataset — the "reference model" of §IV-B1.
    probe_projection: Matrix,
}

impl ModelZoo {
    /// Builds the zoo deterministically from the configuration.
    pub fn build(config: &ZooConfig) -> Self {
        let mut rng = Rng::seed_from_u64(config.seed);
        let mut datasets = build_datasets(Modality::Image, config.latent_dim, &mut rng, 0);
        let text_ds_offset = datasets.len();
        datasets.extend(build_datasets(
            Modality::Text,
            config.latent_dim,
            &mut rng,
            text_ds_offset,
        ));
        let mut models = build_models(
            Modality::Image,
            config.n_image_models,
            &datasets,
            config.latent_dim,
            &mut rng,
            0,
        );
        models.extend(build_models(
            Modality::Text,
            config.n_text_models,
            &datasets,
            config.latent_dim,
            &mut rng,
            models.len(),
        ));
        let probe_projection = Matrix::from_fn(config.embed_dim, config.latent_dim, |_, _| {
            rng.normal(0.0, 1.0 / (config.latent_dim as f64).sqrt())
        });
        ModelZoo {
            config: config.clone(),
            datasets,
            models,
            probe_projection,
        }
    }

    /// Approximate heap bytes held by the zoo's registries (dataset and
    /// model tables, latent vectors, probe projection). Feeds the serving
    /// registry's byte-bounded eviction policy; an estimate, not exact
    /// accounting.
    pub fn approx_resident_bytes(&self) -> u64 {
        let datasets: u64 = self
            .datasets
            .iter()
            .map(|d| {
                (std::mem::size_of::<DatasetInfo>() + d.name.len() + d.latent.len() * 8) as u64
            })
            .sum();
        let models: u64 = self
            .models
            .iter()
            .map(|m| {
                (std::mem::size_of::<ModelInfo>()
                    + m.name.len()
                    + m.architecture.len()
                    + m.bias.len() * 8) as u64
            })
            .sum();
        datasets + models + (self.config.embed_dim * self.config.latent_dim * 8) as u64
    }

    /// Dataset lookup.
    pub fn dataset(&self, id: DatasetId) -> &DatasetInfo {
        &self.datasets[id.0]
    }

    /// Model lookup.
    pub fn model(&self, id: ModelId) -> &ModelInfo {
        &self.models[id.0]
    }

    /// Dataset id by name, or `None` when the zoo has no such dataset.
    pub fn find_dataset(&self, name: &str) -> Option<DatasetId> {
        self.datasets.iter().find(|d| d.name == name).map(|d| d.id)
    }

    /// Dataset id by name (panics if absent — registry names are static;
    /// use [`ModelZoo::find_dataset`] for names from outside).
    #[expect(
        clippy::panic,
        reason = "documented contract: registry names are static constants, so a miss is a typo caught by any test run"
    )]
    pub fn dataset_by_name(&self, name: &str) -> DatasetId {
        self.find_dataset(name)
            .unwrap_or_else(|| panic!("unknown dataset {name}"))
    }

    /// Ids of all models of a modality.
    pub fn models_of(&self, modality: Modality) -> Vec<ModelId> {
        self.models
            .iter()
            .filter(|m| m.modality == modality)
            .map(|m| m.id)
            .collect()
    }

    /// Ids of the evaluation targets of a modality.
    pub fn targets_of(&self, modality: Modality) -> Vec<DatasetId> {
        self.datasets
            .iter()
            .filter(|d| d.modality == modality && d.role == DatasetRole::Target)
            .map(|d| d.id)
            .collect()
    }

    /// Ids of the source datasets of a modality.
    pub fn sources_of(&self, modality: Modality) -> Vec<DatasetId> {
        self.datasets
            .iter()
            .filter(|d| d.modality == modality && d.role == DatasetRole::Source)
            .map(|d| d.id)
            .collect()
    }

    /// Ids of every dataset of a modality (targets + sources).
    pub fn datasets_of(&self, modality: Modality) -> Vec<DatasetId> {
        self.datasets
            .iter()
            .filter(|d| d.modality == modality)
            .map(|d| d.id)
            .collect()
    }

    /// Deterministic per-(tag, model, dataset) stream: stable regardless of
    /// query order.
    fn pair_rng(&self, tag: u64, m: ModelId, d: DatasetId) -> Rng {
        let mut state = self.config.seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407);
        let a = splitmix64(&mut state);
        let mut state2 = a ^ (m.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let b = splitmix64(&mut state2);
        let mut state3 = b ^ (d.0 as u64).wrapping_mul(0xD134_2543_DE82_EF95);
        Rng::seed_from_u64(splitmix64(&mut state3))
    }

    /// ORACLE: noise-free latent skill. Selection strategies must never call
    /// this; it exists for simulator tests and calibration reports.
    pub fn oracle_skill(&self, m: ModelId, d: DatasetId) -> f64 {
        let model = self.model(m);
        base_skill(model, self.dataset(model.source_dataset), self.dataset(d))
    }

    /// Simulated fine-tuning of model `m` on dataset `d`. Deterministic in
    /// `(seed, m, d, method)`.
    pub fn fine_tune(&self, m: ModelId, d: DatasetId, method: FineTuneMethod) -> f64 {
        let model = self.model(m);
        let target = self.dataset(d);
        assert_eq!(
            model.modality, target.modality,
            "fine_tune: modality mismatch between {} and {}",
            model.name, target.name
        );
        // Skill noise is shared between methods (same model, same data);
        // method-specific noise is drawn from a separate stream.
        let mut skill_rng = self.pair_rng(0x51C0, m, d);
        let skill = noisy_skill(
            model,
            self.dataset(model.source_dataset),
            target,
            &mut skill_rng,
        );
        let mut method_rng = self.pair_rng(
            match method {
                FineTuneMethod::Full => 0xF0F0,
                FineTuneMethod::Lora => 0x10BA,
            },
            m,
            d,
        );
        accuracy_from_skill(skill, model, target, method, &mut method_rng)
    }

    /// Simulated forward pass (inference) of model `m` on dataset `d`,
    /// producing the features transferability estimators consume.
    pub fn forward_pass(&self, m: ModelId, d: DatasetId) -> ForwardPass {
        let model = self.model(m);
        let target = self.dataset(d);
        assert_eq!(
            model.modality, target.modality,
            "forward_pass: modality mismatch"
        );
        let mut feat_rng = self.pair_rng(0xFEA7, m, d);
        // Feature-visible skill is *not* the fine-tune skill: frozen
        // features expose only the affinity/quality channels, with their
        // own observation noise (see finetune::feature_skill).
        let skill = feature_skill(
            model,
            self.dataset(model.source_dataset),
            target,
            &mut feat_rng,
        );
        simulate_forward_pass(
            model,
            self.dataset(model.source_dataset),
            target,
            skill,
            self.config.feature_dim,
            &mut feat_rng,
        )
    }

    /// Domain Similarity embedding of a dataset (Eq. 3): aggregated probe
    /// features.
    pub fn domain_similarity_embedding(&self, d: DatasetId) -> Vec<f64> {
        probe::domain_similarity_embedding(
            self.dataset(d),
            &self.probe_projection,
            self.config.seed,
        )
    }

    /// Task2Vec embedding of a dataset (appendix Eq. 6): diagonal FIM of a
    /// small probe MLP actually trained on simulated samples.
    pub fn task2vec_embedding(&self, d: DatasetId) -> Vec<f64> {
        probe::task2vec_embedding(self.dataset(d), self.config.seed)
    }

    /// Similarity `φ` between two datasets in `[0, 1]`, computed as the
    /// paper does: correlation distance between probe embeddings, mapped to
    /// a similarity.
    pub fn dataset_similarity(&self, a: DatasetId, b: DatasetId) -> f64 {
        let ea = self.domain_similarity_embedding(a);
        let eb = self.domain_similarity_embedding(b);
        tg_linalg::distance::correlation_similarity(&ea, &eb)
    }

    /// Full training history of a modality: fine-tuning results of every
    /// model on every *target* dataset, plus each model's pre-training
    /// record on its source dataset. The leave-one-out harness later
    /// removes the target dataset's rows.
    pub fn full_history(&self, modality: Modality, method: FineTuneMethod) -> TrainingHistory {
        let mut records = Vec::new();
        for &m in &self.models_of(modality) {
            for &d in &self.targets_of(modality) {
                records.push(FineTuneRecord {
                    model: m,
                    dataset: d,
                    accuracy: self.fine_tune(m, d, method),
                    method,
                });
            }
            let model = self.model(m);
            records.push(FineTuneRecord {
                model: m,
                dataset: model.source_dataset,
                accuracy: model.pretrain_accuracy,
                method: FineTuneMethod::Full,
            });
        }
        TrainingHistory::new(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_counts() {
        let zoo = ModelZoo::build(&ZooConfig::paper(1));
        assert_eq!(zoo.models_of(Modality::Image).len(), 185);
        assert_eq!(zoo.models_of(Modality::Text).len(), 163);
        assert_eq!(zoo.targets_of(Modality::Image).len(), 12);
        assert_eq!(zoo.targets_of(Modality::Text).len(), 8);
        assert_eq!(zoo.sources_of(Modality::Image).len(), 61);
        assert_eq!(zoo.sources_of(Modality::Text).len(), 16);
    }

    #[test]
    fn fingerprint_separates_configs_and_is_stable() {
        let a = ZooConfig::small(1).fingerprint();
        assert_eq!(a, ZooConfig::small(1).fingerprint());
        assert_ne!(a, ZooConfig::small(2).fingerprint());
        assert_ne!(a, ZooConfig::paper(1).fingerprint());
        // Order-sensitivity: swapping two field values must change the hash.
        let mut swapped = ZooConfig::small(1);
        std::mem::swap(&mut swapped.n_image_models, &mut swapped.n_text_models);
        assert_ne!(a, swapped.fingerprint());
    }

    #[test]
    fn fine_tune_deterministic_and_bounded() {
        let zoo = ModelZoo::build(&ZooConfig::small(3));
        let m = zoo.models_of(Modality::Image)[0];
        let d = zoo.targets_of(Modality::Image)[0];
        let a1 = zoo.fine_tune(m, d, FineTuneMethod::Full);
        let a2 = zoo.fine_tune(m, d, FineTuneMethod::Full);
        assert_eq!(a1, a2);
        assert!((0.0..=1.0).contains(&a1));
    }

    #[test]
    fn different_seeds_produce_different_worlds() {
        let z1 = ModelZoo::build(&ZooConfig::small(1));
        let z2 = ModelZoo::build(&ZooConfig::small(2));
        let m = z1.models_of(Modality::Image)[0];
        let d = z1.targets_of(Modality::Image)[0];
        assert_ne!(
            z1.fine_tune(m, d, FineTuneMethod::Full),
            z2.fine_tune(m, d, FineTuneMethod::Full)
        );
    }

    #[test]
    fn skill_correlates_with_fine_tune_accuracy() {
        // The ground truth must be learnable: oracle skill and accuracy
        // correlate strongly within a dataset.
        let zoo = ModelZoo::build(&ZooConfig::paper(5));
        let d = zoo.dataset_by_name("stanfordcars");
        let models = zoo.models_of(Modality::Image);
        let skills: Vec<f64> = models.iter().map(|&m| zoo.oracle_skill(m, d)).collect();
        let accs: Vec<f64> = models
            .iter()
            .map(|&m| zoo.fine_tune(m, d, FineTuneMethod::Full))
            .collect();
        let r = tg_linalg::stats::pearson(&skills, &accs).unwrap();
        assert!(r > 0.8, "oracle skill should drive accuracy, r={r}");
    }

    #[test]
    fn modality_mismatch_panics() {
        let zoo = ModelZoo::build(&ZooConfig::small(4));
        let m = zoo.models_of(Modality::Image)[0];
        let d = zoo.targets_of(Modality::Text)[0];
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            zoo.fine_tune(m, d, FineTuneMethod::Full)
        }));
        assert!(res.is_err());
    }

    #[test]
    fn dataset_similarity_symmetric_self_max() {
        let zoo = ModelZoo::build(&ZooConfig::small(6));
        let ids = zoo.targets_of(Modality::Image);
        let (a, b) = (ids[0], ids[1]);
        let sab = zoo.dataset_similarity(a, b);
        let sba = zoo.dataset_similarity(b, a);
        assert!((sab - sba).abs() < 1e-12);
        assert!(zoo.dataset_similarity(a, a) > sab);
    }

    #[test]
    fn similarity_respects_domains() {
        let zoo = ModelZoo::build(&ZooConfig::paper(7));
        // flowers (fine-grained) should be more similar to pets
        // (fine-grained) than to svhn (digits).
        let flowers = zoo.dataset_by_name("flowers");
        let pets = zoo.dataset_by_name("pets");
        let svhn = zoo.dataset_by_name("svhn");
        assert!(zoo.dataset_similarity(flowers, pets) > zoo.dataset_similarity(flowers, svhn));
    }

    #[test]
    fn full_history_covers_all_target_pairs() {
        let zoo = ModelZoo::build(&ZooConfig::small(8));
        let h = zoo.full_history(Modality::Image, FineTuneMethod::Full);
        let n_models = zoo.models_of(Modality::Image).len();
        let n_targets = zoo.targets_of(Modality::Image).len();
        // target records + one pretrain record per model
        assert_eq!(h.len(), n_models * n_targets + n_models);
    }

    #[test]
    fn lora_history_differs_from_full() {
        let zoo = ModelZoo::build(&ZooConfig::small(9));
        let m = zoo.models_of(Modality::Text)[0];
        let d = zoo.targets_of(Modality::Text)[0];
        let full = zoo.fine_tune(m, d, FineTuneMethod::Full);
        let lora = zoo.fine_tune(m, d, FineTuneMethod::Lora);
        assert_ne!(full, lora);
        // But they must be correlated across models (same latent skill).
        let models = zoo.models_of(Modality::Text);
        let fulls: Vec<f64> = models
            .iter()
            .map(|&m| zoo.fine_tune(m, d, FineTuneMethod::Full))
            .collect();
        let loras: Vec<f64> = models
            .iter()
            .map(|&m| zoo.fine_tune(m, d, FineTuneMethod::Lora))
            .collect();
        let r = tg_linalg::stats::pearson(&fulls, &loras).unwrap();
        assert!(r > 0.7, "full/LoRA accuracies should correlate, r={r}");
    }
}

impl ModelZoo {
    /// Simulated *partial* fine-tuning: train for a `fraction` of the full
    /// epoch budget and observe a noisy under-estimate of the final
    /// accuracy. Successive-halving recommenders (SHiFT-style, §II-A) use
    /// this to cheaply triage candidates.
    ///
    /// `fraction` is clamped to `[0.05, 1.0]`; at 1.0 this equals
    /// [`ModelZoo::fine_tune`] exactly.
    pub fn fine_tune_partial(
        &self,
        m: ModelId,
        d: DatasetId,
        method: FineTuneMethod,
        fraction: f64,
    ) -> f64 {
        let fraction = fraction.clamp(0.05, 1.0);
        let full = self.fine_tune(m, d, method);
        if fraction >= 1.0 {
            return full;
        }
        // Training curves rise steeply then flatten: at fraction t the run
        // has realised roughly t^0.4 of its final accuracy gain over a
        // low starting point, observed with noise that shrinks as the run
        // matures.
        let start = (full * 0.35).min(0.2);
        let progress = fraction.powf(0.4);
        let mut rng = self.pair_rng(0x9A87 ^ ((fraction * 1e4) as u64), m, d);
        (start + (full - start) * progress + rng.normal(0.0, 0.04 * (1.0 - fraction)))
            .clamp(0.005, 0.995)
    }

    /// GPU-hour cost model of fine-tuning `m` on `d` for a fraction of the
    /// epoch budget: proportional to model size, dataset size, and epochs.
    /// Used by budget-aware recommendation; units are arbitrary but
    /// consistent (full fine-tune of an 86M-parameter model on 50k samples
    /// ≈ 6.4 "hours", echoing the paper's 1178 h / 185 models average).
    pub fn fine_tune_cost(&self, m: ModelId, d: DatasetId, fraction: f64) -> f64 {
        let model = self.model(m);
        let data = self.dataset(d);
        let params_m = model.num_params as f64 / 1.0e6;
        let samples_k = data.num_samples as f64 / 1000.0;
        0.0015 * params_m.max(1.0) * samples_k.max(0.5) * fraction.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod partial_tests {
    use super::*;

    #[test]
    fn partial_fine_tune_converges_to_full() {
        let zoo = ModelZoo::build(&ZooConfig::small(21));
        let m = zoo.models_of(Modality::Image)[0];
        let d = zoo.targets_of(Modality::Image)[0];
        let full = zoo.fine_tune(m, d, FineTuneMethod::Full);
        assert_eq!(zoo.fine_tune_partial(m, d, FineTuneMethod::Full, 1.0), full);
        let tenth = zoo.fine_tune_partial(m, d, FineTuneMethod::Full, 0.1);
        assert!(
            tenth < full,
            "partial {tenth} should underestimate full {full}"
        );
    }

    #[test]
    fn partial_fine_tune_roughly_monotone_in_fraction() {
        let zoo = ModelZoo::build(&ZooConfig::small(22));
        let m = zoo.models_of(Modality::Text)[1];
        let d = zoo.targets_of(Modality::Text)[0];
        let a = zoo.fine_tune_partial(m, d, FineTuneMethod::Full, 0.1);
        let b = zoo.fine_tune_partial(m, d, FineTuneMethod::Full, 0.5);
        let c = zoo.fine_tune_partial(m, d, FineTuneMethod::Full, 1.0);
        // Noise allows small inversions; the coarse trend must hold.
        assert!(a < c);
        assert!(b < c + 0.05);
    }

    #[test]
    fn partial_fine_tune_preserves_ranking_signal() {
        // Half-budget observations should correlate with full outcomes —
        // the premise of successive halving.
        let zoo = ModelZoo::build(&ZooConfig::paper(23));
        let d = zoo.dataset_by_name("pets");
        let models = zoo.models_of(Modality::Image);
        let full: Vec<f64> = models
            .iter()
            .map(|&m| zoo.fine_tune(m, d, FineTuneMethod::Full))
            .collect();
        let half: Vec<f64> = models
            .iter()
            .map(|&m| zoo.fine_tune_partial(m, d, FineTuneMethod::Full, 0.5))
            .collect();
        let r = tg_linalg::stats::pearson(&full, &half).unwrap();
        assert!(r > 0.8, "half-budget should track full outcome: {r}");
    }

    #[test]
    fn cost_model_scales_with_size_and_fraction() {
        let zoo = ModelZoo::build(&ZooConfig::paper(24));
        let models = zoo.models_of(Modality::Image);
        let d = zoo.dataset_by_name("cifar100");
        let big = models
            .iter()
            .max_by(|&&a, &&b| zoo.model(a).num_params.cmp(&zoo.model(b).num_params))
            .copied()
            .unwrap();
        let small = models
            .iter()
            .min_by(|&&a, &&b| zoo.model(a).num_params.cmp(&zoo.model(b).num_params))
            .copied()
            .unwrap();
        assert!(zoo.fine_tune_cost(big, d, 1.0) > zoo.fine_tune_cost(small, d, 1.0));
        assert!(zoo.fine_tune_cost(big, d, 0.25) < zoo.fine_tune_cost(big, d, 1.0));
    }
}
