//! Cross-crate integration tests: the full TransferGraph pipeline on a
//! small zoo, exercising every subsystem together.

#![allow(
    clippy::let_underscore_must_use,
    reason = "temp-dir cleanup is best-effort; a leftover directory cannot fail a test"
)]

use transfergraph_repro::core::{
    evaluate, ArtifactKind, EvalOptions, FeatureSet, StoreOptions, Strategy, Workbench,
};
use transfergraph_repro::embed::LearnerKind;
use transfergraph_repro::predict::RegressorKind;
use transfergraph_repro::zoo::{FineTuneMethod, Modality, ModelZoo, ZooConfig};

fn small_zoo() -> ModelZoo {
    ModelZoo::build(&ZooConfig::small(2024))
}

fn fast_opts() -> EvalOptions {
    EvalOptions {
        embed_dim: 16,
        ..Default::default()
    }
}

#[test]
fn every_strategy_family_runs_on_every_modality() {
    let zoo = small_zoo();
    let strategies = [
        Strategy::Random,
        Strategy::LogMe,
        Strategy::lr_baseline(),
        Strategy::lr_all_logme(),
        Strategy::TransferGraph {
            regressor: RegressorKind::Linear,
            learner: LearnerKind::Node2Vec,
            features: FeatureSet::All,
        },
    ];
    for modality in [Modality::Image, Modality::Text] {
        let target = zoo.targets_of(modality)[0];
        let wb = Workbench::new(&zoo);
        for s in &strategies {
            let out = evaluate(&wb, s, target, &fast_opts());
            assert_eq!(out.predictions.len(), zoo.models_of(modality).len());
            assert!(
                out.predictions.iter().all(|p| p.is_finite()),
                "{} produced non-finite predictions",
                s.label()
            );
        }
    }
}

#[test]
fn all_four_graph_learners_work_end_to_end() {
    let zoo = small_zoo();
    let target = zoo.targets_of(Modality::Image)[1];
    let wb = Workbench::new(&zoo);
    for learner in LearnerKind::ALL {
        let s = Strategy::TransferGraph {
            regressor: RegressorKind::Linear,
            learner,
            features: FeatureSet::GraphOnly,
        };
        let out = evaluate(&wb, &s, target, &fast_opts());
        assert!(
            out.pearson.is_some(),
            "{} degenerate predictions",
            learner.name()
        );
    }
}

#[test]
fn all_three_regressors_work_end_to_end() {
    let zoo = small_zoo();
    let target = zoo.targets_of(Modality::Text)[0];
    let wb = Workbench::new(&zoo);
    for regressor in RegressorKind::ALL {
        let s = Strategy::TransferGraph {
            regressor,
            learner: LearnerKind::Node2VecPlus,
            features: FeatureSet::All,
        };
        let out = evaluate(&wb, &s, target, &fast_opts());
        assert!(
            out.predictions.iter().all(|p| p.is_finite()),
            "{}",
            s.label()
        );
    }
}

#[test]
fn loo_does_not_leak_target_ground_truth() {
    // If LOO leaked, predictions would be near-perfectly correlated. The
    // world has irreducible noise, so a perfect correlation indicates a
    // leak.
    let zoo = small_zoo();
    let wb = Workbench::new(&zoo);
    for &target in &zoo.targets_of(Modality::Image) {
        let out = evaluate(
            &wb,
            &Strategy::transfer_graph_default(),
            target,
            &fast_opts(),
        );
        if let Some(r) = out.pearson {
            assert!(r < 0.999, "suspiciously perfect correlation: {r}");
        }
    }
}

#[test]
fn pipeline_fully_deterministic_across_workbenches() {
    let zoo = small_zoo();
    let target = zoo.targets_of(Modality::Image)[0];
    let s = Strategy::TransferGraph {
        regressor: RegressorKind::RandomForest,
        learner: LearnerKind::Node2VecPlus,
        features: FeatureSet::All,
    };
    let run = || {
        let wb = Workbench::new(&zoo);
        evaluate(&wb, &s, target, &fast_opts()).predictions
    };
    assert_eq!(run(), run());
}

#[test]
fn lora_and_full_histories_give_different_but_correlated_rankings() {
    let zoo = small_zoo();
    let target = zoo.targets_of(Modality::Text)[1];
    let s = Strategy::lr_all_logme();
    let full = {
        let wb = Workbench::new(&zoo);
        evaluate(&wb, &s, target, &fast_opts())
    };
    let lora = {
        let wb = Workbench::new(&zoo);
        let opts = EvalOptions {
            train_method: FineTuneMethod::Lora,
            eval_method: FineTuneMethod::Lora,
            ..fast_opts()
        };
        evaluate(&wb, &s, target, &opts)
    };
    assert_ne!(full.predictions, lora.predictions);
    // Ground truths of the two channels correlate strongly.
    let r = tg_linalg::stats::pearson(&full.ground_truth, &lora.ground_truth).unwrap();
    assert!(r > 0.6, "full/LoRA ground truths should correlate: {r}");
}

#[test]
fn better_information_improves_mean_correlation() {
    // The paper's central claim at small scale: averaged over targets,
    // adding relationship information must not hurt.
    let zoo = ModelZoo::build(&ZooConfig::small(7));
    let opts = fast_opts();
    let mean_tau = |s: &Strategy| {
        let wb = Workbench::new(&zoo);
        let targets = zoo.targets_of(Modality::Image);
        targets
            .iter()
            .map(|&t| evaluate(&wb, s, t, &opts).pearson.unwrap_or(0.0))
            .sum::<f64>()
            / targets.len() as f64
    };
    let random = mean_tau(&Strategy::Random);
    let learned = mean_tau(&Strategy::lr_all_logme());
    assert!(
        learned > random + 0.1,
        "learned {learned} should clearly beat random {random}"
    );
}

#[test]
fn parallel_runner_bit_identical_to_sequential_evaluate() {
    // The parallel LOO runner must reproduce plain sequential `evaluate`
    // calls bit-for-bit over every Image target — scheduling must never
    // leak into results.
    use transfergraph_repro::core::runner::{run_jobs_on, EvalJob};
    let zoo = small_zoo();
    let opts = fast_opts();
    let jobs: Vec<EvalJob> = zoo
        .targets_of(Modality::Image)
        .into_iter()
        .flat_map(|target| {
            [
                Strategy::Random,
                Strategy::LogMe,
                Strategy::lr_all_logme(),
                Strategy::transfer_graph_default(),
            ]
            .into_iter()
            .map(move |strategy| EvalJob { strategy, target })
        })
        .collect();
    let sequential: Vec<_> = {
        let wb = Workbench::new(&zoo);
        jobs.iter()
            .map(|j| evaluate(&wb, &j.strategy, j.target, &opts))
            .collect()
    };
    let wb = Workbench::new(&zoo);
    let summary = run_jobs_on(&wb, &jobs, &opts, 4);
    assert_eq!(summary.outcomes.len(), sequential.len());
    for (s, p) in sequential.iter().zip(&summary.outcomes) {
        assert_eq!(s.dataset, p.dataset);
        assert_eq!(s.strategy, p.strategy);
        assert_eq!(
            s.predictions, p.predictions,
            "parallel run diverged for {} on {:?}",
            s.strategy, s.dataset
        );
        assert_eq!(s.ground_truth, p.ground_truth);
        assert_eq!(s.pearson, p.pearson);
        assert_eq!(s.spearman, p.spearman);
    }
    // The run's summary accounts for the work it did.
    assert!(summary.stats.hits() + summary.stats.misses() > 0);
}

/// Fresh per-test artifact directory under the system temp dir.
fn temp_artifact_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tg-e2e-artifacts-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_from_disk_reproduces_cold_predictions_bit_identically() {
    let zoo = small_zoo();
    let dir = temp_artifact_dir("roundtrip");
    let target = zoo.targets_of(Modality::Image)[0];
    let strategies = [
        Strategy::LogMe,
        Strategy::lr_all_logme(),
        Strategy::transfer_graph_default(),
    ];

    let cold: Vec<Vec<f64>> = {
        let wb = Workbench::open(&zoo, StoreOptions::in_dir(&dir));
        let preds = strategies
            .iter()
            .map(|s| evaluate(&wb, s, target, &fast_opts()).predictions)
            .collect();
        let persisted = wb.persist().expect("persist artifacts");
        assert!(persisted.entries > 0 && persisted.bytes > 0);
        preds
    };

    // A second workbench over the same directory serves every feature from
    // the disk tier: zero recomputation, identical bits out.
    let wb = Workbench::open(&zoo, StoreOptions::in_dir(&dir));
    let before = wb.stats();
    let warm: Vec<Vec<f64>> = strategies
        .iter()
        .map(|s| evaluate(&wb, s, target, &fast_opts()).predictions)
        .collect();
    assert_eq!(cold, warm, "disk round-trip must be bit-identical");
    let delta = wb.stats().delta_since(&before);
    assert_eq!(delta.misses(), 0, "warm run must not recompute anything");
    assert!(delta.disk.hits > 0, "features must come from the disk tier");
    assert!(wb.stats().disk.bytes_read > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_artifacts_from_another_zoo_are_not_used() {
    let dir = temp_artifact_dir("fingerprint");
    {
        let zoo = small_zoo();
        let wb = Workbench::open(&zoo, StoreOptions::in_dir(&dir));
        let target = zoo.targets_of(Modality::Image)[0];
        evaluate(&wb, &Strategy::LogMe, target, &fast_opts());
        wb.persist().expect("persist artifacts");
    }
    // Same directory, different zoo config: the fingerprint must gate the
    // foreign artifacts out and everything recomputes.
    let other = ModelZoo::build(&ZooConfig::small(7));
    let wb = Workbench::open(&other, StoreOptions::in_dir(&dir));
    let loaded: usize = ArtifactKind::ALL
        .iter()
        .map(|&kind| wb.store().warm_entries(kind))
        .sum();
    assert_eq!(loaded, 0, "foreign fingerprints must not load");
    let target = other.targets_of(Modality::Image)[0];
    let out = evaluate(&wb, &Strategy::LogMe, target, &fast_opts());
    assert!(out.predictions.iter().all(|p| p.is_finite()));
    let stats = wb.stats();
    assert_eq!(stats.disk.hits, 0);
    assert!(stats.logme.1 > 0, "LogME must be recomputed from scratch");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_artifact_files_never_panic_and_fall_back_to_recompute() {
    let zoo = small_zoo();
    let dir = temp_artifact_dir("corrupt");
    let target = zoo.targets_of(Modality::Text)[0];
    let clean = {
        let wb = Workbench::open(&zoo, StoreOptions::in_dir(&dir));
        let out = evaluate(&wb, &Strategy::lr_all_logme(), target, &fast_opts());
        wb.persist().expect("persist artifacts");
        out.predictions
    };

    // Truncate one artifact file and replace another with garbage.
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert!(files.len() >= 2, "expected several persisted caches");
    let bytes = std::fs::read(&files[0]).unwrap();
    std::fs::write(&files[0], &bytes[..bytes.len() / 2]).unwrap();
    std::fs::write(&files[1], b"definitely not an artifact").unwrap();

    let wb = Workbench::open(&zoo, StoreOptions::in_dir(&dir));
    let out = evaluate(&wb, &Strategy::lr_all_logme(), target, &fast_opts());
    assert_eq!(out.predictions, clean, "recompute must be bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registry_eviction_with_disk_tier_reroutes_bit_identically_and_warm() {
    use transfergraph_repro::core::{RegistryOptions, ZooRegistry};
    let dir = temp_artifact_dir("registry");
    let registry = ZooRegistry::new(RegistryOptions {
        artifact_dir: Some(dir.clone()),
        max_zoos: Some(1),
        ..RegistryOptions::default()
    });
    let config = ZooConfig::small(2024);
    let strategy = Strategy::transfer_graph_default();
    let first = {
        let handle = registry.get_or_build(&config);
        let target = handle.zoo().targets_of(Modality::Image)[0];
        evaluate(handle.workbench(), &strategy, target, &fast_opts())
    };
    // Routing a second config exceeds the 1-zoo bound: the first handle is
    // evicted, persisting its artifacts to the shared directory first.
    registry.get_or_build(&ZooConfig::small(7));
    assert_eq!(registry.stats().evictions, 1);
    // Re-routing rebuilds the zoo, warms from the persisted artifacts, and
    // must reproduce the pre-eviction predictions bit-for-bit.
    let handle = registry.get_or_build(&config);
    let target = handle.zoo().targets_of(Modality::Image)[0];
    let rerouted = evaluate(handle.workbench(), &strategy, target, &fast_opts());
    assert_eq!(first.predictions, rerouted.predictions);
    assert_eq!(first.pearson, rerouted.pearson);
    assert!(
        handle.store().disk_stats().hits > 0,
        "re-route must serve the evicted handle's persisted artifacts"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registry_concurrent_routing_builds_each_zoo_once_and_serves_all_threads() {
    use transfergraph_repro::core::{RegistryOptions, ZooRegistry};
    let registry = ZooRegistry::new(RegistryOptions::default());
    let configs: Vec<ZooConfig> = (0..3).map(|i| ZooConfig::small(100 + i)).collect();
    // Registry-free oracle predictions, one per config.
    let oracle: Vec<Vec<f64>> = configs
        .iter()
        .map(|c| {
            let zoo = ModelZoo::build(c);
            let t = zoo.targets_of(Modality::Text)[0];
            evaluate(
                &Workbench::new(&zoo),
                &Strategy::lr_all_logme(),
                t,
                &fast_opts(),
            )
            .predictions
        })
        .collect();
    // Six threads race two-deep on each fingerprint; every one must get the
    // right zoo and the oracle's exact predictions.
    std::thread::scope(|scope| {
        for t in 0..6 {
            let (registry, configs, oracle) = (&registry, &configs, &oracle);
            scope.spawn(move || {
                let i = t % configs.len();
                let handle = registry.get_or_build(&configs[i]);
                assert_eq!(handle.fingerprint(), configs[i].fingerprint());
                let target = handle.zoo().targets_of(Modality::Text)[0];
                let out = evaluate(
                    handle.workbench(),
                    &Strategy::lr_all_logme(),
                    target,
                    &fast_opts(),
                );
                assert_eq!(out.predictions, oracle[i]);
            });
        }
    });
    let stats = registry.stats();
    assert_eq!(stats.builds, 3, "each fingerprint built exactly once");
    assert_eq!(stats.resident, 3);
    assert_eq!(stats.route_hits + stats.route_misses, 6);
}

#[test]
fn shared_workbench_survives_concurrent_hammering() {
    // Concurrency smoke test: ≥4 threads interleave every cache entry
    // point against one shared workbench; values must match a sequential
    // oracle computed on a separate instance.
    use transfergraph_repro::core::Representation;
    let zoo = small_zoo();
    let shared = Workbench::new(&zoo);
    let oracle = Workbench::new(&zoo);
    let models = zoo.models_of(Modality::Image);
    let targets = zoo.targets_of(Modality::Image);
    let threads = 6;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let shared = &shared;
            let oracle = &oracle;
            let models = &models;
            let targets = &targets;
            scope.spawn(move || {
                // Each thread walks the grid from a different offset so
                // reads and writes of the same keys interleave.
                for k in 0..models.len() * targets.len() {
                    let i = (k + t * 7) % (models.len() * targets.len());
                    let (m, d) = (models[i % models.len()], targets[i / models.len()]);
                    assert_eq!(shared.logme(m, d), oracle.logme(m, d));
                    let d2 = targets[(i + 1) % targets.len()];
                    for rep in [Representation::DomainSimilarity, Representation::Task2Vec] {
                        assert_eq!(shared.similarity(d, d2, rep), oracle.similarity(d, d2, rep));
                        assert_eq!(shared.representation(d, rep), oracle.representation(d, rep));
                    }
                }
            });
        }
    });
    // Exactly one miss per distinct key ever reached the compute path on
    // the oracle; the shared bench may have raced a few duplicate computes
    // but must hold the same number of entries.
    assert_eq!(shared.logme_cache_len(), oracle.logme_cache_len());
    assert!(shared.stats().hits() > 0, "hammering must hit the cache");
}
