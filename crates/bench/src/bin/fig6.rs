//! **Figure 6**: fine-tuning performance distribution of all models over
//! each target dataset, sorted by standard deviation — the plot motivating
//! which datasets need model selection at all.

#![allow(
    clippy::unwrap_used,
    reason = "experiment binary: a failed setup step aborts the run loudly"
)]

use tg_bench::zoo_handle_from_env;
use tg_zoo::{FineTuneMethod, Modality};
use transfergraph::report::Table;

fn main() {
    let handle = zoo_handle_from_env();
    let zoo = handle.zoo();
    for modality in [Modality::Image, Modality::Text] {
        println!("Figure 6 ({modality}) — fine-tune accuracy per dataset, sorted by std\n");
        let models = zoo.models_of(modality);
        let mut rows: Vec<(String, f64, f64, f64, f64)> = zoo
            .targets_of(modality)
            .into_iter()
            .map(|d| {
                let accs: Vec<f64> = models
                    .iter()
                    .map(|&m| zoo.fine_tune(m, d, FineTuneMethod::Full))
                    .collect();
                let (lo, hi) = tg_linalg::stats::min_max(&accs).unwrap();
                (
                    zoo.dataset(d).name.clone(),
                    tg_linalg::stats::std_dev(&accs),
                    tg_linalg::stats::mean(&accs),
                    lo,
                    hi,
                )
            })
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let mut table = Table::new(vec![
            "dataset",
            "std",
            "mean",
            "min",
            "max",
            "selection needed?",
        ]);
        for (name, std, mean, lo, hi) in rows {
            table.row(vec![
                name,
                format!("{std:.3}"),
                format!("{mean:.3}"),
                format!("{lo:.3}"),
                format!("{hi:.3}"),
                if std > 0.02 {
                    "yes".into()
                } else {
                    "no (reported excluded)".to_string()
                },
            ]);
        }
        println!("{}", table.render());
    }
}
