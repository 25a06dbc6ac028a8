//! Fig. 6: SDC rates of the classifier models with and without Ranger (single bit flips,
//! 32-bit fixed-point datatype).
//!
//! This binary runs entirely through the [`Pipeline`] API: one builder chain per model
//! replaces the hand-wired load → profile → protect → select-inputs → campaign sequence.

use ranger::bounds::BoundsConfig;
use ranger::transform::RangerConfig;
use ranger_bench::{print_table, write_json, ExpOptions, Pipeline};
use ranger_inject::FaultModel;
use ranger_models::ModelKind;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    model: String,
    category: String,
    original_sdc_percent: f64,
    ranger_sdc_percent: f64,
    confidence95_percent: (f64, f64),
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = ExpOptions::from_args();
    let mut rows = Vec::new();

    for kind in opts.models_or(&ModelKind::classifiers()) {
        eprintln!("[fig6] preparing {kind} ...");
        let report = Pipeline::for_model(kind)
            .seed(opts.seed)
            .profile(BoundsConfig::default())
            .protect(RangerConfig::default())
            .campaign(opts.campaign(FaultModel::single_bit_fixed32()))
            .inputs(opts.inputs)
            .run()?;
        let campaign = report.campaign.expect("campaign configured");
        for (base, prot) in campaign.baseline.iter().zip(&campaign.protected) {
            rows.push(Row {
                model: report.model.clone(),
                category: base.category.clone(),
                original_sdc_percent: base.sdc_percent,
                ranger_sdc_percent: prot.sdc_percent,
                confidence95_percent: base.ci95_percent,
            });
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.category.clone(),
                format!("{:.2}%", r.original_sdc_percent),
                format!("{:.2}%", r.ranger_sdc_percent),
                format!(
                    "[{:.2}, {:.2}]%",
                    r.confidence95_percent.0, r.confidence95_percent.1
                ),
            ]
        })
        .collect();
    print_table(
        "Fig. 6 — SDC rates of classifier DNNs (original vs. Ranger)",
        &["Model", "Category", "Original SDC", "Ranger SDC", "95% CI"],
        &table,
    );
    let avg_orig: f64 =
        rows.iter().map(|r| r.original_sdc_percent).sum::<f64>() / rows.len().max(1) as f64;
    let avg_ranger: f64 =
        rows.iter().map(|r| r.ranger_sdc_percent).sum::<f64>() / rows.len().max(1) as f64;
    println!("\nAverage SDC rate: {avg_orig:.2}% (original) -> {avg_ranger:.2}% (Ranger)");
    write_json("fig6_classifier_sdc", &rows);
    Ok(())
}
