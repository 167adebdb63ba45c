//! Seeded inputs shared by the workloads: the labeled catalog a model
//! trains on, the trained model, and streamed PGECAT01 catalogs.
//!
//! Every input is a pure function of the workload seed, so a parent
//! and its child phase regenerate identical data.

use pge_core::{train_pge, PgeConfig, PgeModel};
use pge_datagen::{generate_catalog, stream_catalog, CatalogConfig};
use pge_eval::{average_precision, Scored};
use pge_graph::Dataset;
use pge_store::CatalogWriter;
use std::path::Path;

/// Products in the labeled catalog the scan and serve models train
/// on; a third of them carry a labeled (valid/test) triple.
const MODEL_PRODUCTS: usize = 1000;
/// Epochs for the scan and serve models: enough that the detector
/// flags a plausible share of a clean catalog, not nearly all of it,
/// and that the model's PR-AUC swings less from seed to seed than it
/// does after 12.
const MODEL_EPOCHS: usize = 20;

/// Derive an independent sub-seed for one input from the workload
/// seed.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    crate::Mix(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// The labeled catalog the scan and serve models train on.
pub fn model_dataset(seed: u64) -> Dataset {
    generate_catalog(&CatalogConfig {
        products: MODEL_PRODUCTS,
        labeled: MODEL_PRODUCTS / 3,
        seed: sub_seed(seed, 1),
        ..CatalogConfig::default()
    })
}

/// Write `data` as the TSV the set-up children read (see
/// `crate::around_setups`).
pub fn write_tsv(data: &Dataset, dir: &Path) -> Result<(), String> {
    let text = pge_graph::tsv::to_tsv(data).map_err(|e| format!("dataset TSV: {e}"))?;
    std::fs::write(dir.join("data.tsv"), text).map_err(|e| format!("write data.tsv: {e}"))
}

/// Train the scan and serve model on `data` with `nproc` threads.
pub fn train_model(data: &Dataset, seed: u64) -> PgeModel {
    train_pge(
        data,
        &PgeConfig {
            epochs: MODEL_EPOCHS,
            threads: crate::nproc(),
            seed: sub_seed(seed, 2),
            ..PgeConfig::default()
        },
    )
    .model
}

/// Stream a `products`-product catalog with distinct titles to `path`
/// as PGECAT01; returns the number of triples.
pub fn write_catalog(path: &Path, products: usize, seed: u64) -> Result<u64, String> {
    let mut w = CatalogWriter::create(path, seed).map_err(|e| format!("create catalog: {e}"))?;
    let stats = stream_catalog(
        &CatalogConfig {
            products,
            seed,
            ..CatalogConfig::default()
        },
        &mut w,
    )
    .map_err(|e| format!("stream catalog: {e}"))?;
    w.finish().map_err(|e| format!("finish catalog: {e}"))?;
    Ok(stats.triples)
}

/// PR-AUC of `model` on the test split of `data`, incorrect triples as
/// the positive class.
pub fn pr_auc(model: &PgeModel, data: &Dataset) -> f64 {
    let scored: Vec<Scored> = data
        .test
        .iter()
        .map(|lt| Scored::new(-model.score_triple(&lt.triple), !lt.correct))
        .collect();
    average_precision(&scored) as f64
}
