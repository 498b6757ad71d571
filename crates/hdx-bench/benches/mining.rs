//! Miner benchmarks (ablation for Fig. 2b's execution-time panel): the
//! Apriori and FP-Growth oracles vs the vertical search, on base and
//! generalized transactions of synthetic-peak and compas.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdx_bench::experiments::{outcomes_for, pipeline_for};
use hdx_core::HDivExplorerConfig;
use hdx_datasets::{compas, synthetic_peak};
use hdx_items::ItemCatalog;
use hdx_mining::{apriori, fpgrowth, mine, MiningConfig, MiningResult, Transactions};
use std::hint::black_box;

/// A miner under the ablation.
type Miner = fn(&Transactions, &ItemCatalog, &MiningConfig) -> MiningResult;

/// The ablation: the two oracles and the production search (one thread).
const MINERS: [(&str, Miner); 3] = [
    ("apriori", apriori),
    ("fpgrowth", fpgrowth),
    ("vertical", mine),
];

fn bench_miners(c: &mut Criterion) {
    let config = MiningConfig {
        min_support: 0.05,
        ..MiningConfig::default()
    };
    let datasets = vec![synthetic_peak(2_500, 1), compas(1_543, 1)];
    let mut group = c.benchmark_group("mining");
    group.sample_size(20);
    for dataset in &datasets {
        let outcomes = outcomes_for(dataset);
        let pipeline = pipeline_for(dataset, HDivExplorerConfig::default());
        let (catalog, hierarchies, _) = pipeline.discretize(&dataset.frame, &outcomes);
        for (kind, transactions) in [
            (
                "base",
                Transactions::encode_base(&dataset.frame, &catalog, &hierarchies, &outcomes),
            ),
            (
                "generalized",
                Transactions::encode_generalized(&dataset.frame, &catalog, &hierarchies, &outcomes),
            ),
        ] {
            for (miner, run) in MINERS {
                group.bench_with_input(
                    BenchmarkId::new(format!("{}/{kind}", dataset.name), miner),
                    &transactions,
                    |b, t| b.iter(|| black_box(run(t, &catalog, &config).itemsets.len())),
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_miners);
criterion_main!(benches);
