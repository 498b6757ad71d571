//! Micro-benchmarks for the word-level outcome kernels: the bitplane
//! popcount/masked-sum paths in [`hdx_stats::OutcomePlanes`] against the
//! scalar row-walking reference ([`hdx_mining::accum_scalar`]), on dense
//! boolean, dense numeric, and mixed outcome vectors.
//!
//! The headline acceptance number (boolean dense kernel ≥ 3x scalar) is
//! measured by the `bench_mining` binary, which exports machine-readable
//! timings to `BENCH_mining.json`; this harness gives the same comparison
//! with criterion's statistics for local iteration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hdx_bench::splitmix64;
use hdx_items::Bitset;
use hdx_mining::accum_scalar;
use hdx_stats::{simd, Outcome, OutcomePlanes};
use std::hint::black_box;

const N_ROWS: usize = 65_536;
const N_COVERS: usize = 32;

fn covers(n_rows: usize, seed: u64) -> Vec<Bitset> {
    let mut state = seed;
    (0..N_COVERS)
        .map(|_| {
            let mut cover = Bitset::new(n_rows);
            for row in 0..n_rows {
                // ~50% density: one pseudo-random bit per row.
                if splitmix64(&mut state) & 1 == 1 {
                    cover.set(row);
                }
            }
            cover
        })
        .collect()
}

fn outcomes(kind: &str, n_rows: usize) -> Vec<Outcome> {
    let mut state = 0x5eed_0123_4567_89ab;
    (0..n_rows)
        .map(|_| {
            let bits = splitmix64(&mut state);
            match kind {
                "boolean" => Outcome::Bool(bits & 1 == 1),
                "numeric" => Outcome::Real((bits >> 11) as f64 * 1e-6),
                _ => match bits % 10 {
                    0 => Outcome::Undefined,
                    1..=5 => Outcome::Bool(bits & 2 == 2),
                    _ => Outcome::Real((bits >> 11) as f64 * 1e-6),
                },
            }
        })
        .collect()
}

fn bench_kernels(c: &mut Criterion) {
    let cover_set = covers(N_ROWS, 7);
    let counts: Vec<u64> = cover_set.iter().map(|c| c.count() as u64).collect();
    let mut group = c.benchmark_group("kernels");
    group.throughput(Throughput::Elements((N_ROWS * N_COVERS) as u64));
    for kind in ["boolean", "numeric", "mixed"] {
        let outcome_vec = outcomes(kind, N_ROWS);
        let planes = OutcomePlanes::from_outcomes(&outcome_vec);
        group.bench_with_input(BenchmarkId::new("kernel", kind), &planes, |b, planes| {
            b.iter(|| {
                for (cover, &n) in cover_set.iter().zip(&counts) {
                    black_box(planes.accum(cover.words(), n));
                }
            })
        });
        group.bench_with_input(
            BenchmarkId::new("scalar", kind),
            &outcome_vec,
            |b, outcome_vec| {
                b.iter(|| {
                    for cover in &cover_set {
                        black_box(accum_scalar(cover, outcome_vec));
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("pair-fused", kind),
            &planes,
            |b, planes| {
                b.iter(|| {
                    for pair in cover_set.chunks_exact(2) {
                        let n = simd::and_count(pair[0].words(), pair[1].words());
                        black_box(planes.accum_pair(pair[0].words(), pair[1].words(), n));
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
