//! Benchmarks of the §5.3 machinery: linear embedding and the
//! segmentation DP returning the R highest-scoring answers (Figure 7's
//! compute path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use topk_cluster::{greedy_embedding, segment_topk, spectral_embedding, PairScores, SegmentConfig};

/// Block-diagonal scores: `n` items in clusters of ~8 with noise.
fn clustered_scores(n: usize) -> PairScores {
    let mut pairs = Vec::new();
    let mut state = 7u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as f64 / 1000.0
    };
    for i in 0..n {
        for j in (i + 1)..n {
            let same = i / 8 == j / 8;
            let base = if same { 0.8 } else { -0.8 };
            pairs.push((i, j, base + 0.3 * (next() - 0.5)));
        }
    }
    PairScores::from_pairs(n, &pairs)
}

fn bench_segmentation(c: &mut Criterion) {
    let mut g = c.benchmark_group("segmentation");
    g.sample_size(10);
    for &n in &[64usize, 160, 320] {
        let ps = clustered_scores(n);
        g.bench_with_input(BenchmarkId::new("greedy_embedding", n), &ps, |bch, ps| {
            bch.iter(|| greedy_embedding(black_box(ps), 0.6))
        });
        g.bench_with_input(BenchmarkId::new("spectral_embedding", n), &ps, |bch, ps| {
            bch.iter(|| spectral_embedding(black_box(ps)))
        });
        let order = greedy_embedding(&ps, 0.6);
        let permuted = ps.permute(&order);
        for &r in &[1usize, 5] {
            let cfg = SegmentConfig {
                k: 10,
                r,
                max_segment_len: 24,
            };
            g.bench_with_input(
                BenchmarkId::new(format!("segment_topk_r{r}"), n),
                &permuted,
                |bch, ps| bch.iter(|| segment_topk(black_box(ps), &cfg)),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_segmentation);
criterion_main!(benches);
