//! Timing bench (in-tree harness): dirty-bitmap scanning, bit-by-bit (Remus) vs word-wise
//! (CRIMES Optimization 3) — the Figure 6b ablation.

use crimes_bench::{criterion_group, criterion_main};
use crimes_bench::harness::{BenchmarkId, Criterion};
use crimes_rng::ChaCha8Rng;

use crimes_checkpoint::{scan_bit_by_bit, scan_wordwise};
use crimes_vm::{DirtyBitmap, Pfn};

fn bitmap_of(gib: usize, dirty_fraction: f64) -> DirtyBitmap {
    let pages = gib * (1usize << 18);
    let mut bm = DirtyBitmap::new(pages);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for _ in 0..((pages as f64 * dirty_fraction) as usize) {
        bm.mark(Pfn(rng.gen_range(0..pages as u64)));
    }
    bm
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmap_scan");
    group.sample_size(10);
    for gib in [1usize, 4] {
        let bm = bitmap_of(gib, 0.01);
        // The checkpointer's page list: room for every page, reused.
        let mut dirty = Vec::with_capacity(bm.num_pages());
        group.bench_with_input(BenchmarkId::new("bit_by_bit", gib), &bm, |b, bm| {
            b.iter(|| scan_bit_by_bit(std::hint::black_box(bm), &mut dirty))
        });
        group.bench_with_input(BenchmarkId::new("wordwise", gib), &bm, |b, bm| {
            b.iter(|| scan_wordwise(std::hint::black_box(bm), &mut dirty))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
