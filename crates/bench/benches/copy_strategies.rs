//! Timing bench (in-tree harness): the page copier's two wires — Remus's socket+cipher
//! path vs CRIMES's memcpy (Optimization 1), per copied-byte throughput, each as a
//! one-worker walk — plus the fused walk (copy + digest in one pass, sharded) against
//! the same work done as two separate passes, at a fixed worker count.

use crimes_bench::{criterion_group, criterion_main};
use crimes_bench::harness::{BenchmarkId, Criterion, Throughput};

use crimes_checkpoint::{
    BackupVm, CopyStrategy, FusedDigest, FusedPageVisitor, ImageDigest, MappedPage, PageCopier,
    PauseWindowPool,
};
use crimes_vm::{Pfn, Vm, PAGE_SIZE};

/// Worker count for the fused-walk variants (threads timeshare on
/// smaller hosts; the point here is fused-vs-unfused at equal work, not
/// scaling).
const FUSED_WORKERS: usize = 4;

fn setup(pages: usize) -> (Vm, BackupVm, Vec<MappedPage>) {
    let mut builder = Vm::builder();
    builder.pages(8192).seed(11);
    let mut vm = builder.build();
    let pid = vm.spawn_process("app", 0, pages + 8).unwrap();
    for i in 0..pages {
        vm.dirty_arena_page(pid, i, 0, i as u8).unwrap();
    }
    let backup = BackupVm::new(&vm);
    let mapped: Vec<MappedPage> = vm
        .memory()
        .dirty()
        .iter()
        .map(|p: Pfn| (p, vm.memory().pfn_to_mfn(p)))
        .collect();
    (vm, backup, mapped)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("copy_strategies");
    group.sample_size(20);
    for pages in [256usize, 2048] {
        let (vm, mut backup, mapped) = setup(pages);
        group.throughput(Throughput::Bytes((mapped.len() * PAGE_SIZE) as u64));
        let memcpy = PageCopier::memcpy();
        let socket = PageCopier::new(CopyStrategy::Socket, 0xfeed, 0);
        let mut one = PauseWindowPool::new(1, vm.memory().num_pages(), 2);
        for (name, copier) in [("memcpy", &memcpy), ("socket_ssh", &socket)] {
            group.bench_with_input(BenchmarkId::new(name, pages), &pages, |b, _| {
                b.iter(|| one.run(vm.memory(), &mut backup, &mapped, &[copier]))
            });
        }

        // Copy + digest as two separate passes vs one fused sharded pass
        // over the same pages.
        let mut digest = ImageDigest::of(backup.frames(), backup.disk());
        group.bench_with_input(BenchmarkId::new("unfused_copy_digest", pages), &pages, |b, _| {
            b.iter(|| {
                for &(_, mfn) in &mapped {
                    backup.store_frame(mfn, vm.memory().frame(mfn));
                }
                for &(_, mfn) in &mapped {
                    digest.update_page(mfn.0 as usize, backup.frame(mfn));
                }
            })
        });
        let mut pool = PauseWindowPool::new(FUSED_WORKERS, vm.memory().num_pages(), 2);
        let visitors: [&dyn FusedPageVisitor; 2] = [&memcpy, &FusedDigest];
        group.bench_with_input(BenchmarkId::new("fused_copy_digest", pages), &pages, |b, _| {
            b.iter(|| {
                pool.run(vm.memory(), &mut backup, &mapped, &visitors)
                    .expect("no faults armed")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
