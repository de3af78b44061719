//! Timing bench (in-tree harness): canary validation — full-table scan vs dirty-scoped
//! scan (the DESIGN.md ablation: why the Checkpointer hands the Detector a
//! dirty-page list), plus raw validation throughput (§5.5's ~90k/ms).

use crimes_bench::{criterion_group, criterion_main};
use crimes_bench::harness::{BenchmarkId, Criterion, Throughput};

use crimes_vm::Vm;
use crimes_vmi::{CanaryScanner, VmiSession};

fn vm_with_canaries(count: usize) -> Vm {
    let mut builder = Vm::builder();
    builder.pages(32_768).seed(7);
    let mut vm = builder.build();
    let pid = vm.spawn_process("bigheap", 0, 24_000).unwrap();
    for _ in 0..count {
        vm.malloc(pid, 128).unwrap();
    }
    vm
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("canary_scan");
    group.sample_size(20);
    for count in [1_000usize, 10_000] {
        let mut vm = vm_with_canaries(count);
        let mut session = VmiSession::init(&vm).unwrap();
        session.refresh_address_spaces(vm.memory()).unwrap();
        let scanner = CanaryScanner::new(vm.canary_secret());

        group.throughput(Throughput::Elements(count as u64));
        group.bench_with_input(BenchmarkId::new("scan_all", count), &count, |b, _| {
            b.iter(|| scanner.scan_all(&session, vm.memory()).unwrap())
        });

        // Dirty-scoped: only one page dirtied — the common per-epoch case.
        vm.memory_mut().clear_dirty();
        let pid = 1;
        let obj = vm.malloc(pid, 64).unwrap();
        vm.write_user(pid, obj, &[1u8; 64], 0).unwrap();
        let dirty = vm.memory().dirty().clone();
        session.refresh_address_spaces(vm.memory()).unwrap();
        group.bench_with_input(BenchmarkId::new("scan_dirty", count), &count, |b, _| {
            b.iter(|| scanner.scan_dirty(&session, vm.memory(), &dirty).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
