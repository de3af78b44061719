//! Timing bench (in-tree harness): rollback-and-replay pinpointing cost as a function of
//! how deep into the epoch the attack fired (§3.3 — replay "does not
//! provide high performance" by design; this quantifies it).

use crimes_bench::{criterion_group, criterion_main};
use crimes_bench::harness::{BenchmarkId, Criterion};

use crimes::ReplayEngine;
use crimes_vm::Vm;
use crimes_workloads::attacks;

/// Build a recorded epoch with `noise` ops before the overflow; return
/// everything the replay engine needs.
#[allow(clippy::type_complexity)]
fn scenario(
    noise: usize,
) -> (
    Vm,
    Vec<u8>,
    Vec<u8>,
    crimes_vm::MetaSnapshot,
    Vec<crimes_vm::GuestOp>,
    u32,
    crimes_vm::Gva,
) {
    let mut b = Vm::builder();
    b.pages(4096).seed(3);
    let mut vm = b.build();
    vm.set_recording(true);
    let pid = vm.spawn_process("victim", 0, 32).unwrap();
    let frames = vm.memory().dump_frames();
    let disk = vm.disk().dump();
    let meta = vm.meta_snapshot();
    let mark = vm.trace_mark();
    for i in 0..noise {
        vm.dirty_arena_page(pid, 8 + i % 16, i % 4096, i as u8).unwrap();
    }
    let rec = attacks::inject_heap_overflow(&mut vm, pid, 64, 16).unwrap();
    let crimes_workloads::AttackRecord::HeapOverflow { object, size, .. } = rec else {
        unreachable!()
    };
    let ops = vm.trace_since(mark);
    (vm, frames, disk, meta, ops, pid, object.add(size))
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_pinpoint");
    group.sample_size(20);
    for noise in [10usize, 100, 1000] {
        let (mut vm, frames, disk, meta, ops, pid, canary) = scenario(noise);
        // The monitor's parse, made once at protect time, not per replay.
        let symbols = crimes_vmi::Symbols::parse(vm.system_map()).unwrap();
        let engine = ReplayEngine::new(&symbols);
        group.bench_with_input(BenchmarkId::from_parameter(noise), &noise, |b, _| {
            b.iter(|| {
                engine
                    .pinpoint_canary_attack(&mut vm, &frames, &disk, &meta, &ops, pid, canary)
                    .unwrap()
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
