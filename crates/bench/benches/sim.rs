//! Criterion benchmarks of the simulator on one Fig. 8-sized executable
//! (QFT-64 on the linear L6 device at capacity 20, gate-swap
//! reordering): the per-model `simulate` the paper's gate-implementation
//! sweep would run against lowering once and evaluating the shared tape
//! under each of the four models, and the compute/communication
//! finaliser alone on that executable's intervals.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qccd::sim::{evaluate, lower, simulate, spans::SpanSet, spans_of};
use qccd_circuit::generators::Benchmark;
use qccd_compiler::{compile, CompilerConfig, Executable};
use qccd_device::{presets, Device};
use qccd_physics::{GateImpl, PhysicalModel};

fn fig8_executable() -> (Executable, Device) {
    let device = presets::l6(20);
    let exe = compile(&Benchmark::Qft.build(), &device, &CompilerConfig::default())
        .expect("QFT-64 compiles on L6 at capacity 20");
    (exe, device)
}

fn bench_shared_lowering(c: &mut Criterion) {
    let (exe, device) = fig8_executable();
    let models = GateImpl::ALL.map(PhysicalModel::with_gate);
    let mut group = c.benchmark_group("sim");
    group.sample_size(20);
    group.bench_function("qft64_l6_20/simulate_x4", |b| {
        b.iter(|| {
            for model in &models {
                black_box(simulate(&exe, &device, model).expect("simulates"));
            }
        });
    });
    group.bench_function("qft64_l6_20/lower_once_evaluate_x4", |b| {
        b.iter(|| {
            let tape = lower(&exe, &device).expect("lowers");
            for model in &models {
                black_box(evaluate(&tape, model));
            }
        });
    });
    group.bench_function("qft64_l6_20/lower", |b| {
        b.iter(|| black_box(lower(&exe, &device).expect("lowers")));
    });
    group.finish();
}

fn bench_finaliser(c: &mut Criterion) {
    let (exe, device) = fig8_executable();
    let tape = lower(&exe, &device).expect("lowers");
    let (gates, shuttles) = spans_of(&tape, &PhysicalModel::default());
    let mut group = c.benchmark_group("sim");
    group.sample_size(20);
    // The finaliser consumes its sets; the clones are part of the time.
    group.bench_function("qft64_l6_20/decompose", |b| {
        b.iter(|| black_box(SpanSet::decompose(gates.clone(), shuttles.clone())));
    });
    group.finish();
}

criterion_group!(benches, bench_shared_lowering, bench_finaliser);
criterion_main!(benches);
