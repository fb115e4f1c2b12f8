//! Program-graph construction and feature-encoding speed (the "Graph
//! Generator" stage of Fig. 3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use design_space::DesignSpace;
use gdse_gnn::{GraphInput, KernelBatch};
use hls_ir::kernels;
use proggraph::build_graph_bidirectional;

fn bench_graphbuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("graphbuild");
    for kernel in [kernels::aes(), kernels::stencil(), kernels::mm2()] {
        let space = DesignSpace::from_kernel(&kernel);
        group.bench_function(BenchmarkId::new("build", kernel.name()), |b| {
            b.iter(|| build_graph_bidirectional(std::hint::black_box(&kernel), &space));
        });
        let graph = build_graph_bidirectional(&kernel, &space);
        let point = space.default_point();
        group.bench_function(BenchmarkId::new("lower_features", kernel.name()), |b| {
            b.iter(|| GraphInput::from_graph(std::hint::black_box(&graph), Some(&point)));
        });
        // A batch of consecutive mixed-radix points, as a DSE sweep scores:
        // the batch sizes of a served request (1, 2) up to a DSE batch (64).
        for points in [1u128, 2, 4, 64] {
            let batch: Vec<_> = (0..points).map(|i| space.point_at(i % space.size())).collect();
            let id = format!("{}_b{points}", kernel.name());
            group.bench_function(BenchmarkId::new("lower_batch", id), |b| {
                b.iter(|| KernelBatch::new(std::hint::black_box(&graph), &batch));
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_graphbuild
}
criterion_main!(benches);
