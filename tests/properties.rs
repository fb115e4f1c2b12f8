//! Property-based tests over the cross-crate invariants.

use design_space::{rules, DesignSpace};
use gdse_gnn::{GraphBatch, GraphInput};
use gnn_dse::explorer::HybridExplorer;
use gnn_dse::objective::{Objective, ObjectiveWeights, ResourceBudget};
use gnn_dse::pareto::{result_axes, strictly_dominates, AXES};
use gnn_dse::{Budget, Database, ExecEngine, Explorer, ParetoArchive};
use hls_ir::kernels;
use merlin_sim::MerlinSimulator;
use proggraph::{build_graph_bidirectional, node_features};
use proptest::prelude::*;

/// splitmix64 — a deterministic value stream for building test inputs from
/// one proptest-drawn seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// All thirteen kernels, addressable by a proptest index.
fn kernel_names() -> &'static [&'static str] {
    &[
        "aes",
        "atax",
        "gemm-blocked",
        "gemm-ncubed",
        "mvt",
        "spmv-crs",
        "spmv-ellpack",
        "stencil",
        "nw",
        "bicg",
        "doitgen",
        "gesummv",
        "2mm",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// point_at / index_of round-trips for any index in any kernel's space.
    #[test]
    fn point_index_round_trip(kidx in 0usize..13, raw in any::<u64>()) {
        let kernel = kernels::kernel_by_name(kernel_names()[kidx]).unwrap();
        let space = DesignSpace::from_kernel(&kernel);
        let idx = u128::from(raw) % space.size();
        let point = space.point_at(idx);
        prop_assert_eq!(space.index_of(&point), Some(idx));
        prop_assert!(space.contains(&point));
    }

    /// Canonicalization is idempotent and stays within the space.
    #[test]
    fn canonicalize_idempotent(kidx in 0usize..13, raw in any::<u64>()) {
        let kernel = kernels::kernel_by_name(kernel_names()[kidx]).unwrap();
        let space = DesignSpace::from_kernel(&kernel);
        let point = space.point_at(u128::from(raw) % space.size());
        let c1 = rules::canonicalize(&kernel, &space, &point);
        let c2 = rules::canonicalize(&kernel, &space, &c1);
        prop_assert_eq!(&c1, &c2);
        prop_assert!(space.contains(&c1));
    }

    /// The simulator is a pure function of (kernel, canonical point), and a
    /// point always evaluates exactly like its canonical form.
    #[test]
    fn simulator_canonical_invariance(kidx in 0usize..13, raw in any::<u64>()) {
        let kernel = kernels::kernel_by_name(kernel_names()[kidx]).unwrap();
        let space = DesignSpace::from_kernel(&kernel);
        let point = space.point_at(u128::from(raw) % space.size());
        let sim = MerlinSimulator::new();
        let canonical = rules::canonicalize(&kernel, &space, &point);
        prop_assert_eq!(
            sim.evaluate(&kernel, &space, &point),
            sim.evaluate(&kernel, &space, &canonical)
        );
    }

    /// Valid designs report positive cycles and finite utilization; invalid
    /// ones report zeroes.
    #[test]
    fn evaluation_contract(kidx in 0usize..13, raw in any::<u64>()) {
        let kernel = kernels::kernel_by_name(kernel_names()[kidx]).unwrap();
        let space = DesignSpace::from_kernel(&kernel);
        let point = space.point_at(u128::from(raw) % space.size());
        let r = MerlinSimulator::new().evaluate(&kernel, &space, &point);
        if r.is_valid() {
            prop_assert!(r.cycles > 0);
            prop_assert!(r.util.dsp.is_finite() && r.util.bram.is_finite());
            prop_assert!(r.synth_minutes >= 3.0);
        } else {
            prop_assert_eq!(r.cycles, 0);
        }
    }

    /// Only pragma-node feature rows differ between two design points of the
    /// same kernel (the §4.2 property the whole method rests on).
    #[test]
    fn pragma_rows_only(kidx in 0usize..13, a in any::<u64>(), b in any::<u64>()) {
        let kernel = kernels::kernel_by_name(kernel_names()[kidx]).unwrap();
        let space = DesignSpace::from_kernel(&kernel);
        let graph = build_graph_bidirectional(&kernel, &space);
        let pa = space.point_at(u128::from(a) % space.size());
        let pb = space.point_at(u128::from(b) % space.size());
        let xa = node_features(&graph, Some(&pa));
        let xb = node_features(&graph, Some(&pb));
        let pragma_rows: Vec<usize> = graph.pragma_nodes().iter().map(|&(i, _)| i).collect();
        for i in 0..graph.num_nodes() {
            if xa.row(i) != xb.row(i) {
                prop_assert!(pragma_rows.contains(&i), "non-pragma row {} changed", i);
            }
        }
    }

    /// Batching is transparent: a graph's rows inside a batch equal its rows
    /// alone.
    #[test]
    fn batch_transparency(kidx in 0usize..13, raw in any::<u64>()) {
        let kernel = kernels::kernel_by_name(kernel_names()[kidx]).unwrap();
        let space = DesignSpace::from_kernel(&kernel);
        let graph = build_graph_bidirectional(&kernel, &space);
        let p0 = space.point_at(u128::from(raw) % space.size());
        let p1 = space.default_point();
        let g0 = GraphInput::from_graph(&graph, Some(&p0));
        let g1 = GraphInput::from_graph(&graph, Some(&p1));
        let batch = GraphBatch::new(&[(&g0, &p0), (&g1, &p1)]);
        let n = g0.num_nodes();
        for r in 0..n {
            prop_assert_eq!(batch.x.row(r), g0.x.row(r));
            prop_assert_eq!(batch.x.row(n + r), g1.x.row(r));
        }
        prop_assert_eq!(batch.num_graphs, 2);
    }

    /// Mixed-radix neighbors: changing one slot changes the index by a
    /// consistent amount — sanity of the space arithmetic used everywhere.
    #[test]
    fn neighbor_points_stay_in_space(kidx in 0usize..13, raw in any::<u64>()) {
        let kernel = kernels::kernel_by_name(kernel_names()[kidx]).unwrap();
        let space = DesignSpace::from_kernel(&kernel);
        let point = space.point_at(u128::from(raw) % space.size());
        for n in space.neighbors(&point) {
            prop_assert!(space.contains(&n));
            prop_assert_eq!(n.hamming_distance(&point), 1);
        }
    }

    /// The incremental archive equals the brute-force Pareto front of the
    /// same multiset, regardless of insertion order. Coordinates are drawn
    /// from a tiny grid so duplicates and partial ties are common.
    #[test]
    fn archive_matches_brute_force_front(seed in any::<u64>(), n in 1usize..40) {
        let pts: Vec<[f64; AXES]> = (0..n)
            .map(|i| {
                let mut p = [0.0; AXES];
                for (k, v) in p.iter_mut().enumerate() {
                    *v = (mix(seed, (i * AXES + k) as u64) % 5) as f64;
                }
                p
            })
            .collect();

        // Brute force: deduplicate, then keep points no other strictly
        // dominates (for distinct points, weak dominance is strict).
        let mut distinct: Vec<[f64; AXES]> = Vec::new();
        for p in &pts {
            if !distinct.contains(p) {
                distinct.push(*p);
            }
        }
        let mut expected: Vec<[f64; AXES]> = distinct
            .iter()
            .filter(|p| !distinct.iter().any(|q| strictly_dominates(q, p)))
            .copied()
            .collect();
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());

        let mut forward = ParetoArchive::unbounded();
        for p in &pts {
            forward.insert(*p, ());
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| mix(seed ^ 0x5bf0_3635, i as u64));
        let mut shuffled = ParetoArchive::unbounded();
        for &i in &order {
            shuffled.insert(pts[i], ());
        }

        prop_assert_eq!(forward.front_axes(), expected.clone());
        prop_assert_eq!(shuffled.front_axes(), expected);
    }

    /// The weighted-sum optimum over any feasible evaluation set is attained
    /// on its Pareto front — scalarized search loses nothing to the archive.
    #[test]
    fn weighted_optimum_lies_on_the_front(kidx in 0usize..13, seed in any::<u64>()) {
        let kernel = kernels::kernel_by_name(kernel_names()[kidx]).unwrap();
        let space = DesignSpace::from_kernel(&kernel);
        let sim = MerlinSimulator::new();
        let objective = Objective::weighted(ObjectiveWeights::default());
        let mut archive: ParetoArchive<f64> = ParetoArchive::unbounded();
        let mut global_best = f64::INFINITY;
        for i in 0..32u64 {
            let point = space.point_at(u128::from(mix(seed, i)) % space.size());
            let r = sim.evaluate(&kernel, &space, &point);
            if let Some(s) = objective.score_result(&r).scalar() {
                archive.insert(result_axes(&r), s);
                global_best = global_best.min(s);
            }
        }
        if global_best.is_finite() {
            let front_best =
                archive.members().iter().map(|m| m.item).fold(f64::INFINITY, f64::min);
            prop_assert_eq!(front_best, global_best);
        } else {
            prop_assert!(archive.is_empty());
        }
    }

    /// A budget-constrained exploration never returns a best design that
    /// violates the budget (or the eq. 7 threshold).
    #[test]
    fn budgeted_explorer_never_returns_a_violating_best(
        kidx in 0usize..13,
        seed in any::<u64>(),
        pct in 30u32..100,
    ) {
        let kernel = kernels::kernel_by_name(kernel_names()[kidx]).unwrap();
        let space = DesignSpace::from_kernel(&kernel);
        let cap = f64::from(pct) / 100.0;
        let budget = ResourceBudget { dsp: Some(cap), bram: Some(cap), lut: Some(cap), ff: Some(cap) };
        let objective = Objective::latency().with_budget(budget);
        let mut db = Database::new();
        let log = HybridExplorer::with_seed(seed).explore_scored_with(
            &ExecEngine::serial(),
            &MerlinSimulator::new(),
            &kernel,
            &space,
            &mut db,
            Budget::evals(16),
            &objective,
        );
        if let Some((_, r)) = log.best {
            prop_assert!(objective.feasible_result(&r));
            prop_assert!(budget.admits(&r.util));
        }
    }
}
