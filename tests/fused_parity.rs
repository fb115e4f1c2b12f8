//! The tape's two fused TransformerConv ops against the composed chains they
//! replace, bit for bit: forward values and the adjoints of q, k, v, e,
//! aggr, root, the gate weights and the bias. Edge lists are random, plus
//! the shapes that stress the segment bookkeeping: no edge at all, nodes
//! with no in-edge, a single in-edge, self-loops, duplicate edges and every
//! edge into one node. Inputs hold `+0.0` and `-0.0` entries, so a change
//! in the sign of a zero shows.

use gdse_tensor::{Graph, Init, Matrix, NodeId, ParamStore};
use proptest::prelude::*;

/// The attention aggregation as TransformerConv recorded it from composed
/// ops: gather → add → row-dot → scale → segment softmax → gather → add →
/// broadcast multiply → scatter-add.
fn composed_attention(
    g: &mut Graph,
    [q, k, v, e]: [NodeId; 4],
    (src, dst): (&[usize], &[usize]),
    scale: f32,
) -> NodeId {
    let n = g.value(q).rows();
    let q_e = g.gather_rows(q, dst);
    let k_src = g.gather_rows(k, src);
    let k_e = g.add(k_src, e);
    let dots = g.row_dot(q_e, k_e);
    let scaled = g.scale(dots, scale);
    let alpha = g.segment_softmax(scaled, dst);
    let v_src = g.gather_rows(v, src);
    let msg = g.add(v_src, e);
    let weighted = g.mul_col_broadcast(msg, alpha);
    g.scatter_add_rows(weighted, dst, n)
}

/// The gated residual as TransformerConv recorded it from composed ops:
/// sub → concat → gate product → sigmoid → `1 - β` → two broadcast
/// multiplies → add → bias.
fn composed_gate(g: &mut Graph, [aggr, root, wg, bias]: [NodeId; 4]) -> NodeId {
    let n = g.value(aggr).rows();
    let diff = g.sub(aggr, root);
    let gate_in = g.concat_cols(&[aggr, root, diff]);
    let beta_logit = g.matmul(gate_in, wg);
    let beta = g.sigmoid(beta_logit);
    let gated_root = g.mul_col_broadcast(root, beta);
    let ones = g.input(Matrix::filled(n, 1, 1.0));
    let inv_beta = g.sub(ones, beta);
    let gated_aggr = g.mul_col_broadcast(aggr, inv_beta);
    let out = g.add(gated_root, gated_aggr);
    g.add_bias(out, bias)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The store's parameters in `[-2, 2)`, with about one entry in eight set to
/// `+0.0` and one in eight to `-0.0`.
fn salted_store(shapes: &[(usize, usize)], seed: u64) -> ParamStore {
    let mut store = ParamStore::new(seed);
    for (i, &(rows, cols)) in shapes.iter().enumerate() {
        store.add(format!("p{i}"), rows, cols, Init::Uniform(2.0));
    }
    let mut z = seed | 1;
    let ids: Vec<_> = store.ids().collect();
    for id in ids {
        for v in store.value_mut(id).as_mut_slice() {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            match z % 8 {
                0 => *v = 0.0,
                1 => *v = -0.0,
                _ => {}
            }
        }
    }
    store
}

/// The loss the checks differentiate: the output times a constant `mask`,
/// then MSE against `target`. The mask's `+0.0` and `-0.0` entries give the
/// output an adjoint with zeros of both signs.
struct Loss {
    mask: Matrix,
    target: Matrix,
}

impl Loss {
    fn new(rows: usize, cols: usize, seed: u64) -> Self {
        let wave = |i: usize, j: usize| ((i * cols + j) as f32 + seed as f32).sin();
        let mask = Matrix::from_fn(rows, cols, |i, j| {
            match (i * 7 + j * 3 + seed as usize) % 4 {
                0 => 0.0,
                1 => -0.0,
                _ => wave(i, j) + 1.5,
            }
        });
        Self {
            mask,
            target: Matrix::from_fn(rows, cols, wave),
        }
    }
}

/// Records `build` over the store's parameters (slot `i` a constant input
/// instead when `constant[i]`), then runs backward from `loss`. Returns the
/// output's bits and every parameter's adjoint bits.
fn run(
    store: &ParamStore,
    constant: &[bool],
    loss: &Loss,
    build: impl Fn(&mut Graph, &[NodeId]) -> NodeId,
) -> (Vec<u32>, Vec<Vec<u32>>) {
    let mut g = Graph::new();
    let leaves: Vec<NodeId> = store
        .ids()
        .zip(constant)
        .map(|(id, &c)| {
            if c {
                g.input(store.value(id).clone())
            } else {
                g.param(store, id)
            }
        })
        .collect();
    let out = build(&mut g, &leaves);
    let value = bits(g.value(out));
    let mask = g.input(loss.mask.clone());
    let masked = g.mul(out, mask);
    let loss = g.mse_loss(masked, loss.target.clone());
    let mut grads = store.zero_grads();
    // From -0.0, accumulating an adjoint keeps its bits, the sign of a zero
    // included.
    grads.scale(-1.0);
    g.backward(loss, &mut grads);
    (value, store.ids().map(|id| bits(grads.grad(id))).collect())
}

/// One edge list, width `d`: the fused ops on their own and chained as in
/// TransformerConv, each against its composed chain.
fn check(n: usize, d: usize, src: &[usize], dst: &[usize], seed: u64, constant: [bool; 4]) {
    let edges = src.len();
    let scale = 1.0 / (d as f32).sqrt();
    let loss = Loss::new(n, d, seed);
    let edge_list = (src, dst);
    let same = |what: &str,
                (fv, fg): (Vec<u32>, Vec<Vec<u32>>),
                (cv, cg): (Vec<u32>, Vec<Vec<u32>>),
                names: &[&str]| {
        assert_eq!(
            fv, cv,
            "{what}: forward values differ ({n} nodes, d {d}, edges {src:?} -> {dst:?})"
        );
        for ((f, c), name) in fg.iter().zip(&cg).zip(names) {
            assert_eq!(
                f, c,
                "{what}: adjoint of {name} differs ({n} nodes, d {d}, edges {src:?} -> {dst:?})"
            );
        }
    };

    // Attention aggregation: q, k, v, e.
    let store = salted_store(&[(n, d), (n, d), (n, d), (edges, d)], seed);
    let ids = |l: &[NodeId]| [l[0], l[1], l[2], l[3]];
    let fused = run(&store, &constant, &loss, |g, l| {
        g.attention_aggregate(ids(l), src, dst, scale)
    });
    let composed = run(&store, &constant, &loss, |g, l| {
        composed_attention(g, ids(l), edge_list, scale)
    });
    same("attention", fused, composed, &["q", "k", "v", "e"]);

    // Gated residual: aggr, root, gate weights, bias.
    let store = salted_store(&[(n, d), (n, d), (3 * d, 1), (1, d)], seed ^ 0x9e37);
    let fused = run(&store, &[false; 4], &loss, |g, l| {
        g.gated_residual(l[0], l[1], l[2], l[3])
    });
    let composed = run(&store, &[false; 4], &loss, |g, l| composed_gate(g, ids(l)));
    same("gate", fused, composed, &["aggr", "root", "W_gate", "bias"]);

    // Chained, as TransformerConv records them.
    let shapes = [
        (n, d),
        (n, d),
        (n, d),
        (edges, d),
        (n, d),
        (3 * d, 1),
        (1, d),
    ];
    let store = salted_store(&shapes, seed ^ 0x51ed);
    let constant = [constant.as_slice(), &[false; 3]].concat();
    let fused = run(&store, &constant, &loss, |g, l| {
        let aggr = g.attention_aggregate(ids(l), src, dst, scale);
        g.gated_residual(aggr, l[4], l[5], l[6])
    });
    let composed = run(&store, &constant, &loss, |g, l| {
        let aggr = composed_attention(g, ids(l), edge_list, scale);
        composed_gate(g, [aggr, l[4], l[5], l[6]])
    });
    same(
        "layer",
        fused,
        composed,
        &["q", "k", "v", "e", "root", "W_gate", "bias"],
    );
}

/// Edges for `n` nodes: `shape` 0 draws both ends at random (self-loops and
/// duplicates come up often on few nodes), 1 sends every edge into one
/// node, 2 sends edges only into the first half of the nodes, 3 draws from
/// only two sources.
fn edge_list(n: usize, edges: usize, shape: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut draw = |below: usize| {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        (z % below as u64) as usize
    };
    let sink = draw(n);
    (0..edges)
        .map(|_| match shape {
            0 => (draw(n), draw(n)),
            1 => (draw(n), sink),
            2 => (draw(n), draw(n.div_ceil(2))),
            _ => (draw(2.min(n)), draw(n)),
        })
        .unzip()
}

#[test]
fn fused_ops_match_the_composed_chains_on_the_edge_cases() {
    let cases: [(&str, usize, &[usize], &[usize]); 6] = [
        ("zero edges", 3, &[], &[]),
        ("nodes with no in-edge", 5, &[0, 4], &[2, 2]),
        ("a single in-edge", 4, &[3], &[1]),
        ("self-loops", 3, &[0, 1, 2, 1], &[0, 1, 2, 0]),
        ("duplicate edges", 3, &[1, 1, 0, 1], &[2, 2, 2, 2]),
        (
            "every edge into one node",
            5,
            &[0, 1, 2, 3, 4, 3],
            &[3, 3, 3, 3, 3, 3],
        ),
    ];
    for (what, n, src, dst) in cases {
        for d in [1, 3, 8] {
            for seed in [1, 2, 3] {
                eprintln!("{what}, d {d}, seed {seed}");
                check(n, d, src, dst, seed, [false; 4]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random edge lists on up to 12 nodes, random widths, and some of
    /// q, k, v and e constant (so the fused backward skips their adjoints
    /// as the composed chain does).
    #[test]
    fn fused_ops_match_the_composed_chains_on_random_edge_lists(
        n in 1usize..13,
        edges in 0usize..40,
        shape in 0usize..4,
        d in 1usize..10,
        constant in 0usize..16,
        seed in any::<u64>(),
    ) {
        let (src, dst) = edge_list(n, edges, shape, seed);
        let constant: [bool; 4] = std::array::from_fn(|i| constant >> i & 1 == 1);
        check(n, d, &src, &dst, seed, constant);
    }
}
