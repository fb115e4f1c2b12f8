//! The kernels of the tape's two fused message-passing ops: TransformerConv's
//! attention aggregation and its gated residual (eq. 8).
//!
//! Each op is one tape node in place of the chain of composed ops it
//! replaces, and keeps only what its backward cannot recompute cheaply: the
//! attention weight `α` of each edge, or the gate `β` of each row. The
//! backward recomputes `k[src] + e` and `v[src] + e` from the op's inputs
//! instead of keeping those `[E, D]` tensors.
//!
//! **Bit-identity with the composed chain.** Every value and every adjoint
//! element is computed with the float ops of the composed chain, in its
//! order:
//!
//! - the forward walks a stable destination CSR, so each node visits its
//!   in-edges in edge-list order, the order of the composed segment softmax
//!   and scatter-add;
//! - the backward visits edges in global edge order, which is the order the
//!   composed gathers' backward adds into each source and destination row;
//! - a `0.0 + x` below is a composed op's sum into a zeroed buffer: it turns
//!   a `-0.0` product into `+0.0`, so it is kept wherever the composed chain
//!   has one.
//!
//! The attention's adjoint of `e` equals the composed chain's only when the
//! attention is `e`'s one consumer, as in TransformerConv: the composed
//! chain adds its two contributions to `e`'s adjoint one at a time, the
//! fused op adds them first.

use crate::arena;
use crate::in_edges::InEdges;
use crate::matrix::Matrix;
use crate::scalar::{dot, gate_logit, gated_row, softmax_in_place, stable_sigmoid};

/// Attention aggregation: for each node `i`,
/// `Σ_s α_s (v[src_s] + e_s)` over its in-edges `s`, where `α` is the
/// softmax over those edges of `q[i] · (k[src_s] + e_s) * scale`.
/// Returns the `[N, D]` aggregate and `α` in edge order.
pub(crate) fn attention_forward(
    [q, k, v, e]: [&Matrix; 4],
    src: &[usize],
    dst: &[usize],
    scale: f32,
) -> (Matrix, Vec<f32>) {
    let (n, d) = q.shape();
    let csr = InEdges::new(n, src, dst);
    let (edge, from) = (csr.edges(), csr.all_sources());
    // Each node's logits `q[i] · (k[src] + e) * scale`, then its softmax
    // and weighted sum of `v[src] + e`, its in-edges in edge-list order.
    let mut weights = vec![0.0f32; edge.len()];
    let mut key = vec![0.0f32; d];
    for i in 0..n {
        let qi = q.row(i);
        for slot in csr.entries(i) {
            for ((o, kv), ev) in key.iter_mut().zip(k.row(from[slot])).zip(e.row(edge[slot])) {
                *o = kv + ev;
            }
            weights[slot] = dot(qi, &key) * scale;
        }
    }
    let mut out = arena::zeros(n, d);
    for i in 0..n {
        let slots = csr.entries(i);
        softmax_in_place(&mut weights[slots.clone()]);
        let row = out.row_mut(i);
        for slot in slots {
            let (vs, es, a) = (v.row(from[slot]), e.row(edge[slot]), weights[slot]);
            for ((o, vv), ev) in row.iter_mut().zip(vs).zip(es) {
                *o += (vv + ev) * a;
            }
        }
    }
    let mut alpha = vec![0.0f32; edge.len()];
    for (&s, &w) in edge.iter().zip(&weights) {
        alpha[s] = w;
    }
    (out, alpha)
}

/// The adjoints of `[q, k, v, e]` given `g`, the adjoint of the aggregate;
/// only those `need` asks for are computed.
pub(crate) fn attention_backward(
    g: &Matrix,
    [q, k, v, e]: [&Matrix; 4],
    (src, dst): (&[usize], &[usize]),
    alpha: &[f32],
    scale: f32,
    need: [bool; 4],
) -> [Option<Matrix>; 4] {
    let (n, d) = q.shape();
    let edges = src.len();
    let [need_q, need_k, need_v, need_e] = need;
    // The weights depend on q, k and e.
    let need_alpha = need_q || need_k || need_e;
    let mut dq = need_q.then(|| arena::zeros(n, d));
    let mut dk = need_k.then(|| arena::zeros(n, d));
    let mut dv = need_v.then(|| arena::zeros(n, d));
    let mut de = need_e.then(|| arena::zeros(edges, d));

    // The weights' adjoint `Σ G[dst]·(v[src] + e)` (summed as
    // `MulColBroadcast`'s backward sums), and the message's adjoint
    // `G[dst]·α` into v's and e's.
    let mut galpha = vec![0.0f32; if need_alpha { edges } else { 0 }];
    for s in 0..edges {
        let (j, gi, a) = (src[s], g.row(dst[s]), alpha[s]);
        if need_alpha {
            let msg = gi.iter().zip(v.row(j)).zip(e.row(s));
            galpha[s] = msg.map(|((&gc, &vc), &ec)| gc * (vc + ec)).sum();
        }
        if let Some(dv) = &mut dv {
            for (o, &gc) in dv.row_mut(j).iter_mut().zip(gi) {
                *o += gc * a;
            }
        }
        if let Some(de) = &mut de {
            for (o, &gc) in de.row_mut(s).iter_mut().zip(gi) {
                *o = gc * a;
            }
        }
    }
    if need_alpha {
        // The segment softmax's backward: `α·(gα - Σ_dst α·gα)`, then the
        // logit scale, then the row dot's adjoints.
        let mut segdot = vec![0.0f32; n];
        for ((&i, &a), &ga) in dst.iter().zip(alpha).zip(&galpha) {
            segdot[i] += a * ga;
        }
        for s in 0..edges {
            let (j, i) = (src[s], dst[s]);
            let gd = alpha[s] * (galpha[s] - segdot[i]) * scale;
            if let Some(dq) = &mut dq {
                for ((o, &kc), &ec) in dq.row_mut(i).iter_mut().zip(k.row(j)).zip(e.row(s)) {
                    *o += 0.0 + gd * (kc + ec);
                }
            }
            // `k[src] + e`'s adjoint, `0.0 + gd·q[dst]`, into k's and e's.
            if let Some(dk) = &mut dk {
                add_scaled(dk.row_mut(j), gd, q.row(i));
            }
            if let Some(de) = &mut de {
                add_scaled(de.row_mut(s), gd, q.row(i));
            }
        }
    }
    [dq, dk, dv, de]
}

/// `out += 0.0 + k·x`: the row dot's adjoint `k·x`, summed into a zeroed
/// buffer, then gathered into `out`.
fn add_scaled(out: &mut [f32], k: f32, x: &[f32]) {
    for (o, &xc) in out.iter_mut().zip(x) {
        *o += 0.0 + k * xc;
    }
}

/// Gated residual: for each row, `β = σ([a | r | a - r] · w)` and
/// `r·β + a·(1 - β) + bias`. Returns the output and `β` per row.
pub(crate) fn gate_forward(
    aggr: &Matrix,
    root: &Matrix,
    w: &[f32],
    bias: &[f32],
) -> (Matrix, Vec<f32>) {
    let (n, d) = aggr.shape();
    let mut out = arena::zeros(n, d);
    let mut beta = vec![0.0f32; n];
    for (r, b) in beta.iter_mut().enumerate() {
        let (a, rt) = (aggr.row(r), root.row(r));
        *b = stable_sigmoid(gate_logit(a, rt, w));
        gated_row(out.row_mut(r), a, rt, *b, bias);
    }
    (out, beta)
}

/// The adjoints of `[aggr, root, w]` given `g`, the adjoint of the output;
/// only those `need` asks for are computed. (The bias's adjoint is the
/// column sums of `g`.)
pub(crate) fn gate_backward(
    g: &Matrix,
    aggr: &Matrix,
    root: &Matrix,
    w: &[f32],
    beta: &[f32],
    need: [bool; 3],
) -> [Option<Matrix>; 3] {
    let (n, d) = aggr.shape();
    let [need_aggr, need_root, need_w] = need;
    let mut da = need_aggr.then(|| arena::zeros(n, d));
    let mut dr = need_root.then(|| arena::zeros(n, d));
    let mut dw = need_w.then(|| arena::zeros(3 * d, 1));
    if need_aggr || need_root || need_w {
        let (w_aggr, w_root, w_diff) = (&w[..d], &w[d..2 * d], &w[2 * d..]);
        for (r, &b) in beta.iter().enumerate() {
            let (gr, a, rt) = (g.row(r), aggr.row(r), root.row(r));
            // β's adjoint through `1 - β` (the sub scales it by -1.0:
            // subtracting gives the same bits as `* -1.0` then adding) and
            // through `r·β`, then the sigmoid's.
            let gl = (dot(gr, rt) - dot(gr, a)) * b * (1.0 - b);
            // The gate product's weight gradient, `[a | r | a - r]ᵀ · gl`
            // in row order.
            if let Some(dw) = &mut dw {
                let (dw_aggr, rest) = dw.as_mut_slice().split_at_mut(d);
                let (dw_root, dw_diff) = rest.split_at_mut(d);
                for (o, &x) in dw_aggr.iter_mut().zip(a) {
                    *o += x * gl;
                }
                for (o, &y) in dw_root.iter_mut().zip(rt) {
                    *o += y * gl;
                }
                for ((o, &x), &y) in dw_diff.iter_mut().zip(a).zip(rt) {
                    *o += (x - y) * gl;
                }
            }
            // Each input's adjoint: through its broadcast multiply, then
            // through its slice of the gate product, then through `a - r`.
            if let Some(da) = &mut da {
                let inv_beta = 1.0 - b;
                let terms = gr.iter().zip(w_aggr).zip(w_diff);
                for (o, ((&gc, &wa), &wd)) in da.row_mut(r).iter_mut().zip(terms) {
                    *o = gc * inv_beta + (0.0 + gl * wa) + (0.0 + gl * wd);
                }
            }
            // (Root's share of `a - r` is the sub's `* -1.0`: subtracting
            // gives the same bits.)
            if let Some(dr) = &mut dr {
                let terms = gr.iter().zip(w_root).zip(w_diff);
                for (o, ((&gc, &wr), &wd)) in dr.row_mut(r).iter_mut().zip(terms) {
                    *o = gc * b + (0.0 + gl * wr) - (0.0 + gl * wd);
                }
            }
        }
    }
    [da, dr, dw]
}
