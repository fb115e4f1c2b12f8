//! Per-layer profiles of the model stack, run after the workload in a
//! traced run on that run's trained predictor: the inference profiles in
//! `dse-sweep`, the training profile in `train-epochs`.
//!
//! Tracing inside the program is not available, so each profile recomposes
//! a program path from the public calls it is built of and puts a span
//! around every call. Each recomposition is checked bit for bit against the
//! program's own path, and its *coverage* (the spans' total over the
//! untraced program path's wall time) shows how much of the real cost the
//! recomposition explains:
//!
//! * `predict.*` — `Predictor::predict_batch` replayed with its call order
//!   and tape lifetimes: lowering, batching, the three model forwards while
//!   earlier tapes stay alive, readout, release;
//! * `gnn.*` — the classifier forward rebuilt from `gdse_gnn::layers` on
//!   the trained parameter store;
//! * `tensor.*` — single tape ops at the shapes of a 2mm x 64 batch, and
//!   `quant.predict_speedup`, f32 over int8 `predict_batch`;
//! * `train.*` — one regression training run rebuilt from `Dataset::batch`,
//!   `forward`, `mse_loss`, `backward`, `clip_global_norm` and `Adam::step`.

use crate::report::{median, Outcome};
use crate::setup::{self, bits, Base};
use crate::trace::{self_ns_by_name, Tracer};
use crate::workloads::dse;
use design_space::{DesignPoint, DesignSpace};
use gdse_gnn::layers::mlp::Mlp;
use gdse_gnn::layers::pool::AttentionPool;
use gdse_gnn::layers::transformer::TransformerConv;
use gdse_gnn::{GraphBatch, GraphInput, ModelConfig, ModelKind, PredictionModel};
use gdse_tensor::{Activation, Adam, Graph, Matrix, NodeId, ParamStore};
use gnn_dse::dataset::MAIN_TARGETS;
use gnn_dse::trainer::{train_regression, TrainConfig};
use gnn_dse::{Dataset, Prediction, Predictor, QuantPredictor};
use merlin_sim::Utilization;
use proggraph::{ProgramGraph, EDGE_FEATS, NODE_FEATS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

/// Points per profiled batch: the DSE batch size.
const BATCH: usize = 64;

/// Repetitions of a profile: even, because paths timed against each other
/// alternate which runs first, and ratios are taken over pairs of pairs.
fn reps(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        8
    }
}

/// Runs the inference profiles (`predict.*`, `gnn.*`, `tensor.*`,
/// `quant.*`) and records their metrics.
pub fn inference(t: &Tracer, base: &Base, smoke: bool, out: &mut Outcome) {
    let reps = reps(smoke);
    let targets = dse::targets();
    let mut rng = StdRng::seed_from_u64(0x9e0f_11e5);
    let batches: Vec<(&ProgramGraph, Vec<DesignPoint>)> = targets
        .iter()
        .flat_map(|(_, space, graph)| {
            (0..reps / 2)
                .map(|_| (graph, random_points(space, &mut rng)))
                .collect::<Vec<_>>()
        })
        .collect();
    predict_replay(t, &base.predictor, &batches, out);

    // The first batch is a 2mm batch: the largest graph of the set.
    let (graph, points) = &batches[0];
    let inputs: Vec<GraphInput> = points
        .iter()
        .map(|p| GraphInput::from_graph(graph, Some(p)))
        .collect();
    let refs: Vec<(&GraphInput, &DesignPoint)> = inputs.iter().zip(points).collect();
    let batch = GraphBatch::new(&refs);
    gnn_recomposed(t, base.predictor.classifier(), &batch, reps, out);
    tensor_ops(t, base.predictor.classifier(), &batch, reps * 4, out);
    quant_speedup(&base.predictor, &batches, 2 * reps, out);
}

/// Runs the training profile (`train.*`) and records its metrics.
pub fn training(t: &Tracer, base: &Base, smoke: bool, out: &mut Outcome) {
    let pairs = if smoke { 2 } else { 6 };
    trainer_recomposed(t, base, &setup::train_config(smoke), pairs, out);
}

/// Runs `pairs` pairs of a program path (`reference`: its result and wall
/// time in microseconds) and its traced recomposition (`recomposed`: one
/// trace per call), after one untimed warm-up of the reference, and
/// alternating which side of a pair runs first. Checks the results are
/// identical and records, per layer `<prefix>.<layer>`, its total self time
/// divided by `per` (in `<prefix>.<layer><suffix>`), and
/// `<prefix>.coverage`: the time the layer spans cover over the
/// reference's time (see [`balanced_ratio`]).
#[allow(clippy::too_many_arguments)]
fn paired<R: PartialEq>(
    t: &Tracer,
    out: &mut Outcome,
    (prefix, suffix): (&str, &str),
    layers: &[&str],
    pairs: usize,
    mut reference: impl FnMut(usize) -> (R, f64),
    mut recomposed: impl FnMut(usize) -> R,
    per: impl FnOnce() -> f64,
) {
    reference(0);
    let names: Vec<String> = layers.iter().map(|l| format!("{prefix}.{l}")).collect();
    let mut times = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let mut traced = || {
            let got = recomposed(i);
            (got, t.last_trace())
        };
        let ((want, us), (got, trace)) = if i % 2 == 0 {
            (reference(i), traced())
        } else {
            let got = traced();
            (reference(i), got)
        };
        out.check(want == got, || {
            format!("the recomposed {prefix} path is not bit-identical")
        });
        let covered_ns: u64 = t
            .spans()
            .iter()
            .filter(|s| s.trace == trace && names.contains(&s.name))
            .map(|s| s.dur_ns())
            .sum();
        times.push((covered_ns as f64 / 1e3, us));
    }
    let selfs = self_ns_by_name(&t.spans());
    let per = per();
    for (layer, name) in layers.iter().zip(&names) {
        let us = selfs.get(name).copied().unwrap_or(0) as f64 / 1e3;
        out.push(&format!("{prefix}.{layer}{suffix}"), us / per);
    }
    out.push(&format!("{prefix}.coverage"), balanced_ratio(&times));
}

/// The ratio of two paths timed in alternating pairs `(a, b)`: the median
/// over consecutive pairs of pairs of Σa / Σb. Each pair of pairs holds one
/// run of each order, so whatever the second run of a pair gains from the
/// first (warm caches, reused buffers) cancels out.
fn balanced_ratio(times: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = times
        .chunks(2)
        .map(|c| c.iter().map(|t| t.0).sum::<f64>() / c.iter().map(|t| t.1).sum::<f64>())
        .collect();
    median(&ratios)
}

/// Wall time of `f` in microseconds, with its result.
fn timed_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let began = Instant::now();
    let r = f();
    (r, began.elapsed().as_secs_f64() * 1e6)
}

fn random_points(space: &DesignSpace, rng: &mut StdRng) -> Vec<DesignPoint> {
    (0..BATCH)
        .map(|_| space.point_at(u128::from(rng.gen::<u64>()) % space.size()))
        .collect()
}

/// `Predictor::predict_batch`, call by call, each call in a span.
fn replay(
    t: &Tracer,
    p: &Predictor,
    graph: &ProgramGraph,
    points: &[DesignPoint],
) -> Vec<Prediction> {
    let inputs: Vec<(GraphInput, &DesignPoint)> = t.span("predict.lower", || {
        points
            .iter()
            .map(|pt| (GraphInput::from_graph(graph, Some(pt)), pt))
            .collect()
    });
    let (refs, batch) = t.span("predict.batch", || {
        let refs: Vec<(&GraphInput, &DesignPoint)> =
            inputs.iter().map(|(gi, pt)| (gi, *pt)).collect();
        let batch = GraphBatch::new(&refs);
        (refs, batch)
    });
    let cls = t.span("predict.forward_cls", || p.classifier().forward(&batch));
    let reg = t.span("predict.forward_reg", || p.regressor().forward(&batch));
    let bram = t.span("predict.forward_bram", || p.bram_model().forward(&batch));
    let preds = t.span("predict.readout", || {
        (0..points.len())
            .map(|i| {
                let logit = cls.graph.value(cls.outputs[0]).get(i, 0);
                let valid_prob = f64::from(1.0 / (1.0 + (-logit).exp()));
                let t_lat = f64::from(reg.graph.value(reg.outputs[0]).get(i, 0));
                let util = Utilization {
                    dsp: f64::from(reg.graph.value(reg.outputs[1]).get(i, 0)),
                    lut: f64::from(reg.graph.value(reg.outputs[2]).get(i, 0)),
                    ff: f64::from(reg.graph.value(reg.outputs[3]).get(i, 0)),
                    bram: f64::from(bram.graph.value(bram.outputs[0]).get(i, 0)),
                };
                Prediction {
                    valid_prob,
                    cycles: p.normalizer().inverse(t_lat),
                    util,
                }
            })
            .collect::<Vec<_>>()
    });
    // Locals drop in reverse declaration order at the end of predict_batch.
    let _release = t.enter("predict.release");
    drop((bram, reg, cls, batch, refs));
    drop(inputs);
    preds
}

const PREDICT_SPANS: [&str; 7] = [
    "lower",
    "batch",
    "forward_cls",
    "forward_reg",
    "forward_bram",
    "readout",
    "release",
];

fn predict_replay(
    t: &Tracer,
    p: &Predictor,
    batches: &[(&ProgramGraph, Vec<DesignPoint>)],
    out: &mut Outcome,
) {
    let bits_of = |preds: Vec<Prediction>| preds.iter().map(bits).collect::<Vec<_>>();
    paired(
        t,
        out,
        ("predict", "_us_per_point"),
        &PREDICT_SPANS,
        batches.len(),
        |i| {
            let (graph, pts) = &batches[i];
            let (preds, us) = timed_us(|| p.predict_batch(graph, pts));
            (bits_of(preds), us)
        },
        |i| {
            let (graph, pts) = &batches[i];
            bits_of(t.span("predict_batch", || replay(t, p, graph, pts)))
        },
        || batches.iter().map(|(_, pts)| pts.len()).sum::<usize>() as f64,
    );
}

/// The M7 classifier rebuilt from `gdse_gnn::layers`, registered in the
/// same order as `PredictionModel::new` so parameter ids line up with the
/// trained store.
struct Layers {
    convs: Vec<TransformerConv>,
    pool: AttentionPool,
    heads: Vec<Mlp>,
}

/// `ModelConfig`'s head widths: a halving pyramid from `hidden` down to 1.
fn head_dims(cfg: &ModelConfig) -> Vec<usize> {
    let mut dims = vec![cfg.hidden];
    let mut d = cfg.hidden;
    for _ in 1..cfg.mlp_layers {
        d = (d / 2).max(2);
        dims.push(d);
    }
    dims.push(1);
    dims
}

impl Layers {
    /// # Panics
    ///
    /// When the model is not M7 or its parameter layout differs from the
    /// rebuilt one: the recomposition no longer describes the model.
    fn of(model: &PredictionModel) -> Layers {
        assert_eq!(
            model.kind(),
            ModelKind::Full,
            "the recomposition rebuilds M7"
        );
        let cfg = model.config();
        let mut store = ParamStore::new(cfg.seed);
        let convs = (0..cfg.gnn_layers)
            .map(|i| {
                let d_in = if i == 0 { NODE_FEATS } else { cfg.hidden };
                TransformerConv::new(
                    &mut store,
                    &format!("conv{i}"),
                    d_in,
                    cfg.hidden,
                    EDGE_FEATS,
                )
            })
            .collect();
        let pool = AttentionPool::new(&mut store, "pool", cfg.hidden);
        let dims = head_dims(cfg);
        let heads = model
            .head_names()
            .iter()
            .map(|n| Mlp::new(&mut store, &format!("head.{n}"), &dims))
            .collect();
        let trained = model.store();
        assert_eq!(
            store.len(),
            trained.len(),
            "parameter count differs from the model's"
        );
        for (a, b) in store.ids().zip(trained.ids()) {
            assert_eq!(store.name(a), trained.name(b), "parameter order differs");
            assert_eq!(
                store.value(a).shape(),
                trained.value(b).shape(),
                "{}",
                store.name(a)
            );
        }
        Layers { convs, pool, heads }
    }

    fn forward(&self, t: &Tracer, store: &ParamStore, batch: &GraphBatch) -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let (x0, edges) = t.span("gnn.inputs", || {
            (g.input(batch.x.clone()), g.input(batch.edge_attr.clone()))
        });
        let mut h = x0;
        let mut per_layer = Vec::with_capacity(self.convs.len());
        for (i, conv) in self.convs.iter().enumerate() {
            let lin = t.span(&format!("gnn.conv{i}"), || {
                conv.forward(&mut g, store, h, edges, &batch.src, &batch.dst)
            });
            h = t.span("gnn.norm", || {
                let act = g.elu(lin, 1.0);
                g.layer_norm(act, 1e-5)
            });
            per_layer.push(h);
        }
        let node_embs = t.span("gnn.jkn", || g.max_stack(&per_layer));
        let pooled = t.span("gnn.pool", || {
            self.pool.forward(
                &mut g,
                store,
                node_embs,
                &batch.node_graph,
                batch.num_graphs,
            )
        });
        let outputs = t.span("gnn.heads", || {
            self.heads
                .iter()
                .map(|head| head.forward(&mut g, store, pooled.graph_emb))
                .collect()
        });
        (g, outputs)
    }
}

fn head_bits(g: &Graph, outputs: &[NodeId]) -> Vec<u32> {
    outputs
        .iter()
        .flat_map(|&o| g.value(o).as_slice().iter().map(|v| v.to_bits()))
        .collect()
}

const GNN_SPANS: [&str; 9] = [
    "inputs", "conv0", "conv1", "conv2", "conv3", "norm", "jkn", "pool", "heads",
];

fn gnn_recomposed(
    t: &Tracer,
    model: &PredictionModel,
    batch: &GraphBatch,
    reps: usize,
    out: &mut Outcome,
) {
    let layers = Layers::of(model);
    // Each side releases its tape before the other runs, so both reuse the
    // tensor arena's buffers the same way.
    paired(
        t,
        out,
        ("gnn", "_us_per_point"),
        &GNN_SPANS,
        reps,
        |_| {
            let (want, us) = timed_us(|| model.forward(batch));
            (head_bits(&want.graph, &want.outputs), us)
        },
        |_| {
            let (g, outputs) = t.span("gnn.forward", || layers.forward(t, model.store(), batch));
            head_bits(&g, &outputs)
        },
        || (reps * batch.num_graphs) as f64,
    );
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen::<f32>() - 0.5)
}

/// Times one tape op `reps` times on a fresh tape each time, in spans
/// named `tensor.<op>`, and records the median per row. `inputs` puts the
/// operands on the tape outside the span.
fn time_op(
    t: &Tracer,
    out: &mut Outcome,
    (op, rows): (&str, usize),
    inputs: &[&Matrix],
    reps: usize,
    call: impl Fn(&mut Graph, &[NodeId]) -> NodeId,
) {
    let name = format!("tensor.{op}");
    let mut ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = inputs.iter().map(|m| g.input((*m).clone())).collect();
        let began = Instant::now();
        t.span(&name, || call(&mut g, &ids));
        ns.push(began.elapsed().as_nanos() as f64);
    }
    out.push(&format!("{name}_ns_per_row"), median(&ns) / rows as f64);
}

fn tensor_ops(
    t: &Tracer,
    model: &PredictionModel,
    batch: &GraphBatch,
    reps: usize,
    out: &mut Outcome,
) {
    let forward = model.forward(batch);
    out.push("tensor.tape_nodes_per_forward", forward.graph.len() as f64);
    drop(forward);

    let (n, e, d) = (batch.num_nodes(), batch.src.len(), model.config().hidden);
    let mut rng = StdRng::seed_from_u64(0x7e45);
    let xn = random_matrix(&mut rng, n, d);
    let xe = random_matrix(&mut rng, e, d);
    let ye = random_matrix(&mut rng, e, d);
    let w = random_matrix(&mut rng, d, d);
    let b = random_matrix(&mut rng, 1, d);
    let col = random_matrix(&mut rng, e, 1);
    let dst = &batch.dst;
    time_op(t, out, ("linear", n), &[&xn, &w, &b], reps, |g, x| {
        g.linear(x[0], x[1], x[2], Activation::Relu)
    });
    time_op(t, out, ("gather_rows", e), &[&xn], reps, |g, x| {
        g.gather_rows(x[0], dst)
    });
    time_op(t, out, ("scatter_add_rows", e), &[&xe], reps, |g, x| {
        g.scatter_add_rows(x[0], dst, n)
    });
    time_op(t, out, ("segment_softmax", e), &[&col], reps, |g, x| {
        g.segment_softmax(x[0], dst)
    });
    time_op(t, out, ("layer_norm", n), &[&xn], reps, |g, x| {
        g.layer_norm(x[0], 1e-5)
    });
    time_op(t, out, ("row_dot", e), &[&xe, &ye], reps, |g, x| {
        g.row_dot(x[0], x[1])
    });
    time_op(t, out, ("max_stack", n), &[&xn; 4], reps, |g, x| {
        g.max_stack(x)
    });
    time_op(t, out, ("concat_cols", n), &[&xn; 3], reps, |g, x| {
        g.concat_cols(x)
    });
    time_op(
        t,
        out,
        ("mul_col_broadcast", e),
        &[&xe, &col],
        reps,
        |g, x| g.mul_col_broadcast(x[0], x[1]),
    );
}

/// f32 over int8 `predict_batch` on the same batches, in `pairs`
/// alternating pairs (see [`balanced_ratio`]).
fn quant_speedup(
    p: &Predictor,
    batches: &[(&ProgramGraph, Vec<DesignPoint>)],
    pairs: usize,
    out: &mut Outcome,
) {
    let q = QuantPredictor::quantize(p);
    let times: Vec<(f64, f64)> = (0..pairs)
        .map(|i| {
            let (graph, pts) = &batches[i % batches.len()];
            let f32_run = || timed_us(|| black_box(p.predict_batch(graph, pts))).1;
            let int8_run = || timed_us(|| black_box(q.predict_batch(graph, pts))).1;
            if i % 2 == 0 {
                (f32_run(), int8_run())
            } else {
                let int8 = int8_run();
                (f32_run(), int8)
            }
        })
        .collect();
    out.push("quant.predict_speedup", balanced_ratio(&times));
}

const TRAIN_SPANS: [&str; 7] = [
    "batch", "forward", "loss", "backward", "clip", "adam", "release",
];

/// `trainer::train_regression` for at most six epochs (no stall restart),
/// call by call. Returns the per-epoch mean losses, the steps run and the
/// tape nodes they recorded.
fn train_steps(
    t: &Tracer,
    model: &mut PredictionModel,
    ds: &Dataset,
    idxs: &[usize],
    cfg: &TrainConfig,
) -> (Vec<f32>, usize, usize) {
    assert!(
        cfg.epochs <= 6,
        "longer runs may restart on a stall, which this does not rebuild"
    );
    let heads: Vec<String> = model.head_names().to_vec();
    let mut adam = Adam::new(cfg.lr);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order = idxs.to_vec();
    let (mut losses, mut steps, mut tape_nodes) = (Vec::new(), 0usize, 0usize);
    for epoch in 0..cfg.epochs {
        // Two warm-up epochs of linearly rising learning rate.
        adam.set_learning_rate(cfg.lr * ((epoch + 1) as f32 / 2.0).min(1.0));
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            t.span("train.step", || {
                let batch = t.span("train.batch", || ds.batch(chunk));
                let mut out = t.span("train.forward", || model.forward(&batch));
                let total = t.span("train.loss", || {
                    let mut total = None;
                    for (h, name) in heads.iter().enumerate() {
                        let l = out.graph.mse_loss(out.outputs[h], ds.targets(chunk, name));
                        total = Some(match total {
                            None => l,
                            Some(acc) => out.graph.add(acc, l),
                        });
                    }
                    total.expect("at least one head")
                });
                epoch_loss += out.graph.value(total).scalar();
                tape_nodes += out.graph.len();
                let mut grads = t.span("train.backward", || {
                    let mut grads = model.store().zero_grads();
                    out.graph.backward(total, &mut grads);
                    grads
                });
                t.span("train.clip", || grads.clip_global_norm(cfg.grad_clip));
                t.span("train.adam", || adam.step(model.store_mut(), &grads));
                t.span("train.release", || drop((grads, out, batch)));
            });
            batches += 1;
            steps += 1;
        }
        losses.push(epoch_loss / batches.max(1) as f32);
    }
    (losses, steps, tape_nodes)
}

fn trainer_recomposed(t: &Tracer, base: &Base, cfg: &TrainConfig, pairs: usize, out: &mut Outcome) {
    let ds = Dataset::from_database(&base.db, &base.kernels);
    let idxs = ds.valid_indices();
    let fresh = || PredictionModel::new(ModelKind::Full, setup::model_config(), &MAIN_TARGETS);
    let loss_bits = |losses: Vec<f32>| losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    let (steps, tape_nodes) = (Cell::new(0usize), Cell::new(0usize));
    paired(
        t,
        out,
        ("train", "_us_per_step"),
        &TRAIN_SPANS,
        pairs,
        |_| {
            let mut model = fresh();
            let (losses, us) = timed_us(|| train_regression(&mut model, &ds, &idxs, cfg));
            (loss_bits(losses), us)
        },
        |_| {
            let mut model = fresh();
            let (losses, n, nodes) =
                t.span("train.run", || train_steps(t, &mut model, &ds, &idxs, cfg));
            steps.set(steps.get() + n);
            tape_nodes.set(tape_nodes.get() + nodes);
            loss_bits(losses)
        },
        || steps.get() as f64,
    );
    out.push(
        "train.tape_nodes_per_step",
        tape_nodes.get() as f64 / steps.get() as f64,
    );
}
