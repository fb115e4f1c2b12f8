//! Execution-tree walking: visits every statement with its enclosing loop
//! context, inlining function calls and applying fine-grained-pipeline
//! unrolling.

use crate::settings::loop_setting;
use design_space::{DesignPoint, DesignSpace, PipelineOpt};
use hls_ir::{BodyItem, Kernel, LoopId, Statement};

/// One enclosing loop on the path to a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The loop.
    pub loop_id: LoopId,
    /// Its source label.
    pub label: String,
    /// Trip count.
    pub trip: u64,
    /// Hardware replication factor at this level: the parallel factor, or
    /// the full trip count when an ancestor's fine-grained pipeline unrolls
    /// this loop completely.
    pub factor: u64,
    /// Whether this loop is fully unrolled by an ancestor's `fg` pipeline.
    pub under_fg: bool,
    /// Tile factor at this level.
    pub tile: u64,
    /// Pipeline mode of this loop.
    pub pipeline: PipelineOpt,
}

/// Calls `f` for every statement in execution order with the stack of
/// enclosing [`Frame`]s (outermost first). Function calls are inlined;
/// `fg`-pipelined loops mark their entire subtree `under_fg`, which sets
/// every nested loop's `factor` to its full trip count.
pub fn visit_statements(
    kernel: &Kernel,
    space: &DesignSpace,
    point: &DesignPoint,
    mut f: impl FnMut(&[Frame], &Statement),
) {
    let mut frames = Vec::new();
    walk_items(kernel, space, point, kernel.top_function().body(), &mut frames, false, &mut f);
}

fn walk_items(
    kernel: &Kernel,
    space: &DesignSpace,
    point: &DesignPoint,
    items: &[BodyItem],
    frames: &mut Vec<Frame>,
    under_fg: bool,
    f: &mut impl FnMut(&[Frame], &Statement),
) {
    for item in items {
        match item {
            BodyItem::Stmt(s) => f(frames, s),
            BodyItem::Call(callee) => {
                if let Some(func) = kernel.function(callee) {
                    walk_items(kernel, space, point, func.body(), frames, under_fg, f);
                }
            }
            BodyItem::Loop(l) => {
                let id = kernel.loop_by_label(l.label()).expect("indexed loop");
                let set = loop_setting(space, point, id);
                let factor =
                    if under_fg { l.trip_count() } else { u64::from(set.parallel).min(l.trip_count()) };
                let child_fg = under_fg || set.pipeline == PipelineOpt::Fine;
                frames.push(Frame {
                    loop_id: id,
                    label: l.label().to_string(),
                    trip: l.trip_count(),
                    factor,
                    under_fg,
                    tile: u64::from(set.tile),
                    pipeline: if under_fg { PipelineOpt::Off } else { set.pipeline },
                });
                walk_items(kernel, space, point, l.body(), frames, child_fg, f);
                frames.pop();
            }
        }
    }
}

/// Total operator instances after replication: each statement's op count
/// times the product of enclosing `factor`s. This is the synthesis
/// "complexity" that drives timeout modelling.
pub fn total_op_instances(kernel: &Kernel, space: &DesignSpace, point: &DesignPoint) -> u64 {
    let mut total = 0u64;
    visit_statements(kernel, space, point, |frames, stmt| {
        let copies: u64 = frames.iter().map(|fr| fr.factor).product();
        total = total.saturating_add(u64::from(stmt.ops().total()).saturating_mul(copies));
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use design_space::{PragmaValue};
    use hls_ir::{kernels, PragmaKind};

    #[test]
    fn default_point_has_unit_factors() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let p = space.default_point();
        let mut seen = 0;
        visit_statements(&k, &space, &p, |frames, _| {
            seen += 1;
            assert!(frames.iter().all(|f| f.factor == 1));
        });
        assert_eq!(seen, 2); // dot_acc and c_store
    }

    #[test]
    fn fg_unrolls_subtree() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let l1 = k.loop_by_label("L1").unwrap();
        let mut p = space.default_point();
        p.set_value(
            space.slot_index(l1, PragmaKind::Pipeline).unwrap(),
            PragmaValue::Pipeline(design_space::PipelineOpt::Fine),
        );
        visit_statements(&k, &space, &p, |frames, stmt| {
            if stmt.name() == "dot_acc" {
                let l2 = frames.last().unwrap();
                assert!(l2.under_fg);
                assert_eq!(l2.factor, 64, "L2 fully unrolled under fg L1");
            }
        });
    }

    #[test]
    fn calls_are_inlined() {
        let k = kernels::aes();
        let space = DesignSpace::from_kernel(&k);
        let p = space.default_point();
        let mut names = Vec::new();
        visit_statements(&k, &space, &p, |frames, stmt| {
            names.push((stmt.name().to_string(), frames.len()));
        });
        assert!(names.contains(&("sub_shift_mix".to_string(), 2)));
    }

    #[test]
    fn op_instances_scale_with_parallel() {
        let k = kernels::gemm_ncubed();
        let space = DesignSpace::from_kernel(&k);
        let base = total_op_instances(&k, &space, &space.default_point());
        let l2 = k.loop_by_label("L2").unwrap();
        let mut p = space.default_point();
        p.set_value(space.slot_index(l2, PragmaKind::Parallel).unwrap(), PragmaValue::Parallel(8));
        let unrolled = total_op_instances(&k, &space, &p);
        assert!(unrolled > 4 * base, "8x unroll of the hot statement dominates");
    }
}
