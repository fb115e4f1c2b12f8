//! Loop nests and function bodies.

use crate::stmt::Statement;
use serde::{Deserialize, Serialize};

/// The three Merlin pragma kinds a loop can take (§2.3 of the paper).
///
/// A loop declaring a kind here corresponds to an
/// `#pragma ACCEL <kind> ... auto{...}` placeholder in the C source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PragmaKind {
    /// `#pragma ACCEL tile factor=auto{...}` — loop tiling (position 0).
    Tile,
    /// `#pragma ACCEL pipeline auto{...}` — off / coarse / fine grained (position 1).
    Pipeline,
    /// `#pragma ACCEL parallel factor=auto{...}` — unroll factor (position 2).
    Parallel,
}

impl PragmaKind {
    /// Position id used for pragma edges in the program graph (§4.2):
    /// tile = 0, pipeline = 1, parallel = 2.
    pub fn position(self) -> u32 {
        match self {
            PragmaKind::Tile => 0,
            PragmaKind::Pipeline => 1,
            PragmaKind::Parallel => 2,
        }
    }

    /// Keyword used as the pragma node's `key_text` (`PIPELINE`, ...).
    pub fn key_text(self) -> &'static str {
        match self {
            PragmaKind::Tile => "TILE",
            PragmaKind::Pipeline => "PIPELINE",
            PragmaKind::Parallel => "PARALLEL",
        }
    }

    /// Short name used in generated pragma placeholder names
    /// (`__TILE__`, `__PIPE__`, `__PARA__`).
    pub fn placeholder_stem(self) -> &'static str {
        match self {
            PragmaKind::Tile => "__TILE__",
            PragmaKind::Pipeline => "__PIPE__",
            PragmaKind::Parallel => "__PARA__",
        }
    }
}

/// One item in a function or loop body, in source order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BodyItem {
    /// A nested loop.
    Loop(Loop),
    /// A straight-line statement.
    Stmt(Statement),
    /// A call to another function of the kernel, by name.
    Call(String),
}

/// A `for` loop with a compile-time trip count and declared pragma
/// placeholders.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Loop {
    label: String,
    trip_count: u64,
    /// Trip count varies at runtime (e.g. CRS row lengths); `trip_count`
    /// is then the *average* used for cost estimation, and the loop cannot
    /// be fully unrolled by a fine-grained pipeline.
    variable_bound: bool,
    candidate_pragmas: Vec<PragmaKind>,
    body: Vec<BodyItem>,
}

impl Loop {
    /// Creates a loop with the given label and trip count.
    ///
    /// # Panics
    ///
    /// Panics if `trip_count` is zero.
    pub fn new(label: impl Into<String>, trip_count: u64) -> Self {
        assert!(trip_count > 0, "trip count must be positive");
        Self {
            label: label.into(),
            trip_count,
            variable_bound: false,
            candidate_pragmas: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Declares candidate pragma placeholders on this loop.
    pub fn with_pragmas(mut self, kinds: &[PragmaKind]) -> Self {
        self.candidate_pragmas = kinds.to_vec();
        self.candidate_pragmas.sort();
        self.candidate_pragmas.dedup();
        self
    }

    /// Marks the loop bound as data-dependent.
    pub fn with_variable_bound(mut self) -> Self {
        self.variable_bound = true;
        self
    }

    /// Appends a nested loop.
    pub fn with_loop(mut self, l: Loop) -> Self {
        self.body.push(BodyItem::Loop(l));
        self
    }

    /// Appends a statement.
    pub fn with_stmt(mut self, s: Statement) -> Self {
        self.body.push(BodyItem::Stmt(s));
        self
    }

    /// Appends a call to another kernel function.
    pub fn with_call(mut self, callee: &str) -> Self {
        self.body.push(BodyItem::Call(callee.to_string()));
        self
    }

    /// Source label (e.g. `"L1"`), unique within a kernel.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Compile-time (or average, if variable) trip count.
    pub fn trip_count(&self) -> u64 {
        self.trip_count
    }

    /// Whether the bound is data-dependent.
    pub fn has_variable_bound(&self) -> bool {
        self.variable_bound
    }

    /// Candidate pragma kinds, sorted by [`PragmaKind`] order.
    pub fn candidate_pragmas(&self) -> &[PragmaKind] {
        &self.candidate_pragmas
    }

    /// Body items in source order.
    pub fn body(&self) -> &[BodyItem] {
        &self.body
    }

    /// Direct sub-loops.
    pub fn sub_loops(&self) -> impl Iterator<Item = &Loop> {
        self.body.iter().filter_map(|i| match i {
            BodyItem::Loop(l) => Some(l),
            _ => None,
        })
    }

    /// Statements directly in this loop body (not in sub-loops).
    pub fn statements(&self) -> impl Iterator<Item = &Statement> {
        self.body.iter().filter_map(|i| match i {
            BodyItem::Stmt(s) => Some(s),
            _ => None,
        })
    }

    /// Whether any statement (recursively) carries a dependence on this loop.
    pub fn has_carried_dep(&self) -> bool {
        fn walk(items: &[BodyItem], label: &str) -> bool {
            items.iter().any(|i| match i {
                BodyItem::Stmt(s) => s.carries_on(label),
                BodyItem::Loop(l) => walk(l.body(), label),
                BodyItem::Call(_) => false,
            })
        }
        walk(&self.body, &self.label)
    }
}

/// A kernel function: a named body. The `top` function is the accelerator
/// entry; other functions model the call hierarchy that ProGraML captures
/// with call edges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    name: String,
    body: Vec<BodyItem>,
}

impl Function {
    /// Creates a function.
    pub fn new(name: impl Into<String>, body: Vec<BodyItem>) -> Self {
        Self { name: name.into(), body }
    }

    /// Function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Body items in source order.
    pub fn body(&self) -> &[BodyItem] {
        &self.body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::Statement;

    #[test]
    fn pragma_positions_match_paper() {
        assert_eq!(PragmaKind::Tile.position(), 0);
        assert_eq!(PragmaKind::Pipeline.position(), 1);
        assert_eq!(PragmaKind::Parallel.position(), 2);
    }

    #[test]
    fn loop_builder_and_queries() {
        let l = Loop::new("L0", 16)
            .with_pragmas(&[PragmaKind::Parallel, PragmaKind::Pipeline, PragmaKind::Parallel])
            .with_stmt(Statement::new("s0").carried_on("L0"))
            .with_loop(Loop::new("L1", 4));
        assert_eq!(l.candidate_pragmas(), &[PragmaKind::Pipeline, PragmaKind::Parallel]);
        assert_eq!(l.sub_loops().count(), 1);
        assert_eq!(l.statements().count(), 1);
        assert!(l.has_carried_dep());
    }

    #[test]
    fn carried_dep_found_in_nested_loop() {
        let inner = Loop::new("L1", 8).with_stmt(Statement::new("s").carried_on("L0"));
        let outer = Loop::new("L0", 8).with_loop(inner);
        assert!(outer.has_carried_dep());
        assert!(!outer.sub_loops().next().unwrap().has_carried_dep());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_trip_count_rejected() {
        let _ = Loop::new("L0", 0);
    }
}
