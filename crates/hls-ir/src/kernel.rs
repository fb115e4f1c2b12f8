//! The kernel: arrays + functions + loop-nest index.

use crate::array::{ArrayDecl, ArrayId, ArrayKind};
use crate::body::{BodyItem, Function, Loop, PragmaKind};
use crate::stmt::Statement;
use crate::types::ScalarType;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Stable id of a loop within a kernel (depth-first source order over the
/// top function, then callees in declaration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LoopId(pub usize);

/// Index entry for one loop of the kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopInfo {
    /// Stable id.
    pub id: LoopId,
    /// Source label.
    pub label: String,
    /// Nesting depth (0 = outermost within its function).
    pub depth: usize,
    /// Enclosing loop, if any (within the same function).
    pub parent: Option<LoopId>,
    /// Function the loop lives in.
    pub function: String,
    /// Trip count.
    pub trip_count: u64,
    /// Data-dependent bound.
    pub variable_bound: bool,
    /// Declared candidate pragmas.
    pub candidate_pragmas: Vec<PragmaKind>,
    /// Whether any statement carries a dependence on this loop.
    pub carried_dep: bool,
    /// Direct children.
    pub children: Vec<LoopId>,
}

impl LoopInfo {
    /// Whether this loop has no sub-loops.
    pub fn is_innermost(&self) -> bool {
        self.children.is_empty()
    }
}

/// Errors produced by [`Kernel::validate`] / [`KernelBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateKernelError {
    /// Two loops share a label.
    DuplicateLoopLabel(String),
    /// A `BodyItem::Call` names a function the kernel does not define.
    UnknownCallee(String),
    /// A statement references an array id outside the declared range.
    BadArrayId(usize),
    /// The kernel defines no top-level work (no loops and no statements).
    EmptyKernel,
    /// A call cycle exists in the function call graph.
    RecursiveCall(String),
}

impl fmt::Display for ValidateKernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateLoopLabel(l) => write!(f, "duplicate loop label `{l}`"),
            Self::UnknownCallee(c) => write!(f, "call to undefined function `{c}`"),
            Self::BadArrayId(i) => write!(f, "array id {i} out of range"),
            Self::EmptyKernel => write!(f, "kernel has no loops or statements"),
            Self::RecursiveCall(c) => write!(f, "recursive call involving `{c}`"),
        }
    }
}

impl std::error::Error for ValidateKernelError {}

/// A complete HLS kernel: arrays, functions, and a loop index.
///
/// # Examples
///
/// ```
/// use hls_ir::{Kernel, Loop, PragmaKind, ScalarType, ArrayKind, Statement, OpMix, AccessPattern};
///
/// let mut b = Kernel::builder("toy");
/// let input = b.array("input", ScalarType::I32, &[64], ArrayKind::InOut);
/// b.top_items(vec![hls_ir::BodyItem::Loop(
///     Loop::new("L1", 64)
///         .with_pragmas(&[PragmaKind::Pipeline, PragmaKind::Parallel])
///         .with_stmt(
///             Statement::new("inc")
///                 .with_ops(OpMix { iadd: 1, ..OpMix::default() })
///                 .load(input, AccessPattern::affine(&[("L1", 1)]))
///                 .store(input, AccessPattern::affine(&[("L1", 1)])),
///         ),
/// )]);
/// let kernel = b.build().unwrap();
/// assert_eq!(kernel.loops().len(), 1);
/// assert_eq!(kernel.num_candidate_pragmas(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Kernel {
    name: String,
    arrays: Vec<ArrayDecl>,
    functions: Vec<Function>,
    /// Name of the top (entry) function.
    top: String,
    #[serde(skip)]
    loop_index: Vec<LoopInfo>,
    #[serde(skip)]
    label_to_id: HashMap<String, LoopId>,
}

impl Kernel {
    /// Starts building a kernel with the given name.
    pub fn builder(name: impl Into<String>) -> KernelBuilder {
        KernelBuilder {
            name: name.into(),
            arrays: Vec::new(),
            functions: Vec::new(),
            top_items: Vec::new(),
        }
    }

    /// Kernel name (e.g. `"atax"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared arrays.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// Array by id.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0]
    }

    /// All functions (the top function first).
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// The entry function.
    pub fn top_function(&self) -> &Function {
        self.functions.iter().find(|f| f.name() == self.top).expect("top function exists")
    }

    /// Function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name() == name)
    }

    /// Loop index in depth-first source order.
    pub fn loops(&self) -> &[LoopInfo] {
        &self.loop_index
    }

    /// Loop info by id.
    pub fn loop_info(&self, id: LoopId) -> &LoopInfo {
        &self.loop_index[id.0]
    }

    /// Loop id by source label.
    pub fn loop_by_label(&self, label: &str) -> Option<LoopId> {
        self.label_to_id.get(label).copied()
    }

    /// Total number of candidate pragma placeholders (the paper's
    /// "# pragmas" column of Tables 1 and 3).
    pub fn num_candidate_pragmas(&self) -> usize {
        self.loop_index.iter().map(|l| l.candidate_pragmas.len()).sum()
    }

    /// All statements of the kernel (depth-first), with their enclosing loop
    /// (if any).
    pub fn statements(&self) -> Vec<(Option<LoopId>, &Statement)> {
        let mut out = Vec::new();
        let mut visited_fns: Vec<&str> = Vec::new();
        self.collect_statements(self.top_function().body(), None, &mut out, &mut visited_fns);
        out
    }

    fn collect_statements<'a>(
        &'a self,
        items: &'a [BodyItem],
        enclosing: Option<LoopId>,
        out: &mut Vec<(Option<LoopId>, &'a Statement)>,
        visited_fns: &mut Vec<&'a str>,
    ) {
        for item in items {
            match item {
                BodyItem::Stmt(s) => out.push((enclosing, s)),
                BodyItem::Loop(l) => {
                    let id = self.loop_by_label(l.label()).expect("indexed loop");
                    self.collect_statements(l.body(), Some(id), out, visited_fns);
                }
                BodyItem::Call(callee) => {
                    if !visited_fns.contains(&callee.as_str()) {
                        visited_fns.push(callee);
                        if let Some(f) = self.function(callee) {
                            self.collect_statements(f.body(), enclosing, out, visited_fns);
                        }
                        visited_fns.pop();
                    }
                }
            }
        }
    }

    /// Product of trip counts of the loop and all its ancestors — how many
    /// times the loop body runs per kernel invocation.
    pub fn iteration_product(&self, id: LoopId) -> u64 {
        let mut prod = 1u64;
        let mut cur = Some(id);
        while let Some(c) = cur {
            let info = self.loop_info(c);
            prod = prod.saturating_mul(info.trip_count);
            cur = info.parent;
        }
        prod
    }
}

/// Builder for [`Kernel`] (see [`Kernel::builder`]).
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    arrays: Vec<ArrayDecl>,
    functions: Vec<Function>,
    top_items: Vec<BodyItem>,
}

impl KernelBuilder {
    /// Declares an array and returns its id.
    pub fn array(&mut self, name: &str, elem: ScalarType, dims: &[u64], kind: ArrayKind) -> ArrayId {
        self.arrays.push(ArrayDecl::new(name, elem, dims, kind));
        ArrayId(self.arrays.len() - 1)
    }

    /// Adds a helper function callable from loop bodies.
    pub fn function(&mut self, name: &str, body: Vec<BodyItem>) -> &mut Self {
        self.functions.push(Function::new(name, body));
        self
    }

    /// Sets the body of the top (entry) function.
    pub fn top_items(&mut self, items: Vec<BodyItem>) -> &mut Self {
        self.top_items = items;
        self
    }

    /// Finalizes and validates the kernel.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateKernelError`] on duplicate loop labels, unknown
    /// call targets, out-of-range array ids, recursion, or an empty kernel.
    pub fn build(self) -> Result<Kernel, ValidateKernelError> {
        let top_name = format!("{}_top", self.name);
        let mut functions = vec![Function::new(top_name.clone(), self.top_items)];
        functions.extend(self.functions);

        // Validate call targets and recursion with a DFS over the call graph.
        let names: Vec<&str> = functions.iter().map(|f| f.name()).collect();
        for f in &functions {
            for item in body_items_recursive(f.body()) {
                if let BodyItem::Call(c) = item {
                    if !names.contains(&c.as_str()) {
                        return Err(ValidateKernelError::UnknownCallee(c.clone()));
                    }
                }
            }
        }
        check_recursion(&functions, &top_name)?;

        // Validate array ids.
        let num_arrays = self.arrays.len();
        for f in &functions {
            for item in body_items_recursive(f.body()) {
                if let BodyItem::Stmt(s) = item {
                    for a in s.accesses() {
                        if a.array.0 >= num_arrays {
                            return Err(ValidateKernelError::BadArrayId(a.array.0));
                        }
                    }
                }
            }
        }

        let (loop_index, label_to_id) = build_loop_index(&functions, &top_name);
        if loop_index.is_empty()
            && !functions
                .iter()
                .any(|f| body_items_recursive(f.body()).iter().any(|i| matches!(i, BodyItem::Stmt(_))))
        {
            return Err(ValidateKernelError::EmptyKernel);
        }

        // Duplicate labels: build_loop_index would have clobbered; re-check.
        let mut seen = HashMap::new();
        for info in &loop_index {
            if seen.insert(info.label.clone(), ()).is_some() {
                return Err(ValidateKernelError::DuplicateLoopLabel(info.label.clone()));
            }
        }

        Ok(Kernel {
            name: self.name,
            arrays: self.arrays,
            functions,
            top: top_name,
            loop_index,
            label_to_id,
        })
    }
}

fn check_recursion(functions: &[Function], start: &str) -> Result<(), ValidateKernelError> {
    fn dfs<'a>(
        functions: &'a [Function],
        name: &'a str,
        stack: &mut Vec<&'a str>,
    ) -> Result<(), ValidateKernelError> {
        if stack.contains(&name) {
            return Err(ValidateKernelError::RecursiveCall(name.to_string()));
        }
        stack.push(name);
        if let Some(f) = functions.iter().find(|f| f.name() == name) {
            for item in body_items_recursive(f.body()) {
                if let BodyItem::Call(c) = item {
                    dfs(functions, c, stack)?;
                }
            }
        }
        stack.pop();
        Ok(())
    }
    dfs(functions, start, &mut Vec::new())
}

/// Flattens a body (including loop bodies) into a list of item references.
fn body_items_recursive(items: &[BodyItem]) -> Vec<&BodyItem> {
    let mut out = Vec::new();
    fn walk<'a>(items: &'a [BodyItem], out: &mut Vec<&'a BodyItem>) {
        for item in items {
            out.push(item);
            if let BodyItem::Loop(l) = item {
                walk(l.body(), out);
            }
        }
    }
    walk(items, &mut out);
    out
}

fn build_loop_index(
    functions: &[Function],
    top: &str,
) -> (Vec<LoopInfo>, HashMap<String, LoopId>) {
    let mut index = Vec::new();
    let mut map = HashMap::new();

    fn walk(
        l: &Loop,
        depth: usize,
        parent: Option<LoopId>,
        function: &str,
        index: &mut Vec<LoopInfo>,
        map: &mut HashMap<String, LoopId>,
    ) -> LoopId {
        let id = LoopId(index.len());
        index.push(LoopInfo {
            id,
            label: l.label().to_string(),
            depth,
            parent,
            function: function.to_string(),
            trip_count: l.trip_count(),
            variable_bound: l.has_variable_bound(),
            candidate_pragmas: l.candidate_pragmas().to_vec(),
            carried_dep: l.has_carried_dep(),
            children: Vec::new(),
        });
        map.entry(l.label().to_string()).or_insert(id);
        let mut children = Vec::new();
        for sub in l.sub_loops() {
            children.push(walk(sub, depth + 1, Some(id), function, index, map));
        }
        index[id.0].children = children;
        id
    }

    fn walk_items(
        items: &[BodyItem],
        function: &str,
        index: &mut Vec<LoopInfo>,
        map: &mut HashMap<String, LoopId>,
    ) {
        for item in items {
            if let BodyItem::Loop(l) = item {
                walk(l, 0, None, function, index, map);
            }
        }
    }

    // Top function first, then helpers in declaration order — gives stable ids.
    if let Some(f) = functions.iter().find(|f| f.name() == top) {
        walk_items(f.body(), top, &mut index, &mut map);
    }
    for f in functions.iter().filter(|f| f.name() != top) {
        walk_items(f.body(), f.name(), &mut index, &mut map);
    }
    (index, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::{AccessPattern, OpMix};

    fn toy() -> Kernel {
        let mut b = Kernel::builder("toy");
        let a = b.array("a", ScalarType::I32, &[64], ArrayKind::InOut);
        b.top_items(vec![BodyItem::Loop(
            Loop::new("L0", 8)
                .with_pragmas(&[PragmaKind::Pipeline, PragmaKind::Tile])
                .with_loop(
                    Loop::new("L1", 8)
                        .with_pragmas(&[PragmaKind::Parallel])
                        .with_stmt(
                            Statement::new("inc")
                                .with_ops(OpMix { iadd: 1, ..OpMix::default() })
                                .load(a, AccessPattern::affine(&[("L0", 8), ("L1", 1)]))
                                .store(a, AccessPattern::affine(&[("L0", 8), ("L1", 1)])),
                        ),
                ),
        )]);
        b.build().unwrap()
    }

    #[test]
    fn loop_index_structure() {
        let k = toy();
        assert_eq!(k.loops().len(), 2);
        let l0 = k.loop_by_label("L0").unwrap();
        let l1 = k.loop_by_label("L1").unwrap();
        assert_eq!(k.loop_info(l0).depth, 0);
        assert_eq!(k.loop_info(l1).depth, 1);
        assert_eq!(k.loop_info(l1).parent, Some(l0));
        assert_eq!(k.loop_info(l0).children, vec![l1]);
        assert!(k.loop_info(l1).is_innermost());
        assert!(!k.loop_info(l0).is_innermost());
    }

    #[test]
    fn pragma_count_and_iteration_product() {
        let k = toy();
        assert_eq!(k.num_candidate_pragmas(), 3);
        let l1 = k.loop_by_label("L1").unwrap();
        assert_eq!(k.iteration_product(l1), 64);
    }

    #[test]
    fn statements_enumeration() {
        let k = toy();
        let stmts = k.statements();
        assert_eq!(stmts.len(), 1);
        assert_eq!(stmts[0].1.name(), "inc");
        assert_eq!(stmts[0].0, k.loop_by_label("L1"));
    }

    #[test]
    fn duplicate_labels_rejected() {
        let mut b = Kernel::builder("bad");
        b.top_items(vec![
            BodyItem::Loop(Loop::new("L0", 4)),
            BodyItem::Loop(Loop::new("L0", 4)),
        ]);
        assert_eq!(
            b.build().unwrap_err(),
            ValidateKernelError::DuplicateLoopLabel("L0".into())
        );
    }

    #[test]
    fn unknown_callee_rejected() {
        let mut b = Kernel::builder("bad");
        b.top_items(vec![BodyItem::Loop(Loop::new("L0", 4).with_call("nope"))]);
        assert_eq!(b.build().unwrap_err(), ValidateKernelError::UnknownCallee("nope".into()));
    }

    #[test]
    fn empty_kernel_rejected() {
        let b = Kernel::builder("bad");
        assert_eq!(b.build().unwrap_err(), ValidateKernelError::EmptyKernel);
    }

    #[test]
    fn recursion_rejected() {
        let mut b = Kernel::builder("bad");
        b.function("f", vec![BodyItem::Call("f".into())]);
        b.top_items(vec![BodyItem::Call("f".into())]);
        assert!(matches!(b.build().unwrap_err(), ValidateKernelError::RecursiveCall(_)));
    }

    #[test]
    fn call_bodies_included_in_statements() {
        let mut b = Kernel::builder("callk");
        b.function("leaf", vec![BodyItem::Stmt(Statement::new("work"))]);
        b.top_items(vec![BodyItem::Loop(Loop::new("L0", 4).with_call("leaf"))]);
        let k = b.build().unwrap();
        let stmts = k.statements();
        assert_eq!(stmts.len(), 1);
        assert_eq!(stmts[0].0, k.loop_by_label("L0"));
    }

    #[test]
    fn bad_array_id_rejected() {
        let mut b = Kernel::builder("bad");
        b.top_items(vec![BodyItem::Stmt(
            Statement::new("s").load(ArrayId(5), AccessPattern::Uniform),
        )]);
        assert_eq!(b.build().unwrap_err(), ValidateKernelError::BadArrayId(5));
    }
}
