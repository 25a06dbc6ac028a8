//! Compiled execution plans: plan a graph once, run it many times.
//!
//! [`Executor`](crate::exec::Executor) re-derives the topological order and re-allocates
//! its value store on every forward pass. That is fine for one-shot evaluation but wasteful
//! on the reproduction's hot path — a fault-injection campaign runs the *same* graph
//! thousands of times, and a bound-profiling pass runs it once per profiling sample. An
//! [`ExecPlan`] front-loads the per-run planning work:
//!
//! * the topological order is computed once at [`Graph::compile`] time instead of being
//!   re-derived (with its O(nodes) bookkeeping allocations) on every pass,
//! * the output shape of every node can be recorded once ([`ExecPlan::warm`]) and reused
//!   for introspection — and to pre-size the buffer arena handed out by
//!   [`ExecPlan::buffers`],
//! * the node-value store ([`Values`]) doubles as a per-node buffer arena: every operator
//!   writes its output into the buffer its node produced on the previous pass, so a
//!   `run_into` loop performs zero output-tensor allocations after warm-up (verified by
//!   the `alloc_free_plan` integration test with a counting global allocator).
//!
//! The [`Interceptor`] hook behaves exactly as it does under `Executor` — the fault
//! injector and the bound profiler observe the same nodes in the same order — and the
//! computed values are bit-for-bit identical (`Executor` is itself implemented as
//! "compile, then run once").
//!
//! # Example
//!
//! ```
//! use ranger_graph::exec::NoopInterceptor;
//! use ranger_graph::builder::GraphBuilder;
//! use ranger_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut b = GraphBuilder::new();
//! let x = b.input("x");
//! let h = b.dense(x, 4, 8, &mut rng);
//! let y = b.relu(h);
//! let graph = b.into_graph();
//!
//! let plan = graph.compile()?;
//! let mut values = plan.buffers();
//! for _ in 0..100 {
//!     plan.run_into(&mut values, &[("x", Tensor::ones(vec![1, 4]))], &mut NoopInterceptor)?;
//!     assert_eq!(values.get(y)?.dims(), &[1, 8]);
//! }
//! # Ok::<(), ranger_graph::GraphError>(())
//! ```

use crate::backend::{ExecBackend, ReferenceBackend};
use crate::error::GraphError;
use crate::exec::{Interceptor, NoopInterceptor, TileRows, Values};
use crate::graph::{Graph, NodeId};
use crate::op::Op;
use ranger_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static REFERENCE: ReferenceBackend = ReferenceBackend;

impl Graph {
    /// Compiles this graph into a reusable execution plan on the `f32`
    /// [`ReferenceBackend`].
    ///
    /// # Example
    ///
    /// ```
    /// use ranger_graph::{Graph, Op};
    /// use ranger_tensor::Tensor;
    ///
    /// let mut g = Graph::new();
    /// let x = g.add_input("x");
    /// let y = g.add_node("double", Op::ScalarMul { factor: 2.0 }, vec![x]);
    /// let plan = g.compile()?;
    /// let out = plan.run_simple(&[("x", Tensor::ones(vec![1, 3]))], y)?;
    /// assert_eq!(out.data(), &[2.0, 2.0, 2.0]);
    /// # Ok::<(), ranger_graph::GraphError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CyclicGraph`] if the graph contains a cycle (the same check
    /// every `Executor` run would perform).
    pub fn compile(&self) -> Result<ExecPlan<'_>, GraphError> {
        self.compile_with(&REFERENCE)
    }

    /// Compiles this graph into an execution plan on an explicit backend — the seam for
    /// alternative compute paths (fixed-point today; SIMD/GPU backends tomorrow).
    ///
    /// The planning work (topological order, shape recording, buffer arena) is
    /// backend-independent; only per-node kernel dispatch changes.
    ///
    /// # Example
    ///
    /// ```
    /// use ranger_graph::backend::BackendKind;
    /// use ranger_graph::{Graph, Op};
    /// use ranger_tensor::Tensor;
    ///
    /// let mut g = Graph::new();
    /// let x = g.add_input("x");
    /// let y = g.add_node("double", Op::ScalarMul { factor: 2.0 }, vec![x]);
    /// let plan = g.compile_with(BackendKind::Fixed16.backend())?;
    /// // 0.3 quantizes to 0.25 on the Q14.2 grid before the multiply.
    /// let out = plan.run_simple(&[("x", Tensor::filled(vec![1, 2], 0.3))], y)?;
    /// assert_eq!(out.data(), &[0.5, 0.5]);
    /// # Ok::<(), ranger_graph::GraphError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CyclicGraph`] if the graph contains a cycle.
    pub fn compile_with<'g>(
        &'g self,
        backend: &'g dyn ExecBackend,
    ) -> Result<ExecPlan<'g>, GraphError> {
        let order = self.topological_order()?;
        Ok(ExecPlan {
            graph: self,
            backend,
            order,
            shapes: OnceLock::new(),
            timings: OnceLock::new(),
        })
    }
}

/// Pre-sized per-node wall-time slots, created once at [`ExecPlan::warm`] time.
///
/// One `AtomicU64` of accumulated nanoseconds per graph node plus a pass counter:
/// recording from [`ExecPlan::run_into`] is two clock reads and one relaxed
/// `fetch_add` per node, with **zero allocations** — the slots exist before the
/// first timed pass, so the `alloc_free_plan` counting-allocator pin holds with
/// metrics enabled. Atomic slots also let the many worker threads sharing one
/// campaign plan record concurrently.
#[derive(Debug)]
struct PlanTimings {
    /// Accumulated wall nanoseconds per node, indexed by `NodeId::index()`.
    node_nanos: Vec<AtomicU64>,
    /// Number of completed timed passes.
    passes: AtomicU64,
    /// Segments executed by tiled passes ([`ExecPlan::run_tiled_into`]).
    tile_segments: AtomicU64,
    /// Batch rows pushed through segments by tiled passes (rows × segments).
    tile_rows: AtomicU64,
    /// Wall nanoseconds spent inside segment execution (slicing, row-group kernels,
    /// materialization) by tiled passes.
    tile_nanos: AtomicU64,
}

/// The default per-segment working-set budget [`ExecPlan::derive_tile_rows`] sizes row
/// groups against: half a MiB, comfortably inside a typical per-core L2 so a segment's
/// live activations stay cache-resident between consecutive nodes.
pub const DEFAULT_TILE_BUDGET_BYTES: usize = 512 * 1024;

/// One step of a [`TiledSchedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TileStep {
    /// Consecutive nodes evaluated once on the whole batch, exactly as
    /// [`ExecPlan::run_into`] would — constants, inputs, batch barriers (softmax), and
    /// anything that does not tile row-wise.
    Whole(Vec<NodeId>),
    /// Consecutive row-tileable nodes evaluated one row group at a time.
    Segment(SegmentPlan),
}

/// A maximal run of consecutive row-tileable nodes, with the bookkeeping tiled
/// execution needs: which outputs must be assembled back into full-batch values, and
/// which batch-carrying values computed outside the segment feed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentPlan {
    /// The segment's nodes, in execution order.
    pub nodes: Vec<NodeId>,
    /// For each node of `nodes`: whether its row groups are materialized into a
    /// full-batch value (true iff the node is consumed outside the segment, kept by the
    /// caller, or has no consumers at all). Non-materialized outputs live only as
    /// row-group scratch and are unreadable after the pass.
    pub materialize: Vec<bool>,
    /// Batch-carrying inputs computed outside the segment, row-sliced into the tile
    /// overlay for every group. Non-carrying inputs (weights, biases) are read whole.
    pub externals: Vec<NodeId>,
}

/// A tiled execution schedule: the plan's topological order partitioned into
/// [`TileStep`]s by [`ExecPlan::tiled_schedule`]. Owns no borrows, so campaigns build
/// it once next to the plan and reuse it across every pass and worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TiledSchedule {
    steps: Vec<TileStep>,
}

impl TiledSchedule {
    /// The schedule's steps, in execution order.
    pub fn steps(&self) -> &[TileStep] {
        &self.steps
    }

    /// Number of [`TileStep::Segment`] steps — 0 means tiling degenerates to the
    /// untiled order and callers may as well use [`ExecPlan::run_into`].
    pub fn segments(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, TileStep::Segment(_)))
            .count()
    }
}

/// Classifies one node for the tiled scheduler, given the carrying flags of every
/// already-classified (topologically earlier) node. Returns `(carrying, tileable)`:
/// whether the node's output carries the batch in its leading dimension, and whether
/// the node may run inside a row-group segment.
///
/// The rules are structural (no shapes needed):
///
/// - `Input` carries the batch but runs whole — the feed is copied once per pass, then
///   row-sliced into each group as a segment external.
/// - `Const` never carries.
/// - `Conv2d` / `MatMul` / `BiasAdd` carry through their first operand and tile iff the
///   data operand carries while the weight operand does not.
/// - `Softmax` carries but is a batch **barrier** — campaigns inject whole-batch faults
///   into its output, and keeping it whole also keeps the fixed-point kernel's row
///   buffer out of the per-group loop.
/// - Elementwise, pooling and shape ops tile iff their single input carries.
/// - `Add` / `Mul` tile iff **both** operands carry; `Concat` iff all of them do
///   (a non-carrying operand would need broadcasting the tiler does not do).
///
/// Anything non-tileable lands in a [`TileStep::Whole`] run, where the reference
/// (untiled) evaluation and interception semantics apply verbatim.
fn classify(op: &Op, inputs: &[NodeId], carrying: &[bool]) -> (bool, bool) {
    let c = |i: usize| {
        inputs
            .get(i)
            .is_some_and(|id| carrying.get(id.index()).copied().unwrap_or(false))
    };
    match op {
        Op::Input => (true, false),
        Op::Const => (false, false),
        Op::Conv2d { .. } | Op::MatMul | Op::BiasAdd => (c(0), inputs.len() == 2 && c(0) && !c(1)),
        Op::Softmax => (c(0), false),
        Op::Add | Op::Mul => (c(0) || c(1), inputs.len() == 2 && c(0) && c(1)),
        Op::Concat => {
            let any = (0..inputs.len()).any(c);
            let all = !inputs.is_empty() && (0..inputs.len()).all(c);
            (any, all)
        }
        Op::Relu
        | Op::Tanh
        | Op::Sigmoid
        | Op::Atan
        | Op::Elu
        | Op::MaxPool { .. }
        | Op::AvgPool { .. }
        | Op::GlobalAvgPool
        | Op::Flatten
        | Op::Reshape { .. }
        | Op::ScalarMul { .. }
        | Op::Identity
        | Op::Clamp { .. }
        | Op::RangeRestore { .. } => (c(0), inputs.len() == 1 && c(0)),
    }
}

/// Wall nanoseconds elapsed since `start`, saturating.
fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The batch rows a segment's carrying externals share (0 for a segment with none).
fn segment_rows(seg: &SegmentPlan, values: &Values) -> Result<usize, GraphError> {
    let mut total_rows: Option<usize> = None;
    for &e in &seg.externals {
        let dims = values.dims_of(e).ok_or(GraphError::UnknownNode(e))?;
        let lead = *dims.first().ok_or_else(|| GraphError::ShapeError {
            node: e,
            message: "tiled segment input requires a leading batch dimension".into(),
        })?;
        match total_rows {
            None => total_rows = Some(lead),
            Some(rows) if rows == lead => {}
            Some(rows) => {
                return Err(GraphError::ShapeError {
                    node: e,
                    message: format!("segment inputs disagree on batch rows: {lead} vs {rows}"),
                });
            }
        }
    }
    Ok(total_rows.unwrap_or(0))
}

/// A compiled execution plan over a borrowed [`Graph`].
///
/// Create with [`Graph::compile`] (the `f32` reference backend) or
/// [`Graph::compile_with`] (any [`ExecBackend`]). The plan borrows the graph immutably,
/// so any number of plans can coexist, and the graph cannot be rewritten while a plan
/// over it is alive — exactly the staleness bug the borrow checker should reject.
#[derive(Debug)]
pub struct ExecPlan<'g> {
    graph: &'g Graph,
    backend: &'g dyn ExecBackend,
    order: Vec<NodeId>,
    /// Per-node output dimensions, recorded on the first completed run.
    shapes: OnceLock<Vec<Option<Vec<usize>>>>,
    /// Per-node wall-time slots, created at warm time iff metrics are enabled.
    timings: OnceLock<PlanTimings>,
}

impl<'g> ExecPlan<'g> {
    /// The graph this plan executes.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The backend this plan dispatches kernels through.
    pub fn backend(&self) -> &'g dyn ExecBackend {
        self.backend
    }

    /// The topological execution order computed at compile time.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Returns a value store sized for this plan, for use with [`ExecPlan::run_into`].
    ///
    /// If the plan has been [warmed](ExecPlan::warm), every per-node output buffer is
    /// pre-allocated to the recorded shape's element count, so even the store's first
    /// `run_into` pass allocates no output tensors (for feeds of the warmed batch size).
    pub fn buffers(&self) -> Values {
        let mut values = Values::new(self.graph.len());
        if let Some(shapes) = self.shapes.get() {
            let spec = self.backend.spec();
            for (index, dims) in shapes.iter().enumerate() {
                if let Some(dims) = dims {
                    values.preallocate(NodeId::new(index), dims);
                    if let Some(spec) = spec {
                        values.preallocate_q(NodeId::new(index), spec, dims);
                    }
                }
            }
        }
        values
    }

    /// Runs a forward pass into a caller-owned value store, reusing its allocations.
    ///
    /// This is the hot-path entry point: the previous pass's tensors become the output
    /// buffers of the current pass (see [`Values`]), so after the first pass a `run_into`
    /// loop performs **zero output-tensor allocations** — each operator writes into its
    /// node's recycled buffer. The `interceptor` is called after every operator, as under
    /// [`Executor`](crate::exec::Executor).
    ///
    /// If the plan was [warmed](ExecPlan::warm) while metrics were enabled
    /// (`ranger_obs`), each node's wall time is accumulated into a pre-sized atomic
    /// slot — still zero allocations, no RNG, and no branching on observed values,
    /// so results are bit-for-bit identical with metrics on or off. Drain the slots
    /// into the global registry with [`ExecPlan::publish_timings`].
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if a feed is missing or any operator receives invalid
    /// operands.
    pub fn run_into(
        &self,
        values: &mut Values,
        feeds: &[(&str, Tensor)],
        interceptor: &mut dyn Interceptor,
    ) -> Result<(), GraphError> {
        values.reset(self.graph.len());
        let timings = self.timings.get();
        for &id in &self.order {
            self.eval(id, values, feeds, interceptor, timings, None)?;
        }
        if let Some(t) = timings {
            t.passes.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Evaluates node `id` — on its current row group when `tile` is set, else on the
    /// whole batch — adding its wall time to the node's slot when the plan is timing.
    fn eval(
        &self,
        id: NodeId,
        values: &mut Values,
        feeds: &[(&str, Tensor)],
        interceptor: &mut dyn Interceptor,
        timings: Option<&PlanTimings>,
        tile: Option<TileRows>,
    ) -> Result<(), GraphError> {
        let node = self.graph.node(id)?;
        let start = timings.map(|_| Instant::now());
        match tile {
            Some(rows) => self
                .backend
                .eval_node_tile(node, values, feeds, interceptor, rows)?,
            None => self.backend.eval_node(node, values, feeds, interceptor)?,
        }
        if let (Some(t), Some(start)) = (timings, start) {
            t.node_nanos[id.index()].fetch_add(nanos_since(start), Ordering::Relaxed);
        }
        Ok(())
    }

    /// Partitions this plan's topological order into a [`TiledSchedule`]: maximal runs
    /// of row-tileable nodes become [`TileStep::Segment`]s, everything else stays in
    /// [`TileStep::Whole`] runs with the untiled semantics. `keep` names nodes whose
    /// full-batch outputs the caller will read after the pass (a campaign passes its
    /// injection target's output); they are materialized even when consumed only inside
    /// their segment.
    ///
    /// The partition is structural — no shapes needed, so the schedule can be built
    /// before warming — and deterministic: the same graph always yields the same steps.
    pub fn tiled_schedule(&self, keep: &[NodeId]) -> TiledSchedule {
        let mut carrying = vec![false; self.graph.len()];
        let mut steps: Vec<TileStep> = Vec::new();
        let mut whole: Vec<NodeId> = Vec::new();
        let mut seg: Vec<NodeId> = Vec::new();
        for &id in &self.order {
            let Ok(node) = self.graph.node(id) else {
                continue;
            };
            let (carries, tileable) = classify(&node.op, &node.inputs, &carrying);
            if let Some(slot) = carrying.get_mut(id.index()) {
                *slot = carries;
            }
            if tileable {
                if !whole.is_empty() {
                    steps.push(TileStep::Whole(std::mem::take(&mut whole)));
                }
                seg.push(id);
            } else {
                if !seg.is_empty() {
                    let plan = self.finalize_segment(std::mem::take(&mut seg), keep, &carrying);
                    steps.push(TileStep::Segment(plan));
                }
                whole.push(id);
            }
        }
        if !seg.is_empty() {
            let plan = self.finalize_segment(seg, keep, &carrying);
            steps.push(TileStep::Segment(plan));
        }
        if !whole.is_empty() {
            steps.push(TileStep::Whole(whole));
        }
        TiledSchedule { steps }
    }

    /// Completes a segment's bookkeeping: which outputs to materialize, which carrying
    /// values to row-slice in.
    fn finalize_segment(
        &self,
        nodes: Vec<NodeId>,
        keep: &[NodeId],
        carrying: &[bool],
    ) -> SegmentPlan {
        let mut materialize = Vec::with_capacity(nodes.len());
        for &id in &nodes {
            let consumers = self.graph.consumers(id);
            let escapes = consumers.is_empty() || consumers.iter().any(|c| !nodes.contains(c));
            materialize.push(escapes || keep.contains(&id));
        }
        let mut externals: Vec<NodeId> = Vec::new();
        for &id in &nodes {
            let Ok(node) = self.graph.node(id) else {
                continue;
            };
            for &input in &node.inputs {
                if carrying.get(input.index()).copied().unwrap_or(false)
                    && !nodes.contains(&input)
                    && !externals.contains(&input)
                {
                    externals.push(input);
                }
            }
        }
        SegmentPlan {
            nodes,
            materialize,
            externals,
        }
    }

    /// Derives a row-group height from this plan's warmed shapes: the largest
    /// `tile_rows` whose worst-case segment working set (one row of every segment node
    /// plus every sliced external, 4 bytes per element, times `tile_rows`) fits
    /// `budget_bytes`. Returns at least 1; [`ExecPlan::run_tiled_into`] caps the value
    /// at the pass's actual batch rows.
    ///
    /// Requires a [warmed](ExecPlan::warm) plan — without recorded shapes (or with a
    /// schedule that has no segments) there is nothing to size against and the answer
    /// is 1.
    pub fn derive_tile_rows(&self, schedule: &TiledSchedule, budget_bytes: usize) -> usize {
        let Some(shapes) = self.shapes.get() else {
            return 1;
        };
        let row_bytes = |id: NodeId| -> usize {
            shapes
                .get(id.index())
                .and_then(|dims| dims.as_ref())
                .map(|dims| {
                    let per_row: usize = dims.get(1..).map(|d| d.iter().product()).unwrap_or(1);
                    per_row.max(1) * std::mem::size_of::<f32>()
                })
                .unwrap_or(0)
        };
        let mut worst = 0usize;
        for step in &schedule.steps {
            if let TileStep::Segment(seg) = step {
                let bytes: usize = seg
                    .nodes
                    .iter()
                    .chain(&seg.externals)
                    .map(|&id| row_bytes(id))
                    .sum();
                worst = worst.max(bytes);
            }
        }
        if worst == 0 {
            return 1;
        }
        (budget_bytes / worst).max(1)
    }

    /// Runs one forward pass under a [`TiledSchedule`], `tile_rows` batch rows at a
    /// time: each [`TileStep::Segment`] slices its carrying externals into row-group
    /// views, pushes the group through every segment node back-to-back (so the group's
    /// live activations stay cache-resident across the segment), materializes the
    /// outputs that escape the segment, and recycles the group's scratch.
    /// [`TileStep::Whole`] runs evaluate exactly as [`ExecPlan::run_into`] does.
    ///
    /// Semantics: with an interceptor that translates [`TileRows`] offsets (the fault
    /// injectors) — or with none — the pass's readable outputs are **bit-for-bit**
    /// identical to the untiled pass at every tile size, because every kernel sees the
    /// same per-row operands in the same order and row groups merely partition the
    /// batch. Only nodes evaluated whole or materialized are readable afterwards;
    /// interior segment scratch is not.
    ///
    /// An untiled pass is one row group: a segment whose group covers its whole batch
    /// (`tile_rows >= total rows`, e.g. `usize::MAX`) evaluates its nodes exactly as a
    /// `Whole` step does — no slicing, no tile overlay, no materialization and no
    /// `plan.tile.*` tally — so every node stays readable and the pass costs what
    /// [`ExecPlan::run_into`] costs. A `tile_rows` of 0 counts as 1.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if a feed is missing, any operator receives invalid
    /// operands, or a segment external lacks a leading batch dimension shared by its
    /// peers.
    pub fn run_tiled_into(
        &self,
        values: &mut Values,
        feeds: &[(&str, Tensor)],
        interceptor: &mut dyn Interceptor,
        schedule: &TiledSchedule,
        tile_rows: usize,
    ) -> Result<(), GraphError> {
        values.reset(self.graph.len());
        let timings = self.timings.get();
        let spec = self.backend.spec();
        let mut seg_count = 0u64;
        let mut rows_done = 0u64;
        let mut seg_nanos = 0u64;
        let step_rows = tile_rows.max(1);
        for step in &schedule.steps {
            let seg = match step {
                TileStep::Whole(nodes) => {
                    for &id in nodes {
                        self.eval(id, values, feeds, interceptor, timings, None)?;
                    }
                    continue;
                }
                TileStep::Segment(seg) => seg,
            };
            // An untiled pass (`usize::MAX`) covers any batch: skip counting its rows.
            let total_rows = match step_rows {
                usize::MAX => 0,
                _ => segment_rows(seg, values)?,
            };
            if step_rows >= total_rows {
                for &id in &seg.nodes {
                    self.eval(id, values, feeds, interceptor, timings, None)?;
                }
                continue;
            }
            let seg_start = timings.map(|_| Instant::now());
            values.begin_tiles(self.graph.len());
            let mut row_start = 0usize;
            while row_start < total_rows {
                let rows = step_rows.min(total_rows - row_start);
                let tr = TileRows {
                    row_start,
                    rows,
                    total_rows,
                };
                for &e in &seg.externals {
                    if spec.is_some() {
                        values.slice_rows_to_tile_q(e, row_start, rows)?;
                    } else {
                        values.slice_rows_to_tile(e, row_start, rows)?;
                    }
                }
                for &id in &seg.nodes {
                    self.eval(id, values, feeds, interceptor, timings, Some(tr))?;
                }
                for (&id, &mat) in seg.nodes.iter().zip(&seg.materialize) {
                    if mat {
                        if spec.is_some() {
                            values.materialize_tile_q(id, row_start == 0)?;
                        } else {
                            values.materialize_tile(id, row_start == 0)?;
                        }
                    }
                }
                values.recycle_tiles();
                row_start += rows;
                rows_done += rows as u64;
            }
            seg_count += 1;
            if let Some(start) = seg_start {
                seg_nanos = seg_nanos.saturating_add(nanos_since(start));
            }
        }
        if let Some(t) = timings {
            t.passes.fetch_add(1, Ordering::Relaxed);
            t.tile_segments.fetch_add(seg_count, Ordering::Relaxed);
            t.tile_rows.fetch_add(rows_done, Ordering::Relaxed);
            t.tile_nanos.fetch_add(seg_nanos, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Runs one forward pass on `feeds` and records every node's output shape, making
    /// [`ExecPlan::output_dims`] available. Shapes are computed at most once per plan;
    /// subsequent calls only run the pass if recording has not happened yet.
    ///
    /// Recording is explicit (not part of [`ExecPlan::run_into`]) so single-shot
    /// executions — including every [`Executor`](crate::exec::Executor) call, which
    /// compiles a throwaway plan — never pay for shape bookkeeping they cannot use.
    ///
    /// # Errors
    ///
    /// See [`ExecPlan::run_into`].
    pub fn warm(&self, feeds: &[(&str, Tensor)]) -> Result<(), GraphError> {
        if self.shapes.get().is_some() {
            self.ensure_timings();
            return Ok(());
        }
        let values = self.run(feeds, &mut NoopInterceptor)?;
        // dims_of reads shapes from whichever representation the backend stored, so
        // warming a fixed-point plan records every node without decoding any mirror.
        let recorded: Vec<Option<Vec<usize>>> = (0..self.graph.len())
            .map(|i| values.dims_of(NodeId::new(i)).map(|d| d.to_vec()))
            .collect();
        let _ = self.shapes.set(recorded);
        self.ensure_timings();
        Ok(())
    }

    /// Creates the per-node timing slots if metrics are enabled and none exist yet.
    ///
    /// Allocation happens here — at warm time, outside the hot loop — never in
    /// [`ExecPlan::run_into`]. Plans warmed while metrics are disabled never time
    /// at all, so the disabled cost in the pass loop is a single pointer check.
    fn ensure_timings(&self) {
        if self.timings.get().is_none() && ranger_obs::enabled() {
            let _ = self.timings.set(PlanTimings {
                node_nanos: (0..self.graph.len()).map(|_| AtomicU64::new(0)).collect(),
                passes: AtomicU64::new(0),
                tile_segments: AtomicU64::new(0),
                tile_rows: AtomicU64::new(0),
                tile_nanos: AtomicU64::new(0),
            });
        }
    }

    /// Accumulated wall nanoseconds recorded for node `id`, or `None` if the plan
    /// is not timing (never warmed with metrics enabled).
    pub fn node_nanos(&self, id: NodeId) -> Option<u64> {
        self.timings
            .get()
            .and_then(|t| t.node_nanos.get(id.index()))
            .map(|slot| slot.load(Ordering::Relaxed))
    }

    /// Number of timed passes completed so far (0 if the plan is not timing).
    pub fn timed_passes(&self) -> u64 {
        self.timings
            .get()
            .map(|t| t.passes.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Drains the per-node timing slots into the global metrics registry,
    /// aggregated by operator kind.
    ///
    /// For each kind present in the graph this adds to three counters in
    /// [`ranger_obs::registry()`]:
    ///
    /// - `plan.op.<Kind>.nanos` — accumulated wall time across that kind's nodes,
    /// - `plan.op.<Kind>.calls` — kernel invocations (timed passes × nodes of the
    ///   kind),
    ///
    /// plus `plan.passes` for the pass total, and — when tiled passes ran — the
    /// per-segment tiling counters `plan.tile.segments`, `plan.tile.rows` and
    /// `plan.tile.nanos`. Slots are swapped to zero, so calling this repeatedly
    /// (e.g. once per campaign on a reused plan) never double-counts. A plan that
    /// is not timing publishes nothing.
    ///
    /// Note on `plan.op.<Kind>.calls` under tiling: the counter remains passes ×
    /// nodes of the kind — one "call" per node per pass, regardless of how many row
    /// groups that pass split the node into (use `plan.tile.rows` /
    /// `plan.tile.segments` for the group count).
    pub fn publish_timings(&self) {
        let Some(timings) = self.timings.get() else {
            return;
        };
        let passes = timings.passes.swap(0, Ordering::Relaxed);
        let tile_segments = timings.tile_segments.swap(0, Ordering::Relaxed);
        let tile_rows = timings.tile_rows.swap(0, Ordering::Relaxed);
        let tile_nanos = timings.tile_nanos.swap(0, Ordering::Relaxed);
        // Aggregate per op kind; the kind set is tiny, so a linear scan beats a map.
        let mut kinds: Vec<(&'static str, u64, u64)> = Vec::new();
        for &id in &self.order {
            let Ok(node) = self.graph.node(id) else {
                continue;
            };
            let nanos = timings.node_nanos[id.index()].swap(0, Ordering::Relaxed);
            let kind = node.op.kind_name();
            match kinds.iter_mut().find(|(k, _, _)| *k == kind) {
                Some((_, total, nodes)) => {
                    *total += nanos;
                    *nodes += 1;
                }
                None => kinds.push((kind, nanos, 1)),
            }
        }
        let registry = ranger_obs::registry();
        registry.counter("plan.passes").add(passes);
        registry.counter("plan.tile.segments").add(tile_segments);
        registry.counter("plan.tile.rows").add(tile_rows);
        registry.counter("plan.tile.nanos").add(tile_nanos);
        for (kind, nanos, nodes) in kinds {
            registry
                .counter(&format!("plan.op.{kind}.nanos"))
                .add(nanos);
            registry
                .counter(&format!("plan.op.{kind}.calls"))
                .add(passes * nodes);
        }
    }

    /// Runs a forward pass and returns a freshly allocated value store.
    ///
    /// # Errors
    ///
    /// See [`ExecPlan::run_into`].
    pub fn run(
        &self,
        feeds: &[(&str, Tensor)],
        interceptor: &mut dyn Interceptor,
    ) -> Result<Values, GraphError> {
        let mut values = self.buffers();
        self.run_into(&mut values, feeds, interceptor)?;
        Ok(values)
    }

    /// Runs a forward pass and returns only the value of `fetch`, using no interceptor.
    ///
    /// # Errors
    ///
    /// See [`ExecPlan::run_into`].
    pub fn run_simple(
        &self,
        feeds: &[(&str, Tensor)],
        fetch: NodeId,
    ) -> Result<Tensor, GraphError> {
        let values = self.run(feeds, &mut NoopInterceptor)?;
        values.get(fetch).cloned()
    }

    /// The output dimensions of `id` as recorded by [`ExecPlan::warm`], or `None` if the
    /// plan has not been warmed (or the node produced no value).
    pub fn output_dims(&self, id: NodeId) -> Option<&[usize]> {
        self.shapes
            .get()
            .and_then(|shapes| shapes.get(id.index()))
            .and_then(|dims| dims.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::builder::GraphBuilder;
    use crate::exec::{Executor, OpOutput, RecordingInterceptor};
    use crate::graph::Node;
    use crate::op::Op;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> (Graph, NodeId) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 4, 6, &mut rng);
        let h = b.relu(h);
        let y = b.dense(h, 6, 2, &mut rng);
        (b.into_graph(), y)
    }

    #[test]
    fn plan_matches_executor_bit_for_bit() {
        let (graph, y) = toy();
        let plan = graph.compile().unwrap();
        let exec = Executor::new(&graph);
        for i in 0..5 {
            let input = Tensor::filled(vec![1, 4], 0.3 * i as f32);
            let a = exec.run_simple(&[("x", input.clone())], y).unwrap();
            let b = plan.run_simple(&[("x", input)], y).unwrap();
            assert_eq!(a, b, "plan output must equal executor output exactly");
        }
    }

    #[test]
    fn run_into_reuses_the_store_across_passes() {
        let (graph, y) = toy();
        let plan = graph.compile().unwrap();
        let mut values = plan.buffers();
        let mut outputs = Vec::new();
        for i in 0..3 {
            let input = Tensor::filled(vec![1, 4], i as f32);
            plan.run_into(&mut values, &[("x", input)], &mut NoopInterceptor)
                .unwrap();
            outputs.push(values.get(y).unwrap().clone());
        }
        // Stale values from earlier passes must not leak into later ones.
        assert_ne!(outputs[0], outputs[1]);
        let exec = Executor::new(&graph);
        let fresh = exec
            .run_simple(&[("x", Tensor::filled(vec![1, 4], 2.0))], y)
            .unwrap();
        assert_eq!(outputs[2], fresh);
    }

    #[test]
    fn interceptor_order_matches_executor() {
        let (graph, y) = toy();
        let plan = graph.compile().unwrap();
        let exec = Executor::new(&graph);
        let input = Tensor::ones(vec![1, 4]);
        let mut rec_plan = RecordingInterceptor::default();
        let mut rec_exec = RecordingInterceptor::default();
        plan.run(&[("x", input.clone())], &mut rec_plan).unwrap();
        exec.run_with(&[("x", input)], y, &mut rec_exec).unwrap();
        let ids =
            |r: &RecordingInterceptor| r.outputs.iter().map(|(id, _)| *id).collect::<Vec<_>>();
        assert_eq!(ids(&rec_plan), ids(&rec_exec));

        // On a fixed-point plan the recorder reads the words through `to_f32`, which must
        // agree with the lazy mirror the store serves after the pass.
        let fixed = graph.compile_with(BackendKind::Fixed16.backend()).unwrap();
        let mut rec_fixed = RecordingInterceptor::default();
        let values = fixed
            .run(&[("x", Tensor::ones(vec![1, 4]))], &mut rec_fixed)
            .unwrap();
        assert_eq!(ids(&rec_fixed), ids(&rec_exec));
        for (id, seen) in &rec_fixed.outputs {
            assert_eq!(values.get(*id).unwrap(), seen, "node {id:?}");
        }
    }

    #[test]
    fn interceptor_corruption_propagates_under_the_plan() {
        struct Corrupt;
        impl Interceptor for Corrupt {
            fn after_op(&mut self, node: &Node, output: OpOutput<'_>, _rows: TileRows) {
                if let (OpOutput::F32(output), Op::Relu) = (output, &node.op) {
                    output.data_mut()[0] = 77.0;
                }
            }
        }
        let (graph, _) = toy();
        let relu = graph
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Op::Relu))
            .unwrap()
            .id;
        let plan = graph.compile().unwrap();
        let values = plan
            .run(&[("x", Tensor::ones(vec![1, 4]))], &mut Corrupt)
            .unwrap();
        assert_eq!(values.get(relu).unwrap().data()[0], 77.0);
    }

    #[test]
    fn output_shapes_are_recorded_by_warming() {
        let (graph, y) = toy();
        let plan = graph.compile().unwrap();
        // Plain runs never record shapes — single-shot executions skip the bookkeeping.
        plan.run_simple(&[("x", Tensor::ones(vec![1, 4]))], y)
            .unwrap();
        assert!(plan.output_dims(y).is_none(), "no shapes before warming");
        plan.warm(&[("x", Tensor::ones(vec![1, 4]))]).unwrap();
        assert_eq!(plan.output_dims(y), Some(&[1usize, 2][..]));
        // Warming twice is a no-op.
        plan.warm(&[("x", Tensor::ones(vec![1, 4]))]).unwrap();
        assert_eq!(plan.order().len(), graph.len());
    }

    /// One test (not several) because it toggles the process-global enable flag:
    /// graph tests run in parallel, and a sibling test observing the flag
    /// mid-toggle would be racy.
    #[test]
    fn timing_slots_follow_the_metrics_enable_state() {
        let was_enabled = ranger_obs::enabled();

        // Warmed while disabled: no slots, no timing.
        if !was_enabled {
            let (graph, y) = toy();
            let plan = graph.compile().unwrap();
            plan.warm(&[("x", Tensor::ones(vec![1, 4]))]).unwrap();
            plan.run_simple(&[("x", Tensor::ones(vec![1, 4]))], y)
                .unwrap();
            assert_eq!(plan.timed_passes(), 0);
            assert_eq!(plan.node_nanos(y), None);
        }

        let (graph, y) = toy();
        let plan = graph.compile().unwrap();
        ranger_obs::set_enabled(true);
        plan.warm(&[("x", Tensor::ones(vec![1, 4]))]).unwrap();
        let mut values = plan.buffers();
        for _ in 0..2 {
            plan.run_into(
                &mut values,
                &[("x", Tensor::ones(vec![1, 4]))],
                &mut NoopInterceptor,
            )
            .unwrap();
        }
        // warm() itself ran one pass before the slots existed; only the two
        // explicit passes are timed.
        assert_eq!(plan.timed_passes(), 2);
        assert!(plan.node_nanos(y).is_some());

        // Publishing drains the slots into per-kind registry counters. Deltas, not
        // absolutes: the registry is process-global and other tests share it.
        let registry = ranger_obs::registry();
        let calls_before = registry.counter("plan.op.MatMul.calls").value();
        plan.publish_timings();
        // toy() has two dense layers = two MatMul nodes, each called twice.
        assert_eq!(
            registry.counter("plan.op.MatMul.calls").value() - calls_before,
            4
        );
        assert_eq!(plan.timed_passes(), 0, "publishing drains the slots");
        // Publishing again adds nothing.
        plan.publish_timings();
        assert_eq!(
            registry.counter("plan.op.MatMul.calls").value() - calls_before,
            4
        );
        ranger_obs::set_enabled(was_enabled);
    }

    /// A conv stack with a batch barrier in the middle of the carrying chain: input →
    /// conv → relu → pool → flatten → dense → softmax. Exercises Whole steps (input,
    /// constants, softmax), one real segment, and materialization of the segment
    /// output the softmax consumes.
    fn conv_net() -> (Graph, NodeId) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let c = b.conv2d(x, 2, 3, 3, 1, crate::op::Padding::Same, &mut rng);
        let c = b.relu(c);
        let p = b.max_pool(c, 2, 2);
        let f = b.flatten(p);
        let h = b.dense(f, 3 * 3 * 3, 8, &mut rng);
        let h = b.tanh(h);
        let y = b.dense(h, 8, 4, &mut rng);
        let probs = b.softmax(y);
        (b.into_graph(), probs)
    }

    #[test]
    fn tiled_schedule_partitions_around_barriers_and_constants() {
        let (graph, probs) = conv_net();
        let plan = graph.compile().unwrap();
        let schedule = plan.tiled_schedule(&[probs]);
        assert!(
            schedule.segments() >= 1,
            "the conv chain must form a segment"
        );
        // The softmax node is a barrier: it must sit in a Whole step.
        for step in schedule.steps() {
            if let TileStep::Segment(seg) = step {
                for &id in &seg.nodes {
                    assert!(
                        !matches!(
                            graph.node(id).unwrap().op,
                            Op::Softmax | Op::Const | Op::Input
                        ),
                        "barriers and non-carrying nodes must not tile"
                    );
                }
                assert_eq!(seg.nodes.len(), seg.materialize.len());
            }
        }
        // Scheduling is deterministic.
        assert_eq!(schedule, plan.tiled_schedule(&[probs]));
    }

    #[test]
    fn tiled_pass_matches_untiled_bit_for_bit_across_backends_and_tile_sizes() {
        use crate::backend::BackendKind;
        let (graph, probs) = conv_net();
        let feed: Vec<f32> = (0..6 * 2 * 6 * 6)
            .map(|i| (i as f32 * 0.13).sin())
            .collect();
        let feeds = [("x", Tensor::from_vec(vec![6, 2, 6, 6], feed).unwrap())];
        for kind in BackendKind::all() {
            let plan = graph.compile_with(kind.backend()).unwrap();
            let untiled = plan.run(&feeds, &mut NoopInterceptor).unwrap();
            let schedule = plan.tiled_schedule(&[probs]);
            assert!(schedule.segments() >= 1);
            // Tile sizes spanning single-row, uneven tail, exact divisor and >= batch.
            for tile_rows in [1usize, 2, 4, 6, 9] {
                let mut values = plan.buffers();
                plan.run_tiled_into(
                    &mut values,
                    &feeds,
                    &mut NoopInterceptor,
                    &schedule,
                    tile_rows,
                )
                .unwrap();
                let (a, b) = (untiled.get(probs).unwrap(), values.get(probs).unwrap());
                assert_eq!(a.dims(), b.dims());
                let (ab, bb): (Vec<u32>, Vec<u32>) = (
                    a.data().iter().map(|v| v.to_bits()).collect(),
                    b.data().iter().map(|v| v.to_bits()).collect(),
                );
                assert_eq!(ab, bb, "{kind:?} tile_rows={tile_rows} diverged");
            }
        }
    }

    #[test]
    fn tiled_pass_reuses_buffers_and_keeps_interior_scratch_unreadable() {
        let (graph, probs) = conv_net();
        let plan = graph.compile().unwrap();
        let feeds = [("x", Tensor::ones(vec![4, 2, 6, 6]))];
        plan.warm(&feeds).unwrap();
        let schedule = plan.tiled_schedule(&[probs]);
        let relu = graph
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Op::Relu))
            .unwrap()
            .id;
        let mut values = plan.buffers();
        for _ in 0..3 {
            plan.run_tiled_into(&mut values, &feeds, &mut NoopInterceptor, &schedule, 2)
                .unwrap();
            // probs (whole-step) and the kept output are readable...
            assert_eq!(values.get(probs).unwrap().dims(), &[4, 4]);
            // ... but interior segment scratch (the relu, consumed only by the pool in
            // the same segment) is not a full-batch value after the pass.
            assert!(
                values.get(relu).is_err(),
                "interior segment outputs must not be readable post-pass"
            );
            // An untiled pass through the same store restores full readability.
            plan.run_into(&mut values, &feeds, &mut NoopInterceptor)
                .unwrap();
            assert_eq!(values.get(relu).unwrap().dims(), &[4, 3, 6, 6]);
            // One row group covering the batch is the untiled pass: the interior relu
            // is evaluated whole and stays readable.
            plan.run_tiled_into(&mut values, &feeds, &mut NoopInterceptor, &schedule, 4)
                .unwrap();
            assert_eq!(values.get(probs).unwrap().dims(), &[4, 4]);
            assert_eq!(values.get(relu).unwrap().dims(), &[4, 3, 6, 6]);
        }

        // The hook carries each output's row window: at 3 rows of a batch of 8, every
        // segment node sees the three groups in order; whole-step nodes see the batch.
        struct Windows(Vec<(NodeId, TileRows)>);
        impl Interceptor for Windows {
            fn after_op(&mut self, node: &Node, _output: OpOutput<'_>, rows: TileRows) {
                self.0.push((node.id, rows));
            }
        }
        let mut windows = Windows(Vec::new());
        let batch8 = [("x", Tensor::ones(vec![8, 2, 6, 6]))];
        plan.run_tiled_into(&mut plan.buffers(), &batch8, &mut windows, &schedule, 3)
            .unwrap();
        let group = |row_start, rows| TileRows {
            row_start,
            rows,
            total_rows: 8,
        };
        for step in schedule.steps() {
            let (nodes, expected) = match step {
                TileStep::Whole(nodes) => (nodes, vec![TileRows::WHOLE]),
                TileStep::Segment(seg) => (&seg.nodes, vec![group(0, 3), group(3, 3), group(6, 2)]),
            };
            for &id in nodes
                .iter()
                .filter(|id| graph.node(**id).unwrap().op.is_injectable())
            {
                let seen: Vec<TileRows> = windows
                    .0
                    .iter()
                    .filter(|(n, _)| *n == id)
                    .map(|(_, r)| *r)
                    .collect();
                assert_eq!(seen, expected, "node {id:?}");
            }
        }
        assert!(windows.0.contains(&(relu, group(6, 2))));
    }

    #[test]
    fn derive_tile_rows_scales_with_the_budget() {
        let (graph, probs) = conv_net();
        let plan = graph.compile().unwrap();
        let schedule = plan.tiled_schedule(&[probs]);
        // Unwarmed: nothing to size against.
        assert_eq!(
            plan.derive_tile_rows(&schedule, DEFAULT_TILE_BUDGET_BYTES),
            1
        );
        plan.warm(&[("x", Tensor::ones(vec![4, 2, 6, 6]))]).unwrap();
        let small = plan.derive_tile_rows(&schedule, 1);
        let big = plan.derive_tile_rows(&schedule, usize::MAX / 2);
        assert_eq!(small, 1, "a tiny budget still yields one row");
        assert!(big >= small, "a bigger budget never shrinks the group");
        assert!(big > 1, "an effectively unbounded budget allows many rows");
    }

    #[test]
    fn compile_rejects_cyclic_graphs() {
        let mut g = Graph::new();
        let x = g.add_input("x");
        let a = g.add_node("a", Op::Identity, vec![x]);
        let b = g.add_node("b", Op::Identity, vec![a]);
        g.rewire_input(a, x, b).unwrap();
        assert!(matches!(g.compile(), Err(GraphError::CyclicGraph)));
    }

    #[test]
    fn missing_feed_error_is_preserved() {
        let (graph, y) = toy();
        let plan = graph.compile().unwrap();
        assert!(matches!(
            plan.run_simple(&[], y),
            Err(GraphError::MissingFeed(_))
        ));
    }
}
