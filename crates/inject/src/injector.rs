//! The interceptor that corrupts operator outputs during a forward pass.

use crate::fault::FaultModel;
use crate::space::{InjectionSite, InjectionSpace};
use rand::Rng;
use ranger_graph::{Interceptor, Node, NodeId, OpOutput, TileRows};
use ranger_tensor::{DataType, QTensor, Tensor};

/// One planned corruption: a site plus the bit to flip there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFlip {
    /// Where the flip strikes.
    pub site: InjectionSite,
    /// Which bit of the datatype representation is flipped (0 = least significant).
    pub bit: u32,
}

/// An [`Interceptor`] that applies a set of planned bit flips during one forward pass.
///
/// The injector is constructed per trial (one plan per execution, matching the paper's
/// "at most one fault occurs per program execution" assumption — a multi-bit plan is still
/// a single transient fault event).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    fault: FaultModel,
    plan: Vec<PlannedFlip>,
    injected: Vec<PlannedFlip>,
}

impl FaultInjector {
    /// Creates an injector that applies exactly the given flips.
    pub fn with_plan(fault: FaultModel, plan: Vec<PlannedFlip>) -> Self {
        FaultInjector {
            fault,
            plan,
            injected: Vec::new(),
        }
    }

    /// Plans a random fault according to `fault`: each of the `fault.bits` flips picks an
    /// independent site in `space` and an independent bit position.
    pub fn plan_random<R: Rng + ?Sized>(
        fault: FaultModel,
        space: &InjectionSpace,
        rng: &mut R,
    ) -> Self {
        let plan = (0..fault.bits)
            .map(|_| PlannedFlip {
                site: space.sample(rng),
                bit: rng.gen_range(0..fault.datatype.bit_width()),
            })
            .collect();
        Self::with_plan(fault, plan)
    }

    /// The flips this injector will apply.
    pub fn plan(&self) -> &[PlannedFlip] {
        &self.plan
    }

    /// The flips that were actually applied during the last execution.
    pub fn injected(&self) -> &[PlannedFlip] {
        &self.injected
    }

    /// Returns `true` if every planned flip was applied (i.e. each targeted operator was
    /// executed and its output was large enough).
    pub fn fully_injected(&self) -> bool {
        self.injected.len() == self.plan.len()
    }

    /// Nodes targeted by this plan.
    pub fn targeted_nodes(&self) -> Vec<NodeId> {
        self.plan.iter().map(|f| f.site.node).collect()
    }

    /// Applies this plan's flips at `node` to the row window `rows` of its output.
    fn inject(&mut self, node: &Node, output: &mut impl FlipTarget, rows: TileRows) {
        for flip in &self.plan {
            if flip.site.node == node.id
                && flip_in_window(output, rows, flip.site.element, self.fault, flip.bit)
            {
                self.injected.push(*flip);
            }
        }
    }
}

/// An operator output a planned flip can land in: `f32` values or fixed-point words.
trait FlipTarget {
    fn len(&self) -> usize;
    /// Flips `bit` of element `index` as `fault` prescribes.
    fn flip(&mut self, index: usize, fault: FaultModel, bit: u32);
}

impl FlipTarget for Tensor {
    fn len(&self) -> usize {
        Tensor::len(self)
    }

    fn flip(&mut self, index: usize, fault: FaultModel, bit: u32) {
        let corrupted = fault.datatype.flip_bit(self.data()[index], bit);
        self.data_mut()[index] = corrupted;
    }
}

/// The datatype rule of [`FaultInjector`] on words: a matching word format flips the
/// stored word, anything else round-trips through `f32`.
impl FlipTarget for QTensor {
    fn len(&self) -> usize {
        QTensor::len(self)
    }

    fn flip(&mut self, index: usize, fault: FaultModel, bit: u32) {
        if fault.datatype == DataType::Fixed(self.spec()) {
            self.flip_word(index, bit);
        } else {
            let corrupted = fault.datatype.flip_bit(self.get_f32(index), bit);
            self.set_from_f32(index, corrupted);
        }
    }
}

/// The number of elements of the whole-batch output that `output` holds the row window
/// `rows` of.
fn whole_len(output: &impl FlipTarget, rows: TileRows) -> usize {
    output.len() / rows.rows.max(1) * rows.total_rows
}

/// The one flip routine behind both injectors: flips `bit` of element `global` of
/// a whole-batch output, of which `output` holds the row window `rows`. Returns whether
/// the element lies inside the window (and so was flipped). Row groups partition the
/// batch, so across the groups of one pass every in-range element is flipped exactly
/// once, wherever the group boundaries fall.
fn flip_in_window(
    output: &mut impl FlipTarget,
    rows: TileRows,
    global: usize,
    fault: FaultModel,
    bit: u32,
) -> bool {
    let base = rows.row_start * (output.len() / rows.rows.max(1));
    let inside = global < whole_len(output, rows) && (base..base + output.len()).contains(&global);
    if inside {
        output.flip(global - base, fault, bit);
    }
    inside
}

impl Interceptor for FaultInjector {
    /// The plan's element coordinates address the **whole** batched output, so each flip
    /// lands in exactly the row group that owns its element — whatever the tile size,
    /// every planned element is flipped exactly once per pass, which is what pins tiled
    /// and untiled passes bit-for-bit.
    ///
    /// On a fixed-point backend whose word format matches the fault model's datatype,
    /// the planned bits flip **directly in the stored integer words** — no
    /// encode → flip → decode round trip, so the corruption is exact even for
    /// magnitudes `f32` cannot represent. A mismatched datatype (only reachable through
    /// hand-built configurations; campaigns reject the pairing up front) falls back to
    /// flipping the dequantized value under the fault's own datatype and requantizing.
    fn after_op(&mut self, node: &Node, output: OpOutput<'_>, rows: TileRows) {
        match output {
            OpOutput::F32(tensor) => self.inject(node, tensor, rows),
            OpOutput::Words(words) => self.inject(node, words, rows),
        }
    }
}

/// An [`Interceptor`] that applies one [`FaultInjector`] plan per row group of a batched
/// forward pass.
///
/// A batched campaign replicates one input `k` times along the leading batch dimension
/// and runs all `k` trials in a single forward pass; trial `t` owns rows
/// `[t * rows_per_trial, (t + 1) * rows_per_trial)` of every operator output. Because the
/// operators process batch rows independently, flipping a bit inside trial `t`'s rows
/// corrupts exactly the values the same plan would corrupt in a single-sample pass — the
/// per-trial outputs (and therefore the SDC counts) are bit-for-bit identical. A
/// one-trial injector over the unreplicated input is the per-sample pass: campaigns at
/// `batch = 1` run every trial through one.
///
/// The equivalence requires the targeted operator's output to carry the batch dimension.
/// The injector checks each targeted output against the single-sample size recorded in
/// the [`InjectionSpace`] the plans were drawn from; an operator whose output does not
/// scale (e.g. one computed purely from constants) is never silently mis-injected —
/// instead [`BatchFaultInjector::violation`] reports it after the pass, and the campaign
/// runner turns that into an error.
#[derive(Debug, Clone)]
pub struct BatchFaultInjector<'s> {
    trials: Vec<FaultInjector>,
    space: &'s InjectionSpace,
    violation: Option<String>,
    /// Every trial's planned flips as `(node index, trial, plan index)`, sorted by
    /// node. The interceptor hook fires once per operator — and once per (operator,
    /// row group) under tiling — so scanning every trial's whole plan inside each
    /// call is O(trials × nodes × row groups) per pass; with this index a call is a
    /// binary search plus exactly the flips that target its operator. Sorted by
    /// `(node, trial, plan index)`, the index visits a node's flips in the same
    /// trial-major order the scan did, so injection order — and therefore every
    /// count — is unchanged.
    flips_by_node: Vec<(usize, usize, usize)>,
}

impl<'s> BatchFaultInjector<'s> {
    /// Creates a batched injector applying `trials[t]` to row group `t`. `space` is the
    /// injection space the trial plans were drawn from; it provides each operator's
    /// single-sample output size.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is empty.
    pub fn new(trials: Vec<FaultInjector>, space: &'s InjectionSpace) -> Self {
        assert!(
            !trials.is_empty(),
            "a batched injector needs at least one trial"
        );
        let mut flips_by_node: Vec<(usize, usize, usize)> = trials
            .iter()
            .enumerate()
            .flat_map(|(t, injector)| {
                injector
                    .plan
                    .iter()
                    .enumerate()
                    .map(move |(f, flip)| (flip.site.node.index(), t, f))
            })
            .collect();
        flips_by_node.sort_unstable();
        BatchFaultInjector {
            trials,
            space,
            violation: None,
            flips_by_node,
        }
    }

    /// The indices into `flips_by_node` whose flips target `node`.
    fn flips_of(&self, node: NodeId) -> std::ops::Range<usize> {
        let idx = node.index();
        let start = self.flips_by_node.partition_point(|&(n, _, _)| n < idx);
        let end = start + self.flips_by_node[start..].partition_point(|&(n, _, _)| n == idx);
        start..end
    }

    /// The per-trial injectors, in row-group order (borrow after the pass to read each
    /// trial's [`FaultInjector::injected`] record).
    pub fn trials(&self) -> &[FaultInjector] {
        &self.trials
    }

    /// If a planned flip targeted an operator whose output did not carry the batch
    /// dimension, describes the first such operator; `None` after a clean pass.
    pub fn violation(&self) -> Option<&str> {
        self.violation.as_deref()
    }

    /// Validates that `node`'s batched output scales with the trial count and returns the
    /// per-trial slice length; records the violation (once) and returns `None` otherwise.
    fn checked_per_trial(&mut self, node: &Node, output_len: usize) -> Option<usize> {
        let k = self.trials.len();
        let per_trial = self.space.values_of(node.id).unwrap_or(output_len / k);
        if output_len != per_trial * k {
            if self.violation.is_none() {
                self.violation = Some(format!(
                    "operator '{}' produced {} values under a batch of {k} trials \
                     (expected {}): its output does not carry the batch dimension, \
                     so its faults cannot be batched — run this campaign with \
                     batch = 1",
                    node.name,
                    output_len,
                    per_trial * k
                ));
            }
            return None;
        }
        Some(per_trial)
    }

    /// Applies every trial's flips at `node` to the row window `rows` of its output.
    /// The per-trial slice length is the operator's single-sample output size, as
    /// recorded in the injection space the plans were sampled from (for hand-built
    /// plans targeting nodes outside the space, the even split is the only guess).
    fn inject(&mut self, node: &Node, output: &mut impl FlipTarget, rows: TileRows) {
        let full_len = whole_len(output, rows);
        for k in self.flips_of(node.id) {
            let (_, t, f) = self.flips_by_node[k];
            let flip = self.trials[t].plan[f];
            let Some(per_trial) = self.checked_per_trial(node, full_len) else {
                continue;
            };
            let injector = &mut self.trials[t];
            if flip.site.element < per_trial
                && flip_in_window(
                    output,
                    rows,
                    t * per_trial + flip.site.element,
                    injector.fault,
                    flip.bit,
                )
            {
                injector.injected.push(flip);
            }
        }
    }
}

impl Interceptor for BatchFaultInjector<'_> {
    /// Trial `t` owns elements `[t * per_trial, (t + 1) * per_trial)` of the **whole**
    /// batched output; a row group covers a contiguous element range of it, and a
    /// planned flip fires iff its global index falls inside the current group. No
    /// alignment between tile boundaries and trial boundaries is required. On words,
    /// each trial's bits flip in its own rows under [`FaultInjector`]'s datatype rule,
    /// with the same batch-scaling violation check.
    fn after_op(&mut self, node: &Node, output: OpOutput<'_>, rows: TileRows) {
        match output {
            OpOutput::F32(tensor) => self.inject(node, tensor, rows),
            OpOutput::Words(words) => self.inject(node, words, rows),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InjectionTarget;
    use rand::{rngs::StdRng, SeedableRng};
    use ranger_graph::{Executor, GraphBuilder};

    fn toy() -> (ranger_graph::Graph, NodeId) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 3, 4, &mut rng);
        let h = b.relu(h);
        let y = b.dense(h, 4, 2, &mut rng);
        (b.into_graph(), y)
    }

    #[test]
    fn planned_flip_changes_exactly_one_value_path() {
        let (graph, y) = toy();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: y,
            excluded: &[],
        };
        let input = Tensor::ones(vec![1, 3]);
        let exec = Executor::new(&graph);
        let golden = exec.run_simple(&[("x", input.clone())], y).unwrap();

        let space = InjectionSpace::build(&target, &input).unwrap();
        assert!(space.total_values() > 0);
        let fault = FaultModel::single_bit_fixed32();
        // Flip a high-order bit of the final dense layer's output: the corruption cannot
        // be masked by a downstream ReLU, so the output must deviate substantially.
        let site = InjectionSite {
            node: y,
            element: 0,
        };
        let mut injector = FaultInjector::with_plan(fault, vec![PlannedFlip { site, bit: 29 }]);
        let faulty = exec.run_with(&[("x", input)], y, &mut injector).unwrap();
        assert!(injector.fully_injected());
        assert_eq!(injector.injected().len(), 1);
        let deviation = golden.max_abs_diff(&faulty).unwrap();
        assert!(
            deviation > 1.0,
            "high-order flip should propagate, deviation {deviation}"
        );
    }

    #[test]
    fn plan_random_respects_bit_width_and_count() {
        let (graph, y) = toy();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: y,
            excluded: &[],
        };
        let input = Tensor::ones(vec![1, 3]);
        let space = InjectionSpace::build(&target, &input).unwrap();
        let fault = FaultModel {
            datatype: ranger_tensor::DataType::fixed16(),
            bits: 3,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let injector = FaultInjector::plan_random(fault, &space, &mut rng);
        assert_eq!(injector.plan().len(), 3);
        for flip in injector.plan() {
            assert!(flip.bit < 16);
        }
        assert_eq!(injector.targeted_nodes().len(), 3);
    }

    #[test]
    fn batched_trials_match_single_sample_passes_bit_for_bit() {
        let (graph, y) = toy();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: y,
            excluded: &[],
        };
        let input = Tensor::ones(vec![1, 3]);
        let space = InjectionSpace::build(&target, &input).unwrap();
        let fault = FaultModel::single_bit_fixed32();
        let mut rng = StdRng::seed_from_u64(5);
        let trials: Vec<FaultInjector> = (0..3)
            .map(|_| FaultInjector::plan_random(fault, &space, &mut rng))
            .collect();

        let exec = Executor::new(&graph);
        // Reference: each trial as its own single-sample pass.
        let singles: Vec<Tensor> = trials
            .iter()
            .map(|injector| {
                let mut injector = injector.clone();
                exec.run_with(&[("x", input.clone())], y, &mut injector)
                    .unwrap()
            })
            .collect();

        // Batched: all three trials in one [3, ...] pass.
        let feed = input.repeat_batch(3).unwrap();
        let mut batched = BatchFaultInjector::new(trials, &space);
        let out = exec.run_with(&[("x", feed)], y, &mut batched).unwrap();
        for (t, single) in singles.iter().enumerate() {
            assert_eq!(
                out.batch_row(t).unwrap(),
                *single,
                "trial {t} diverged between the batched and single-sample pass"
            );
        }
        assert!(batched.trials().iter().all(FaultInjector::fully_injected));
        assert!(batched.violation().is_none());
    }

    /// An injectable operator computed purely from constants produces the same output
    /// length whatever the batch size; targeting it in a batched pass must be flagged,
    /// never silently mis-injected.
    #[test]
    fn non_batch_scaling_targets_are_flagged_not_silently_diverged() {
        use ranger_graph::{Graph, Op};
        let mut g = Graph::new();
        let x = g.add_input("x");
        let c = g.add_const("c", Tensor::ones(vec![6]), false);
        let frozen = g.add_node("frozen", Op::Identity, vec![c]);
        let y = g.add_node("double", Op::ScalarMul { factor: 2.0 }, vec![x]);

        let target = InjectionTarget {
            graph: &g,
            input_name: "x",
            output: y,
            excluded: &[],
        };
        let input = Tensor::ones(vec![1, 3]);
        let space = InjectionSpace::build(&target, &input).unwrap();
        assert_eq!(space.values_of(frozen), Some(6));

        let fault = FaultModel::single_bit_fixed32();
        let flip = PlannedFlip {
            site: InjectionSite {
                node: frozen,
                element: 0,
            },
            bit: 1,
        };
        let trials = vec![FaultInjector::with_plan(fault, vec![flip]); 2];
        let mut batched = BatchFaultInjector::new(trials, &space);
        let feed = input.repeat_batch(2).unwrap();
        Executor::new(&g)
            .run_with(&[("x", feed)], y, &mut batched)
            .unwrap();
        let violation = batched.violation().expect("violation must be flagged");
        assert!(violation.contains("frozen") && violation.contains("batch dimension"));
        // The frozen constant was never corrupted.
        assert!(batched.trials().iter().all(|t| t.injected().is_empty()));
    }

    /// On a fixed-point backend the injector flips stored words; the lazily decoded f32
    /// mirror served by `Values::get` must always reflect the flip — over repeated
    /// passes through one arena, with mirrors decoded between passes (the campaign
    /// runner's exact read pattern).
    #[test]
    fn word_flips_dirty_the_lazy_mirror() {
        use ranger_graph::BackendKind;
        let (graph, y) = toy();
        let fault = FaultModel {
            datatype: ranger_tensor::DataType::fixed16(),
            bits: 1,
        };
        let site = InjectionSite {
            node: y,
            element: 0,
        };
        let plan = graph.compile_with(BackendKind::Fixed16.backend()).unwrap();
        let mut values = plan.buffers();
        let feeds = [("x", Tensor::ones(vec![1, 3]))];
        // Golden pass, mirror decoded.
        plan.run_into(
            &mut values,
            &feeds,
            &mut ranger_graph::exec::NoopInterceptor,
        )
        .unwrap();
        let golden = values.get(y).unwrap().clone();
        for bit in [1u32, 13] {
            let mut injector = FaultInjector::with_plan(fault, vec![PlannedFlip { site, bit }]);
            plan.run_into(&mut values, &feeds, &mut injector).unwrap();
            assert!(injector.fully_injected());
            let faulty = values.get(y).unwrap();
            assert_ne!(faulty, &golden, "bit {bit}: flip must reach the mirror");
            assert_eq!(
                &values.get_q(y).unwrap().dequantize(),
                faulty,
                "bit {bit}: mirror and stored words diverged"
            );
            // A clean pass through the same arena restores the golden mirror.
            plan.run_into(
                &mut values,
                &feeds,
                &mut ranger_graph::exec::NoopInterceptor,
            )
            .unwrap();
            assert_eq!(values.get(y).unwrap(), &golden, "bit {bit}");
        }
    }

    /// The tiled bit-for-bit discipline at the injector level: the same batched plans,
    /// run through the tiled scheduler at several tile sizes (including a non-divisor
    /// and one larger than the batch), corrupt exactly the same elements as the untiled
    /// batched pass — on the f32 reference and on a fixed-point backend's words.
    #[test]
    fn batched_tiled_passes_match_untiled_at_every_tile_size() {
        use ranger_graph::BackendKind;
        let (graph, y) = toy();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: y,
            excluded: &[],
        };
        let input = Tensor::ones(vec![1, 3]);
        let space = InjectionSpace::build(&target, &input).unwrap();
        for kind in [BackendKind::F32, BackendKind::Fixed16] {
            let fault = match kind {
                BackendKind::Fixed16 => FaultModel {
                    datatype: ranger_tensor::DataType::fixed16(),
                    bits: 1,
                },
                _ => FaultModel::single_bit_fixed32(),
            };
            let mut rng = StdRng::seed_from_u64(9);
            let trials: Vec<FaultInjector> = (0..4)
                .map(|_| FaultInjector::plan_random(fault, &space, &mut rng))
                .collect();
            let plan = graph.compile_with(kind.backend()).unwrap();
            let feeds = [("x", input.repeat_batch(4).unwrap())];
            let mut untiled = BatchFaultInjector::new(trials.clone(), &space);
            let golden = plan.run(&feeds, &mut untiled).unwrap();
            let golden_out = golden.get(y).unwrap();
            assert!(untiled.trials().iter().all(FaultInjector::fully_injected));

            let schedule = plan.tiled_schedule(&[y]);
            assert!(schedule.segments() >= 1);
            for tile_rows in [1usize, 2, 3, 7] {
                let mut tiled = BatchFaultInjector::new(trials.clone(), &space);
                let mut values = plan.buffers();
                plan.run_tiled_into(&mut values, &feeds, &mut tiled, &schedule, tile_rows)
                    .unwrap();
                assert!(
                    tiled.trials().iter().all(FaultInjector::fully_injected),
                    "{kind:?} tile_rows={tile_rows}: every flip must land exactly once"
                );
                assert!(tiled.violation().is_none());
                let out = values.get(y).unwrap();
                let (a, b): (Vec<u32>, Vec<u32>) = (
                    golden_out.data().iter().map(|v| v.to_bits()).collect(),
                    out.data().iter().map(|v| v.to_bits()).collect(),
                );
                assert_eq!(a, b, "{kind:?} tile_rows={tile_rows} diverged");
            }
        }
    }

    #[test]
    fn flips_outside_output_bounds_are_skipped() {
        let (graph, y) = toy();
        let fault = FaultModel::single_bit_fixed32();
        let mut injector = FaultInjector::with_plan(
            fault,
            vec![PlannedFlip {
                site: InjectionSite {
                    node: y,
                    element: 999,
                },
                bit: 1,
            }],
        );
        let exec = Executor::new(&graph);
        let input = Tensor::ones(vec![1, 3]);
        let out = exec.run_with(&[("x", input)], y, &mut injector).unwrap();
        assert!(!injector.fully_injected());
        assert!(!out.has_non_finite());
    }
}
