//! The injection state space: which values a transient fault may corrupt.

use crate::InjectionTarget;
use rand::Rng;
use ranger_graph::exec::{Executor, Interceptor};
use ranger_graph::{ExecPlan, GraphError, Node, NodeId, OpOutput, TileRows};
use ranger_tensor::{FixedSpec, Tensor};

/// One concrete place a fault can strike: an element of an operator's output tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionSite {
    /// The operator whose output is corrupted.
    pub node: NodeId,
    /// The flat element index within that output tensor.
    pub element: usize,
}

/// The set of all injectable values of a model on a given input, weighted by element
/// count.
///
/// The paper injects faults "into the output values of operators in the graph", i.e. the
/// probability that a given operator is hit is proportional to the number of values it
/// produces (its share of the state space). The space is computed from one profiling run
/// because output shapes are only known at execution time.
#[derive(Debug, Clone)]
pub struct InjectionSpace {
    sites: Vec<(NodeId, usize)>,
    total: usize,
    /// The integer word layout of the profiled values when the space was built on a
    /// fixed-point backend: faults drawn from this space strike raw words of this format.
    spec: Option<FixedSpec>,
}

struct SizeRecorder<'a> {
    excluded: &'a [NodeId],
    sites: Vec<(NodeId, usize)>,
}

impl Interceptor for SizeRecorder<'_> {
    fn after_op(&mut self, node: &Node, output: OpOutput<'_>, _rows: TileRows) {
        if !self.excluded.contains(&node.id) {
            self.sites.push((node.id, output.len()));
        }
    }
}

impl InjectionSpace {
    /// Profiles `target` on `input` with the `f32` reference executor and builds the
    /// injection space.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if the profiling forward pass fails.
    pub fn build(target: &InjectionTarget<'_>, input: &Tensor) -> Result<Self, GraphError> {
        let mut recorder = SizeRecorder {
            excluded: target.excluded,
            sites: Vec::new(),
        };
        let exec = Executor::new(target.graph);
        exec.run(&[(target.input_name, input.clone())], &mut recorder)?;
        Ok(Self::from_recorder(recorder, None))
    }

    /// Profiles `target` on `input` through an already-compiled plan, so the space
    /// reflects the tensors the plan's backend actually materializes — on a fixed-point
    /// backend that means the raw integer words faults will strike, and the space records
    /// their [word layout](InjectionSpace::word_layout).
    ///
    /// (Operator output *element counts* are backend-independent, so spaces built on any
    /// backend weight operators identically and seeded fault plans stay comparable across
    /// backends.)
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if the profiling forward pass fails.
    pub fn build_on(
        plan: &ExecPlan<'_>,
        target: &InjectionTarget<'_>,
        input: &Tensor,
    ) -> Result<Self, GraphError> {
        let mut recorder = SizeRecorder {
            excluded: target.excluded,
            sites: Vec::new(),
        };
        plan.run(&[(target.input_name, input.clone())], &mut recorder)?;
        Ok(Self::from_recorder(recorder, plan.backend().spec()))
    }

    fn from_recorder(recorder: SizeRecorder<'_>, spec: Option<FixedSpec>) -> Self {
        let total = recorder.sites.iter().map(|(_, n)| n).sum();
        InjectionSpace {
            sites: recorder.sites,
            total,
            spec,
        }
    }

    /// Total number of injectable values (the state space size).
    pub fn total_values(&self) -> usize {
        self.total
    }

    /// The fixed-point word layout of the injectable values, when the space was profiled
    /// on a fixed-point backend ([`InjectionSpace::build_on`]); `None` when the values
    /// are `f32` tensors.
    pub fn word_layout(&self) -> Option<FixedSpec> {
        self.spec
    }

    /// Number of injectable operators.
    pub fn operator_count(&self) -> usize {
        self.sites.len()
    }

    /// Returns the number of injectable values produced by `node`, if it is injectable.
    pub fn values_of(&self, node: NodeId) -> Option<usize> {
        self.sites
            .iter()
            .find(|(id, _)| *id == node)
            .map(|(_, n)| *n)
    }

    /// Samples an injection site uniformly over the state space (operators weighted by the
    /// number of values they produce).
    ///
    /// # Panics
    ///
    /// Panics if the space is empty.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> InjectionSite {
        assert!(
            self.total > 0,
            "cannot sample from an empty injection space"
        );
        let mut pick = rng.gen_range(0..self.total);
        for &(node, count) in &self.sites {
            if pick < count {
                return InjectionSite {
                    node,
                    element: pick,
                };
            }
            pick -= count;
        }
        unreachable!("sample index must fall inside one of the operators")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use ranger_graph::GraphBuilder;

    fn toy_target() -> (ranger_graph::Graph, NodeId, NodeId) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let h = b.dense(x, 4, 6, &mut rng);
        let h = b.relu(h);
        let y = b.dense(h, 6, 2, &mut rng);
        let relu_node = h;
        (b.into_graph(), y, relu_node)
    }

    #[test]
    fn space_counts_operator_outputs() {
        let (graph, y, _) = toy_target();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: y,
            excluded: &[],
        };
        let space = InjectionSpace::build(&target, &Tensor::ones(vec![1, 4])).unwrap();
        // Operators: fc1 MatMul (6), fc1 BiasAdd (6), Relu (6), fc2 MatMul (2), fc2 BiasAdd (2).
        assert_eq!(space.operator_count(), 5);
        assert_eq!(space.total_values(), 6 + 6 + 6 + 2 + 2);
    }

    #[test]
    fn excluded_nodes_are_not_in_the_space() {
        let (graph, y, _) = toy_target();
        let excluded = vec![y];
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: y,
            excluded: &excluded,
        };
        let space = InjectionSpace::build(&target, &Tensor::ones(vec![1, 4])).unwrap();
        assert_eq!(space.values_of(y), None);
        assert_eq!(space.operator_count(), 4);
    }

    #[test]
    fn sampling_covers_operators_in_proportion() {
        let (graph, y, relu) = toy_target();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: y,
            excluded: &[],
        };
        let space = InjectionSpace::build(&target, &Tensor::ones(vec![1, 4])).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut relu_hits = 0usize;
        let n = 4000;
        for _ in 0..n {
            let site = space.sample(&mut rng);
            assert!(site.element < space.values_of(site.node).unwrap());
            if site.node == relu {
                relu_hits += 1;
            }
        }
        // The ReLU holds 6/22 of the state space; allow a generous tolerance.
        let fraction = relu_hits as f64 / n as f64;
        assert!(
            (fraction - 6.0 / 22.0).abs() < 0.05,
            "fraction was {fraction}"
        );
    }

    #[test]
    #[should_panic(expected = "empty injection space")]
    fn sampling_empty_space_panics() {
        let space = InjectionSpace {
            sites: Vec::new(),
            total: 0,
            spec: None,
        };
        let mut rng = StdRng::seed_from_u64(0);
        space.sample(&mut rng);
    }

    /// Spaces built on a fixed-point plan weight operators identically to the reference
    /// space (element counts are backend-independent) and record the word layout faults
    /// will strike.
    #[test]
    fn plan_built_space_matches_reference_and_records_layout() {
        use ranger_graph::BackendKind;
        let (graph, y, _) = toy_target();
        let target = InjectionTarget {
            graph: &graph,
            input_name: "x",
            output: y,
            excluded: &[],
        };
        let input = Tensor::ones(vec![1, 4]);
        let reference = InjectionSpace::build(&target, &input).unwrap();
        assert_eq!(reference.word_layout(), None);
        for kind in [BackendKind::F32, BackendKind::Fixed16, BackendKind::Fixed32] {
            let plan = graph.compile_with(kind.backend()).unwrap();
            let space = InjectionSpace::build_on(&plan, &target, &input).unwrap();
            assert_eq!(space.total_values(), reference.total_values(), "{kind}");
            assert_eq!(space.operator_count(), reference.operator_count(), "{kind}");
            assert_eq!(space.word_layout(), kind.spec(), "{kind}");
        }
    }
}
