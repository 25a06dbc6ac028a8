//! Property-based integration tests of Ranger's core invariants across crates.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use ranger::bounds::{profile_bounds, ActivationBounds, BoundsConfig};
use ranger::transform::{apply_ranger, RangerConfig};
use ranger_graph::exec::NoopInterceptor;
use ranger_graph::{Executor, GraphBuilder, Op};
use ranger_tensor::{DataType, Tensor};

/// Builds a small random MLP with the given hidden width and returns (graph, output node).
fn mlp(hidden: usize, seed: u64) -> (ranger_graph::Graph, ranger_graph::NodeId) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let x = b.input("x");
    let h = b.dense(x, 4, hidden, &mut rng);
    let h = b.relu(h);
    let h = b.dense(h, hidden, hidden, &mut rng);
    let h = b.relu(h);
    let y = b.dense(h, hidden, 3, &mut rng);
    (b.into_graph(), y)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The Ranger transformation never changes fault-free outputs, for any random network
    /// and input, because the profiling bound covers every value observed in profiling and
    /// the same inputs are replayed.
    #[test]
    fn transformation_preserves_fault_free_outputs(
        hidden in 2usize..10,
        seed in 0u64..50,
        scale in 0.1f32..3.0f32,
    ) {
        let (graph, y) = mlp(hidden, seed);
        let samples: Vec<Tensor> = (0..6)
            .map(|i| Tensor::filled(vec![1, 4], scale * (i as f32 + 1.0) / 6.0))
            .collect();
        let bounds = profile_bounds(&graph, "x", &samples, &BoundsConfig::default()).unwrap();
        let (protected, _) = apply_ranger(&graph, &bounds, &RangerConfig::default()).unwrap();
        let exec = Executor::new(&graph);
        let exec_p = Executor::new(&protected);
        for s in &samples {
            let a = exec.run_simple(&[("x", s.clone())], y).unwrap();
            let b = exec_p.run_simple(&[("x", s.clone())], y).unwrap();
            prop_assert!(a.approx_eq(&b, 1e-5).unwrap());
        }
    }

    /// Every clamp inserted by Ranger carries a bound that covers the values observed at
    /// that activation during profiling (no legitimate profiled value is ever truncated).
    #[test]
    fn inserted_bounds_cover_profiled_values(hidden in 2usize..8, seed in 0u64..30) {
        let (graph, _) = mlp(hidden, seed);
        let samples: Vec<Tensor> = (0..5)
            .map(|i| Tensor::filled(vec![1, 4], 0.3 * i as f32))
            .collect();
        let bounds = profile_bounds(&graph, "x", &samples, &BoundsConfig::default()).unwrap();
        let exec = Executor::new(&graph);
        for s in &samples {
            let values = exec.run(&[("x", s.clone())], &mut NoopInterceptor).unwrap();
            for (node, (lo, hi)) in bounds.iter() {
                let v = values.get(node).unwrap();
                prop_assert!(v.max() <= hi + 1e-6);
                prop_assert!(v.min() >= lo - 1e-6);
            }
        }
    }

    /// With Ranger in place, any single bit flip injected *at a protected activation*
    /// results in downstream values that respect the restriction bound.
    #[test]
    fn protected_activation_output_is_always_within_bounds(
        hidden in 2usize..8,
        seed in 0u64..30,
        bit in 0u32..32,
        element in 0usize..4,
    ) {
        let (graph, _) = mlp(hidden, seed);
        let samples: Vec<Tensor> = (0..4)
            .map(|i| Tensor::filled(vec![1, 4], 0.5 * (i as f32 + 1.0)))
            .collect();
        let bounds = profile_bounds(&graph, "x", &samples, &BoundsConfig::default()).unwrap();
        let (protected, _) = apply_ranger(&graph, &bounds, &RangerConfig::default()).unwrap();

        // Pick the first protected ReLU and its clamp in the protected graph.
        let relu = protected
            .nodes()
            .iter()
            .find(|n| matches!(n.op, Op::Relu))
            .unwrap()
            .id;
        let clamp = protected
            .consumers(relu)
            .into_iter()
            .find(|&c| matches!(protected.node(c).unwrap().op, Op::Clamp { .. }))
            .unwrap();
        let (lo, hi) = match protected.node(clamp).unwrap().op {
            Op::Clamp { lo, hi } => (lo, hi),
            _ => unreachable!(),
        };

        // Corrupt one element of the ReLU output with a bit flip and check the clamp
        // output stays within the restriction bound.
        struct Corrupt {
            node: ranger_graph::NodeId,
            element: usize,
            bit: u32,
        }
        impl ranger_graph::Interceptor for Corrupt {
            fn after_op(
                &mut self,
                node: &ranger_graph::Node,
                output: ranger_graph::OpOutput<'_>,
                _rows: ranger_graph::TileRows,
            ) {
                let ranger_graph::OpOutput::F32(output) = output else {
                    return;
                };
                if node.id == self.node && self.element < output.len() {
                    let dt = DataType::fixed32();
                    output.data_mut()[self.element] = dt.flip_bit(output.data()[self.element], self.bit);
                }
            }
        }
        let exec = Executor::new(&protected);
        let mut interceptor = Corrupt { node: relu, element, bit };
        let clamp_out = exec
            .run_with(&[("x", samples[1].clone())], clamp, &mut interceptor)
            .unwrap();
        prop_assert!(clamp_out.max() <= hi + 1e-6);
        prop_assert!(clamp_out.min() >= lo - 1e-6);
    }

    /// Tighter percentile bounds never exceed the conservative maximum bounds.
    #[test]
    fn percentile_bounds_are_monotone(hidden in 2usize..8, seed in 0u64..20) {
        let (graph, _) = mlp(hidden, seed);
        let samples: Vec<Tensor> = (0..10)
            .map(|i| Tensor::filled(vec![1, 4], 0.2 * i as f32))
            .collect();
        let full = profile_bounds(&graph, "x", &samples, &BoundsConfig::default()).unwrap();
        let tight = profile_bounds(&graph, "x", &samples, &BoundsConfig::with_percentile(95.0)).unwrap();
        for (node, (_, hi_full)) in full.iter() {
            let (_, hi_tight) = tight.get(node).unwrap();
            prop_assert!(hi_tight <= hi_full + 1e-6);
        }
    }
}

/// A non-proptest sanity check: manual bounds that exclude an activation leave that
/// activation unprotected while others still receive clamps.
#[test]
fn partial_bounds_protect_only_known_activations() {
    let (graph, _) = mlp(4, 0);
    let relus: Vec<_> = graph
        .nodes()
        .iter()
        .filter(|n| matches!(n.op, Op::Relu))
        .map(|n| n.id)
        .collect();
    assert_eq!(relus.len(), 2);
    let mut bounds = ActivationBounds::new();
    bounds.set(relus[0], 0.0, 1.0);
    let (protected, stats) = apply_ranger(&graph, &bounds, &RangerConfig::default()).unwrap();
    assert_eq!(stats.activations_protected, 1);
    assert!(protected
        .consumers(relus[1])
        .iter()
        .all(|&c| !matches!(protected.node(c).unwrap().op, Op::Clamp { .. })));
}
