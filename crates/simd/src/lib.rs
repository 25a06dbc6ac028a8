//! Runtime-dispatched SIMD `f32` kernels with **order-preserving accumulation**.
//!
//! This crate is the vector half of the workspace's `SimdBackend`
//! (`ranger_graph::backend::SimdBackend`): portable kernel bodies for the three hot
//! operators — 2-D convolution, matmul and the three-pass stable softmax — written once
//! against the [`SimdF32`] lane abstraction and evaluated at runtime against the widest
//! instruction set the host offers (AVX-512 → AVX2+FMA → NEON → scalar fallback, the
//! ladder [`SimdTier`] names).
//!
//! # The bit-for-bit contract
//!
//! Fault-injection campaigns are pinned by *exact* SDC counts, so these kernels are not
//! allowed to change a single output bit relative to the scalar reference kernels in
//! `ranger-graph`/`ranger-tensor`. That rules out the classic SIMD strategy of
//! vectorizing the reduction dimension (which re-associates the `f32` sum) and rules out
//! FMA (which fuses the multiply's rounding step away). Instead every kernel here
//! vectorizes across **independent output lanes** — vector element `j` accumulates
//! output element `j` and nothing else, starting from `+0.0` (the reference's
//! zero-filled output) with a separate multiply and add per partial product — so each
//! output element sees *exactly* the partial products of the scalar kernel, in the same
//! order, with the same two rounding steps each. Which outputs share a vector, and how
//! many vectors stay in registers at once, is free; the per-element order is not:
//!
//! * **conv2d** puts **output channels** in the lanes: the filter is repacked
//!   `[ic][ky][kx][oc]`, so one vector load fetches a tap's weights for `LANES` channels
//!   while the tap's input value is broadcast, and a block of output positions keeps its
//!   accumulators in registers across the whole `(ic, ky, kx)` reduction. Channels of
//!   one position read the same taps, so lanes never disagree about which taps are
//!   valid: the output plane splits into rectangles that share one in-bounds tap window,
//!   and padded taps are **skipped** exactly as the reference skips them. (Adding them
//!   as zero products would not be exact: `0 × ±inf` is NaN, and `-0.0 + +0.0` is
//!   `+0.0`.) Each output element therefore takes its partial products in the
//!   reference's `(ic, ky, kx)` order, whatever the stride.
//! * **matmul** holds one output row's accumulators in registers across the whole `p`
//!   reduction (masked loads and one masked store cover a row tail narrower than a
//!   vector) and keeps `Tensor::matmul_into`'s `a == 0.0` skip, which is a *semantic*
//!   property (skipped products never round): each output element takes `a * b` in `p`
//!   order, exactly as in the reference's `(i, p, j)` nest.
//! * **softmax** is three passes: a vectorized max pass (reduction over `max`, which is
//!   associative up to the sign of zero — and the sign of the row max provably cannot
//!   change a softmax output, since `x - (+0.0)` and `x - (-0.0)` differ only at
//!   `x == -0.0` where both subtractions feed `exp` a zero and `exp(±0) = 1.0` exactly),
//!   a **scalar** `exp`-and-sum pass kept verbatim from the reference (transcendental
//!   bit parity, and the `denom` sum order is preserved), and a vectorized divide pass
//!   (IEEE division is correctly rounded, so lane width cannot change it).
//!
//! The dispatch ladder itself is the [`SimdOp`] trait: one generic `eval` body,
//! monomorphized inside per-tier `#[target_feature]` wrappers so LLVM compiles the
//! inlined lane ops with the tier's instruction set enabled. `RANGER_SIMD_FORCE` pins
//! the tier for differential testing (e.g. `RANGER_SIMD_FORCE=scalar` keeps the fallback
//! honest on AVX-512 hosts); see [`active_tier`].
//!
//! One caveat bounds the claim: **NaN payloads**. IEEE 754 leaves the payload of a NaN
//! produced by combining NaN operands unspecified, and LLVM does not pin `fadd`/`fmul`
//! operand order for payload propagation — two *scalar* builds of the same kernel may
//! already disagree in NaN payload bits. The contract is therefore: every non-NaN
//! output is bit-for-bit equal, and a NaN output is NaN on both sides (any payload).
//! No judged quantity can see the difference — comparisons against NaN are false
//! regardless of payload, so argmax/SDC verdicts are payload-insensitive.
//!
//! The proof that all of this holds is external: `tests/backend_differential.rs` at the
//! workspace root fuzzes every kernel against the scalar reference over full-range
//! operands (subnormals, ±0, infinities, NaN) and asserts bit equality under that
//! contract.

#![warn(missing_docs)]

mod dispatch;
mod kernels;
mod vec;

pub use dispatch::{active_tier, detected_tier, dispatch, SimdOp, SimdTier};
pub use kernels::{conv2d, kernels, matmul, softmax, Conv2dShape, Kernels};
pub use vec::SimdF32;
