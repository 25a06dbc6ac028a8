//! The three ported kernel bodies: register-blocked conv2d and matmul, three-pass
//! softmax.
//!
//! Each body gives every output element its scalar reference's partial products in the
//! reference's order (see the [crate docs](crate) for why that makes the vectorization
//! bit-preserving); the only freedom taken is *which independent output elements* one
//! instruction covers and how long their accumulators stay in registers. Shape
//! validation stays in `ranger-graph` — these entry points assert the slice contracts
//! they need for memory safety, and every index the bodies form stays inside those
//! slices for any geometry that passes them.

use crate::dispatch::{SimdOp, SimdTier};
use crate::vec::{maxps, SimdF32};
use std::cell::RefCell;
use std::sync::OnceLock;

/// Validated conv2d geometry, mirroring `ranger-graph`'s `Conv2dGeometry` (NCHW
/// activations `(batch, cin, height, width)`, OIHW filters `(cout, cin, kh, kw)`).
#[derive(Debug, Clone, Copy)]
pub struct Conv2dShape {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub cin: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Output channels (filter count).
    pub cout: usize,
    /// Filter height.
    pub kh: usize,
    /// Filter width.
    pub kw: usize,
    /// Stride (both spatial dimensions).
    pub stride: usize,
    /// Leading padding rows.
    pub pad_h: usize,
    /// Leading padding columns.
    pub pad_w: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

/// Output positions one conv2d block holds accumulators for: four independent add
/// chains cover the add latency while leaving vector registers for the filter vector and
/// the broadcasts on every tier (AVX2 has sixteen).
const CONV_POSITIONS: usize = 4;

/// Column vectors one matmul row block holds accumulators for.
const MATMUL_VECTORS: usize = 4;

thread_local! {
    /// The calling thread's repacked conv2d filter (see [`Conv2dOp`]), kept so
    /// steady-state passes reuse its allocation.
    static PACKED_FILTER: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The filter taps `lo..hi` along one axis that read inside the input for output
/// coordinate `o` — tap `t` is valid iff `0 <= o * stride + t - pad < len`, the
/// reference's skip rule — or an empty range when the whole window lies in the padding.
#[inline(always)]
fn tap_range(o: usize, stride: usize, pad: usize, k: usize, len: usize) -> (usize, usize) {
    let start = (o * stride) as isize - pad as isize;
    let lo = (-start).clamp(0, k as isize);
    let hi = (len as isize - start).clamp(lo, k as isize);
    (lo as usize, hi as usize)
}

/// Maximal runs of consecutive output coordinates along one axis that share one
/// [`tap_range`], as `(o_start, o_end, tap_lo, tap_hi)`.
struct TapRuns {
    o: usize,
    end: usize,
    stride: usize,
    pad: usize,
    k: usize,
    len: usize,
}

impl TapRuns {
    fn new(end: usize, stride: usize, pad: usize, k: usize, len: usize) -> Self {
        TapRuns {
            o: 0,
            end,
            stride,
            pad,
            k,
            len,
        }
    }
}

impl Iterator for TapRuns {
    type Item = (usize, usize, usize, usize);

    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        if self.o >= self.end {
            return None;
        }
        let start = self.o;
        let taps = tap_range(start, self.stride, self.pad, self.k, self.len);
        self.o += 1;
        while self.o < self.end
            && tap_range(self.o, self.stride, self.pad, self.k, self.len) == taps
        {
            self.o += 1;
        }
        Some((start, self.o, taps.0, taps.1))
    }
}

/// A rectangle of output positions with columns `ox0..ox1` that all read the same
/// non-empty tap window `ky0..ky0 + rows` × `kx0..kx0 + cols`.
#[derive(Clone, Copy)]
struct ConvCell {
    ox0: usize,
    ox1: usize,
    ky0: usize,
    kx0: usize,
    rows: usize,
    cols: usize,
}

/// Computes the `P` positions of `cell` from `at = (oy, ox)` on (row-major inside the
/// cell) for one vector of output channels, writes the `valid` real channels of each,
/// and returns the position after them.
///
/// Each accumulator starts at `+0.0` — the reference's zero-filled output — and takes
/// one multiply and one add per tap in `(ic, ky, kx)` order, so every output element
/// rounds through exactly the reference's steps. `x` is the image's input base, `w` the
/// packed filter at tap `(0, ky0, kx0)` of the channel vector, `out` the output plane of
/// the vector's first channel.
///
/// # Safety
///
/// `V`'s tier must be available, the cell must hold `P` positions from `at` on, its
/// window must be valid for all its positions, and the pointers must address buffers of
/// the geometry `g` (with the filter packed `ocp` channels wide).
#[inline(always)]
unsafe fn conv_block<V: SimdF32, const P: usize>(
    g: &Conv2dShape,
    ocp: usize,
    cell: &ConvCell,
    (mut oy, mut ox): (usize, usize),
    x: *const f32,
    w: *const f32,
    (out, valid): (*mut f32, usize),
) -> (usize, usize) {
    let mut xs = [x; P];
    let mut at = [0usize; P];
    for p in 0..P {
        at[p] = oy * g.out_w + ox;
        // The window's first tap reads inside the input for every cell position.
        let iy = oy * g.stride + cell.ky0 - g.pad_h;
        let ix = ox * g.stride + cell.kx0 - g.pad_w;
        xs[p] = x.add(iy * g.width + ix);
        ox += 1;
        if ox == cell.ox1 {
            (oy, ox) = (oy + 1, cell.ox0);
        }
    }
    let plane = g.height * g.width;
    let mut acc = [V::splat(0.0); P];
    for ic in 0..g.cin {
        for ky in 0..cell.rows {
            let xo = ic * plane + ky * g.width;
            let wrow = w.add((ic * g.kh + ky) * g.kw * ocp);
            for kx in 0..cell.cols {
                let wv = V::load(wrow.add(kx * ocp));
                for p in 0..P {
                    acc[p] = acc[p].add(V::splat(*xs[p].add(xo + kx)).mul(wv));
                }
            }
        }
    }
    let plane_out = g.out_h * g.out_w;
    const { assert!(V::LANES <= 16, "the lane buffer holds at most 16 lanes") };
    let mut lanes = [0.0f32; 16];
    for p in 0..P {
        acc[p].store(lanes.as_mut_ptr());
        for (c, &v) in lanes[..valid].iter().enumerate() {
            *out.add(c * plane_out + at[p]) = v;
        }
    }
    (oy, ox)
}

/// 2-D convolution with vector lanes over output channels.
///
/// The filter is repacked `[ic][ky][kx][oc]`, zero-padded to whole vectors, into the
/// thread's reused `packed` buffer, so one vector load fetches a tap's weights for
/// `LANES` output channels while the tap's input value is broadcast. The output plane
/// splits into rectangles whose positions share one in-bounds tap window (the interior,
/// and each border band the padding clips), so padded taps are skipped exactly — never
/// added as zero products, which would turn `0 × ±inf` into NaN and `-0.0` into `+0.0` —
/// and every block of [`CONV_POSITIONS`] positions keeps its accumulators in registers
/// across the whole `(ic, ky, kx)` reduction. Strided convs take the same loop: a tap
/// reads one scalar per position whatever the stride.
struct Conv2dOp<'a> {
    x: &'a [f32],
    w: &'a [f32],
    out: &'a mut [f32],
    shape: Conv2dShape,
    packed: &'a mut Vec<f32>,
}

impl SimdOp for Conv2dOp<'_> {
    type Output = ();

    #[inline(always)]
    unsafe fn eval<V: SimdF32>(&mut self) {
        let g = self.shape;
        let taps = g.cin * g.kh * g.kw;
        let ocp = g.cout.div_ceil(V::LANES) * V::LANES;
        self.packed.clear();
        self.packed.resize(taps * ocp, 0.0);
        for (t, lanes) in self.packed.chunks_exact_mut(ocp.max(1)).enumerate() {
            for (lane, &v) in lanes.iter_mut().zip(self.w[t..].iter().step_by(taps)) {
                *lane = v;
            }
        }

        // Every pointer below stays inside its slice for any geometry whose lengths
        // `Kernels::conv2d` accepted: `tap_range` admits only taps that read inside the
        // input, positions stay inside the output plane, and the packed filter holds
        // `ocp` lanes per tap.
        let plane_out = g.out_h * g.out_w;
        for b in 0..g.batch {
            let x = self.x.as_ptr().add(b * g.cin * g.height * g.width);
            for ocb in (0..g.cout).step_by(V::LANES) {
                let valid = V::LANES.min(g.cout - ocb);
                let out = self.out.as_mut_ptr().add((b * g.cout + ocb) * plane_out);
                let rows = TapRuns::new(g.out_h, g.stride, g.pad_h, g.kh, g.height);
                for (oy0, oy1, ky0, ky1) in rows {
                    let cols = TapRuns::new(g.out_w, g.stride, g.pad_w, g.kw, g.width);
                    for (ox0, ox1, kx0, kx1) in cols {
                        if ky0 == ky1 || kx0 == kx1 {
                            // The whole window lies in the padding: no tap contributes
                            // and the output keeps the reference's +0.0.
                            for c in 0..valid {
                                for oy in oy0..oy1 {
                                    let row = c * plane_out + oy * g.out_w;
                                    for ox in ox0..ox1 {
                                        *out.add(row + ox) = 0.0;
                                    }
                                }
                            }
                            continue;
                        }
                        let cell = ConvCell {
                            ox0,
                            ox1,
                            ky0,
                            kx0,
                            rows: ky1 - ky0,
                            cols: kx1 - kx0,
                        };
                        let w = self.packed.as_ptr().add((ky0 * g.kw + kx0) * ocp + ocb);
                        let o = (out, valid);
                        let mut left = (oy1 - oy0) * (ox1 - ox0);
                        let mut at = (oy0, ox0);
                        while left >= CONV_POSITIONS {
                            at = conv_block::<V, CONV_POSITIONS>(&g, ocp, &cell, at, x, w, o);
                            left -= CONV_POSITIONS;
                        }
                        // The cell's last `left < CONV_POSITIONS` positions.
                        match left {
                            3 => _ = conv_block::<V, 3>(&g, ocp, &cell, at, x, w, o),
                            2 => _ = conv_block::<V, 2>(&g, ocp, &cell, at, x, w, o),
                            1 => _ = conv_block::<V, 1>(&g, ocp, &cell, at, x, w, o),
                            _ => {}
                        }
                    }
                }
            }
        }
    }
}

/// Runtime-dispatched 2-D convolution, bit-for-bit equal to
/// `ranger_graph::ops::conv2d_forward_into`.
///
/// Every element of `out` is written.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `shape` — geometry validation belongs to
/// the caller; these checks only guard memory safety.
pub fn conv2d(x: &[f32], w: &[f32], shape: &Conv2dShape, out: &mut [f32]) {
    kernels().conv2d(x, w, shape, out);
}

/// Accumulates `R` whole column vectors of one output row over every `p` — skipping
/// `a == 0.0` exactly as the reference does — in registers, then stores them once.
///
/// # Safety
///
/// `V`'s tier must be available; `b` addresses column `j` of row 0 of a `k × n` matrix
/// (`k == arow.len()`) with `j + R * LANES <= n`, and `out` has `R * LANES` writable
/// values.
#[inline(always)]
unsafe fn matmul_vectors<V: SimdF32, const R: usize>(
    arow: &[f32],
    b: *const f32,
    n: usize,
    out: *mut f32,
) {
    let mut acc = [V::splat(0.0); R];
    for (p, &a) in arow.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let av = V::splat(a);
        let brow = b.add(p * n);
        for (r, acc) in acc.iter_mut().enumerate() {
            *acc = acc.add(av.mul(V::load(brow.add(r * V::LANES))));
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        acc.store(out.add(r * V::LANES));
    }
}

/// [`matmul_vectors`] for the row's last `tail < LANES` columns: masked loads and one
/// masked store, with the accumulator held in a register across `p`.
///
/// # Safety
///
/// As for [`matmul_vectors`], with `j + tail <= n` and `tail` writable values at `out`.
#[inline(always)]
unsafe fn matmul_tail<V: SimdF32>(
    arow: &[f32],
    b: *const f32,
    n: usize,
    out: *mut f32,
    tail: usize,
) {
    let mut acc = V::splat(0.0);
    for (p, &a) in arow.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        acc = acc.add(V::splat(a).mul(V::load_partial(b.add(p * n), tail)));
    }
    acc.store_partial(out, tail);
}

/// Matrix multiplication with one output row's accumulators held in registers across
/// the whole `p` reduction: each output element starts at `+0.0` and takes `a * b` for
/// every `p` with `a != 0.0`, in `p` order — the `(i, p, j)` nest of
/// `Tensor::matmul_into`, whose `a == 0.0` skip is semantic (skipped products never
/// round, and sparse post-ReLU rows keep their exact shortcut).
struct MatMulOp<'a> {
    a: &'a [f32],
    b: &'a [f32],
    out: &'a mut [f32],
    m: usize,
    k: usize,
    n: usize,
}

impl SimdOp for MatMulOp<'_> {
    type Output = ();

    #[inline(always)]
    unsafe fn eval<V: SimdF32>(&mut self) {
        let (k, n) = (self.k, self.n);
        let tail = n % V::LANES;
        let full = n - tail;
        let b = self.b.as_ptr();
        for i in 0..self.m {
            let arow = &self.a[i * k..(i + 1) * k];
            let orow = self.out.as_mut_ptr().add(i * n);
            let mut j = 0;
            while j + MATMUL_VECTORS * V::LANES <= full {
                matmul_vectors::<V, MATMUL_VECTORS>(arow, b.add(j), n, orow.add(j));
                j += MATMUL_VECTORS * V::LANES;
            }
            while j < full {
                matmul_vectors::<V, 1>(arow, b.add(j), n, orow.add(j));
                j += V::LANES;
            }
            if tail > 0 {
                matmul_tail::<V>(arow, b.add(full), n, orow.add(full), tail);
            }
        }
    }
}

/// Runtime-dispatched matrix multiplication (`a` is `m×k`, `b` is `k×n`), bit-for-bit
/// equal to `Tensor::matmul_into`.
///
/// Every element of `out` is written.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`/`k`/`n`.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    kernels().matmul(a, b, m, k, n, out);
}

struct SoftmaxOp<'a> {
    x: &'a [f32],
    out: &'a mut [f32],
    rows: usize,
    row_len: usize,
}

impl SimdOp for SoftmaxOp<'_> {
    type Output = ();

    #[inline(always)]
    unsafe fn eval<V: SimdF32>(&mut self) {
        let last = self.row_len;
        for r in 0..self.rows {
            let row = &self.x[r * last..(r + 1) * last];
            let orow = &mut self.out[r * last..(r + 1) * last];

            // Pass 1 — vectorized max. Folding new elements in as the NaN-dropping
            // operand mirrors the reference's NaN-ignoring `f32::max` fold; the only
            // freedom is the sign of a ±0.0 maximum, which cannot change any softmax
            // output (crate docs).
            let mut max = f32::NEG_INFINITY;
            let mut i = 0;
            if last >= V::LANES {
                let mut acc = V::splat(f32::NEG_INFINITY);
                while i + V::LANES <= last {
                    acc = V::load(row.as_ptr().add(i)).max(acc);
                    i += V::LANES;
                }
                max = acc.reduce_max();
            }
            while i < last {
                max = maxps(*row.get_unchecked(i), max);
                i += 1;
            }

            // Pass 2 — scalar exp-and-sum, verbatim from the reference: `exp` keeps
            // transcendental bit parity and `denom` accumulates in element order.
            let mut denom = 0.0f32;
            for (o, &v) in orow.iter_mut().zip(row) {
                let e = (v - max).exp();
                *o = e;
                denom += e;
            }

            // Pass 3 — vectorized normalize: IEEE division is correctly rounded, so
            // each lane divides exactly like the scalar `*o /= denom`.
            let dv = V::splat(denom);
            let mut i = 0;
            while i + V::LANES <= last {
                let ov = V::load(orow.as_ptr().add(i));
                ov.div(dv).store(orow.as_mut_ptr().add(i));
                i += V::LANES;
            }
            while i < last {
                *orow.get_unchecked_mut(i) /= denom;
                i += 1;
            }
        }
    }
}

/// Runtime-dispatched three-pass stable softmax over rows of length `row_len`,
/// bit-for-bit equal to `ranger_graph::ops::softmax_forward_into`.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `rows * row_len`.
pub fn softmax(x: &[f32], rows: usize, row_len: usize, out: &mut [f32]) {
    kernels().softmax(x, rows, row_len, out);
}

// ---- Resolved kernel table -----------------------------------------------------------

type Conv2dFn = fn(&[f32], &[f32], &Conv2dShape, &mut [f32]);
type MatMulFn = fn(&[f32], &[f32], usize, usize, usize, &mut [f32]);
type SoftmaxFn = fn(&[f32], usize, usize, &mut [f32]);

/// The three kernel entry points resolved to one tier.
///
/// [`kernels`] builds this table once per process from the active tier: each entry is a
/// monomorphic function compiled inside that tier's `#[target_feature]` wrapper, so a
/// kernel call costs one indirect call instead of walking the tier `match` on every
/// invocation — the per-call dispatch overhead that showed up on deep, narrow graphs
/// where each kernel does little work. The free functions [`conv2d`], [`matmul`] and
/// [`softmax`] call through the table; [`dispatch`](crate::dispatch::dispatch) remains
/// the seam for custom [`SimdOp`] implementations.
pub struct Kernels {
    conv2d: Conv2dFn,
    matmul: MatMulFn,
    softmax: SoftmaxFn,
}

impl Kernels {
    /// Tier-resolved [`conv2d`] (same contract and panics).
    #[inline]
    pub fn conv2d(&self, x: &[f32], w: &[f32], shape: &Conv2dShape, out: &mut [f32]) {
        let g = *shape;
        assert_eq!(x.len(), g.batch * g.cin * g.height * g.width);
        assert_eq!(w.len(), g.cout * g.cin * g.kh * g.kw);
        assert_eq!(out.len(), g.batch * g.cout * g.out_h * g.out_w);
        assert!(g.stride > 0, "conv2d stride must be positive");
        (self.conv2d)(x, w, shape, out);
    }

    /// Tier-resolved [`matmul`] (same contract and panics).
    #[inline]
    pub fn matmul(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        assert_eq!(a.len(), m * k);
        assert_eq!(b.len(), k * n);
        assert_eq!(out.len(), m * n);
        (self.matmul)(a, b, m, k, n, out);
    }

    /// Tier-resolved [`softmax`] (same contract and panics).
    #[inline]
    pub fn softmax(&self, x: &[f32], rows: usize, row_len: usize, out: &mut [f32]) {
        assert_eq!(x.len(), rows * row_len);
        assert_eq!(out.len(), rows * row_len);
        (self.softmax)(x, rows, row_len, out);
    }
}

/// Generates one tier's monomorphic entry points. The modules are private and a tier is
/// installed into the table only after `active_tier` has verified it is executable on
/// this CPU, so the `unsafe` blocks cannot be reached for a foreign tier.
macro_rules! tier_entries {
    ($name:ident, $eval:path) => {
        mod $name {
            use super::{Conv2dOp, Conv2dShape, MatMulOp, SoftmaxOp, PACKED_FILTER};

            pub fn conv2d(x: &[f32], w: &[f32], shape: &Conv2dShape, out: &mut [f32]) {
                PACKED_FILTER.with_borrow_mut(|packed| {
                    // SAFETY: this tier was verified available before being installed.
                    unsafe {
                        $eval(&mut Conv2dOp {
                            x,
                            w,
                            out,
                            shape: *shape,
                            packed,
                        })
                    }
                })
            }

            pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
                // SAFETY: this tier was verified available before being installed.
                unsafe { $eval(&mut MatMulOp { a, b, out, m, k, n }) }
            }

            pub fn softmax(x: &[f32], rows: usize, row_len: usize, out: &mut [f32]) {
                // SAFETY: this tier was verified available before being installed.
                unsafe {
                    $eval(&mut SoftmaxOp {
                        x,
                        out,
                        rows,
                        row_len,
                    })
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
tier_entries!(avx512_entries, crate::dispatch::eval_avx512);
#[cfg(target_arch = "x86_64")]
tier_entries!(avx2_entries, crate::dispatch::eval_avx2);
#[cfg(target_arch = "aarch64")]
tier_entries!(neon_entries, crate::dispatch::eval_neon);
tier_entries!(scalar_entries, crate::dispatch::eval_scalar);

/// The process-wide kernel table, resolved from the tier ladder exactly once — the
/// dispatch tier cache: plans compiled against the SIMD backend reach these cached
/// kernel fns instead of re-matching the ladder per kernel call.
pub fn kernels() -> &'static Kernels {
    static TABLE: OnceLock<Kernels> = OnceLock::new();
    TABLE.get_or_init(|| match crate::dispatch::active_tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => Kernels {
            conv2d: avx512_entries::conv2d,
            matmul: avx512_entries::matmul,
            softmax: avx512_entries::softmax,
        },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2Fma => Kernels {
            conv2d: avx2_entries::conv2d,
            matmul: avx2_entries::matmul,
            softmax: avx2_entries::softmax,
        },
        #[cfg(target_arch = "aarch64")]
        SimdTier::Neon => Kernels {
            conv2d: neon_entries::conv2d,
            matmul: neon_entries::matmul,
            softmax: neon_entries::softmax,
        },
        _ => Kernels {
            conv2d: scalar_entries::conv2d,
            matmul: scalar_entries::matmul,
            softmax: scalar_entries::softmax,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::active_tier;
    use crate::vec::ScalarVec;

    /// SplitMix64 over raw bit patterns: full-range f32 operands (subnormals, ±0,
    /// infinities, NaN) without depending on `rand`.
    struct Bits(u64);
    impl Bits {
        fn next_f32(&mut self) -> f32 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            f32::from_bits((z ^ (z >> 31)) as u32)
        }
        fn fill(&mut self, n: usize) -> Vec<f32> {
            (0..n).map(|_| self.next_f32()).collect()
        }
        /// Raw bit patterns one time in four, an exact ±0 one time in eight (the matmul
        /// skip), ±inf one time in sixteen (so a zero product added where the reference
        /// skips one turns into NaN), and moderate magnitudes otherwise, so long
        /// reductions stay finite often enough to exercise real rounding.
        fn mixed(&mut self, n: usize) -> Vec<f32> {
            (0..n)
                .map(|_| {
                    let v = self.next_f32();
                    let raw = v.to_bits();
                    match raw % 16 {
                        0..=3 => v,
                        4 | 5 => f32::copysign(0.0, v),
                        6 => f32::copysign(f32::INFINITY, v),
                        _ => ((raw >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * 16.0,
                    }
                })
                .collect()
        }
    }

    /// The literal `(b, oc, oy, ox, ic, ky, kx)` nest that defines the conv2d
    /// reference's summation order: each output starts at `+0.0` and adds `x * w` for
    /// every tap inside the input, in order.
    fn naive_conv2d(x: &[f32], w: &[f32], g: &Conv2dShape) -> Vec<f32> {
        let mut out = vec![0.0f32; g.batch * g.cout * g.out_h * g.out_w];
        for b in 0..g.batch {
            for oc in 0..g.cout {
                for oy in 0..g.out_h {
                    for ox in 0..g.out_w {
                        let mut acc = 0.0f32;
                        for ic in 0..g.cin {
                            for ky in 0..g.kh {
                                for kx in 0..g.kw {
                                    let iy = (oy * g.stride + ky) as isize - g.pad_h as isize;
                                    let ix = (ox * g.stride + kx) as isize - g.pad_w as isize;
                                    if iy < 0
                                        || ix < 0
                                        || iy >= g.height as isize
                                        || ix >= g.width as isize
                                    {
                                        continue;
                                    }
                                    let xv = x[((b * g.cin + ic) * g.height + iy as usize)
                                        * g.width
                                        + ix as usize];
                                    acc += xv * w[((oc * g.cin + ic) * g.kh + ky) * g.kw + kx];
                                }
                            }
                        }
                        out[((b * g.cout + oc) * g.out_h + oy) * g.out_w + ox] = acc;
                    }
                }
            }
        }
        out
    }

    /// The literal `(i, j, p)` nest of the matmul reference, `a == 0.0` skip included.
    fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let av = a[i * k + p];
                    if av == 0.0 {
                        continue;
                    }
                    acc += av * b[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// A square-kernel conv geometry: `Same` padding (output `ceil(n / stride)`, the
    /// smaller half of the padding leading) when `same`, `Valid` otherwise.
    fn conv_shape(
        (batch, cin, height, width): (usize, usize, usize, usize),
        (cout, k, stride): (usize, usize, usize),
        same: bool,
    ) -> Conv2dShape {
        let (out_h, out_w, pad_h, pad_w) = if same {
            let (oh, ow) = (height.div_ceil(stride), width.div_ceil(stride));
            let pad = |o: usize, n: usize| ((o - 1) * stride + k).saturating_sub(n) / 2;
            (oh, ow, pad(oh, height), pad(ow, width))
        } else {
            ((height - k) / stride + 1, (width - k) / stride + 1, 0, 0)
        };
        Conv2dShape {
            batch,
            cin,
            height,
            width,
            cout,
            kh: k,
            kw: k,
            stride,
            pad_h,
            pad_w,
            out_h,
            out_w,
        }
    }

    /// Bit patterns with NaN canonicalized: NaN *payloads* are the one bit IEEE leaves
    /// unspecified — LLVM does not pin scalar `fadd` operand order, so two NaN partial
    /// products can merge with either payload even between two scalar builds. Every
    /// judged quantity is payload-insensitive (NaN comparisons are false regardless),
    /// so the contract is exact bits for every non-NaN value and NaN-as-a-class.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { 0x7FC0_0000 } else { x.to_bits() })
            .collect()
    }

    #[test]
    fn conv2d_identity_kernel_preserves_input() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let w = [1.0];
        let shape = Conv2dShape {
            batch: 1,
            cin: 1,
            height: 2,
            width: 2,
            cout: 1,
            kh: 1,
            kw: 1,
            stride: 1,
            pad_h: 0,
            pad_w: 0,
            out_h: 2,
            out_w: 2,
        };
        let mut out = [0.0; 4];
        conv2d(&x, &w, &shape, &mut out);
        assert_eq!(out, x);
    }

    #[test]
    fn conv2d_active_tier_matches_scalar_tier_bit_for_bit() {
        let mut rng = Bits(7);
        // Shapes chosen to cover padding, strides, vector-width remainders and the
        // kernel-wider-than-input clamp.
        for g in [
            Conv2dShape {
                batch: 2,
                cin: 3,
                height: 7,
                width: 19,
                cout: 4,
                kh: 3,
                kw: 3,
                stride: 1,
                pad_h: 1,
                pad_w: 1,
                out_h: 7,
                out_w: 19,
            },
            Conv2dShape {
                batch: 1,
                cin: 2,
                height: 9,
                width: 9,
                cout: 3,
                kh: 3,
                kw: 3,
                stride: 2,
                pad_h: 1,
                pad_w: 1,
                out_h: 5,
                out_w: 5,
            },
            Conv2dShape {
                batch: 1,
                cin: 1,
                height: 2,
                width: 2,
                cout: 1,
                kh: 7,
                kw: 7,
                stride: 2,
                pad_h: 3,
                pad_w: 3,
                out_h: 1,
                out_w: 1,
            },
            // Strided rows wide enough (out_w >= 16 lanes) that the gather path runs
            // its vector loop on every tier, with padding exercising clamped ends.
            Conv2dShape {
                batch: 1,
                cin: 2,
                height: 5,
                width: 67,
                cout: 2,
                kh: 3,
                kw: 3,
                stride: 2,
                pad_h: 1,
                pad_w: 1,
                out_h: 3,
                out_w: 34,
            },
            Conv2dShape {
                batch: 2,
                cin: 1,
                height: 4,
                width: 58,
                cout: 2,
                kh: 2,
                kw: 4,
                stride: 3,
                pad_h: 0,
                pad_w: 0,
                out_h: 1,
                out_w: 19,
            },
        ] {
            let x = rng.fill(g.batch * g.cin * g.height * g.width);
            let w = rng.fill(g.cout * g.cin * g.kh * g.kw);
            let out_len = g.batch * g.cout * g.out_h * g.out_w;
            let mut simd_out = vec![0.0f32; out_len];
            conv2d(&x, &w, &g, &mut simd_out);
            let mut scalar_out = vec![0.0f32; out_len];
            // SAFETY: the scalar body uses no vector instructions.
            unsafe {
                Conv2dOp {
                    x: &x,
                    w: &w,
                    out: &mut scalar_out,
                    shape: g,
                    packed: &mut Vec::new(),
                }
                .eval::<ScalarVec>()
            };
            assert_eq!(
                bits(&simd_out),
                bits(&scalar_out),
                "conv2d diverged from scalar on tier {} for {g:?}",
                active_tier()
            );
        }
    }

    #[test]
    fn conv2d_matches_the_naive_nest_bit_for_bit() {
        let mut rng = Bits(11);
        for (input, filter, same) in [
            // LeNet's two convs, then channel counts around one and two vectors of 8
            // and 16 lanes, strided and 1x1 convs, and a kernel wider than the input.
            ((1, 1, 14, 14), (6, 5, 1), true),
            ((2, 6, 7, 7), (16, 5, 1), false),
            ((1, 3, 9, 11), (17, 3, 1), true),
            ((2, 2, 8, 8), (33, 3, 2), true),
            ((1, 4, 10, 9), (9, 5, 2), false),
            ((1, 5, 6, 6), (7, 1, 2), false),
            ((1, 3, 5, 5), (15, 1, 1), false),
            ((3, 2, 11, 13), (8, 3, 3), true),
            ((1, 1, 2, 3), (2, 7, 2), true),
        ] {
            let g = conv_shape(input, filter, same);
            let x = rng.mixed(g.batch * g.cin * g.height * g.width);
            let w = rng.mixed(g.cout * g.cin * g.kh * g.kw);
            let mut out = vec![f32::NAN; g.batch * g.cout * g.out_h * g.out_w];
            conv2d(&x, &w, &g, &mut out);
            assert_eq!(
                bits(&out),
                bits(&naive_conv2d(&x, &w, &g)),
                "conv2d diverged from the naive nest on tier {} for {g:?}",
                active_tier()
            );
        }
    }

    #[test]
    fn matmul_matches_the_naive_nest_bit_for_bit() {
        let mut rng = Bits(13);
        for n in [1, 8, 10, 16, 17, 33, 64] {
            for (m, k) in [(1, 1), (3, 7), (4, 16)] {
                let a = rng.mixed(m * k);
                let b = rng.mixed(k * n);
                let mut out = vec![f32::NAN; m * n];
                matmul(&a, &b, m, k, n, &mut out);
                assert_eq!(
                    bits(&out),
                    bits(&naive_matmul(&a, &b, m, k, n)),
                    "matmul diverged from the naive nest on tier {} for ({m},{k},{n})",
                    active_tier()
                );
            }
        }
    }

    #[test]
    fn matmul_known_result_and_scalar_parity() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0.0; 4];
        matmul(&a, &b, 2, 2, 2, &mut out);
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);

        let mut rng = Bits(21);
        for (m, k, n) in [(1, 1, 1), (3, 5, 17), (4, 4, 8), (2, 7, 33)] {
            let a = rng.fill(m * k);
            let b = rng.fill(k * n);
            let mut simd_out = vec![0.0f32; m * n];
            matmul(&a, &b, m, k, n, &mut simd_out);
            let mut scalar_out = vec![0.0f32; m * n];
            // SAFETY: the scalar body uses no vector instructions.
            unsafe {
                MatMulOp {
                    a: &a,
                    b: &b,
                    out: &mut scalar_out,
                    m,
                    k,
                    n,
                }
                .eval::<ScalarVec>()
            };
            assert_eq!(
                bits(&simd_out),
                bits(&scalar_out),
                "matmul diverged from scalar on tier {} for ({m},{k},{n})",
                active_tier()
            );
        }
    }

    #[test]
    fn kernel_table_matches_generic_dispatch_bit_for_bit() {
        use crate::dispatch::dispatch;
        let mut rng = Bits(55);
        let (m, k, n) = (3, 5, 17);
        let a = rng.fill(m * k);
        let b = rng.fill(k * n);
        let mut table_out = vec![0.0f32; m * n];
        matmul(&a, &b, m, k, n, &mut table_out);
        let mut dispatch_out = vec![0.0f32; m * n];
        dispatch(&mut MatMulOp {
            a: &a,
            b: &b,
            out: &mut dispatch_out,
            m,
            k,
            n,
        });
        assert_eq!(
            bits(&table_out),
            bits(&dispatch_out),
            "the resolved table must evaluate on the same tier as generic dispatch"
        );
    }

    #[test]
    fn softmax_rows_normalize_and_match_scalar_bit_for_bit() {
        let x = [1.0f32, 2.0, 3.0, 4.0];
        let mut out = [0.0f32; 4];
        softmax(&x, 1, 4, &mut out);
        let sum: f32 = out.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(out.windows(2).all(|w| w[0] < w[1]));

        let mut rng = Bits(33);
        for (rows, len) in [(1, 1), (3, 10), (2, 16), (5, 23)] {
            let x = rng.fill(rows * len);
            let mut simd_out = vec![0.0f32; rows * len];
            softmax(&x, rows, len, &mut simd_out);
            let mut scalar_out = vec![0.0f32; rows * len];
            // SAFETY: the scalar body uses no vector instructions.
            unsafe {
                SoftmaxOp {
                    x: &x,
                    out: &mut scalar_out,
                    rows,
                    row_len: len,
                }
                .eval::<ScalarVec>()
            };
            assert_eq!(
                bits(&simd_out),
                bits(&scalar_out),
                "softmax diverged from scalar on tier {} for ({rows},{len})",
                active_tier()
            );
        }
    }
}
