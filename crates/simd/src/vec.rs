//! The portable `f32` lane abstraction kernels are written against.
//!
//! One implementation per dispatch tier: plain `f32` (the scalar fallback, `LANES = 1`),
//! AVX2 (`__m256`, 8 lanes), AVX-512 (`__m512`, 16 lanes) and NEON (`float32x4_t`,
//! 4 lanes). Every method is `#[inline(always)]` so a kernel body monomorphized inside a
//! `#[target_feature]` wrapper compiles to straight-line vector code — see
//! [`dispatch`](crate::dispatch).
//!
//! The semantics are deliberately minimal and exact:
//!
//! * [`add`](SimdF32::add), [`mul`](SimdF32::mul), [`div`](SimdF32::div) are lanewise
//!   IEEE-754 operations — identical rounding to the scalar `+`, `*`, `/` they replace,
//!   which is what makes output-lane vectorization bit-preserving.
//! * [`load_partial`](SimdF32::load_partial) / [`store_partial`](SimdF32::store_partial)
//!   move only the first `n` lanes (masked instructions on AVX2 and AVX-512), so a row
//!   tail narrower than a vector stays in a register instead of falling back to scalar
//!   code.
//! * [`max`](SimdF32::max) has **`MAXPS` semantics**: `if self > other { self } else
//!   { other }` per lane. The result is `other` when `self` is NaN (so folding new
//!   elements in as `self` ignores NaN exactly like `f32::max` does) and `other` on
//!   ±0.0 ties. The scalar implementation uses the literal comparison expression, so
//!   every tier agrees bit-for-bit by construction.

/// A pack of `f32` lanes wide enough for one dispatch tier.
///
/// # Safety
///
/// Every method except the scalar implementation's issues instructions from its tier's
/// instruction set: callers must only invoke them when that tier is available on the
/// running CPU (which [`dispatch`](crate::dispatch) guarantees). `load`/`store` read and
/// write `LANES` consecutive `f32`s and require the pointed-to range to be valid;
/// alignment is not required.
pub trait SimdF32: Copy {
    /// Number of `f32` lanes in one vector.
    const LANES: usize;

    /// Broadcasts one value into every lane.
    ///
    /// # Safety
    ///
    /// The implementing tier's instruction set must be available.
    unsafe fn splat(v: f32) -> Self;

    /// Loads `LANES` consecutive values (unaligned).
    ///
    /// # Safety
    ///
    /// The tier must be available and `ptr..ptr + LANES` must be readable.
    unsafe fn load(ptr: *const f32) -> Self;

    /// Stores `LANES` consecutive values (unaligned).
    ///
    /// # Safety
    ///
    /// The tier must be available and `ptr..ptr + LANES` must be writable.
    unsafe fn store(self, ptr: *mut f32);

    /// Loads the first `n` of `LANES` consecutive values; the remaining lanes hold
    /// unspecified values. Only `ptr..ptr + n` is read, so a row tail narrower than a
    /// vector never touches memory past its end.
    ///
    /// # Safety
    ///
    /// The tier must be available, `n < LANES`, and `ptr..ptr + n` must be readable.
    #[inline(always)]
    unsafe fn load_partial(ptr: *const f32, n: usize) -> Self {
        const { assert!(Self::LANES <= 16, "the lane buffer holds at most 16 lanes") };
        debug_assert!(n < Self::LANES);
        let mut buf = [0.0f32; 16];
        std::ptr::copy_nonoverlapping(ptr, buf.as_mut_ptr(), n);
        Self::load(buf.as_ptr())
    }

    /// Stores the first `n` lanes to `ptr..ptr + n`, leaving the memory past them
    /// untouched.
    ///
    /// # Safety
    ///
    /// The tier must be available, `n < LANES`, and `ptr..ptr + n` must be writable.
    #[inline(always)]
    unsafe fn store_partial(self, ptr: *mut f32, n: usize) {
        const { assert!(Self::LANES <= 16, "the lane buffer holds at most 16 lanes") };
        debug_assert!(n < Self::LANES);
        let mut buf = [0.0f32; 16];
        self.store(buf.as_mut_ptr());
        std::ptr::copy_nonoverlapping(buf.as_ptr(), ptr, n);
    }

    /// Lanewise IEEE-754 addition.
    ///
    /// # Safety
    ///
    /// The implementing tier's instruction set must be available.
    unsafe fn add(self, other: Self) -> Self;

    /// Lanewise IEEE-754 multiplication.
    ///
    /// # Safety
    ///
    /// The implementing tier's instruction set must be available.
    unsafe fn mul(self, other: Self) -> Self;

    /// Lanewise IEEE-754 division.
    ///
    /// # Safety
    ///
    /// The implementing tier's instruction set must be available.
    unsafe fn div(self, other: Self) -> Self;

    /// Lanewise maximum with `MAXPS` semantics: `if self > other { self } else
    /// { other }` — returns `other` when `self` is NaN and on ±0.0 ties.
    ///
    /// # Safety
    ///
    /// The implementing tier's instruction set must be available.
    unsafe fn max(self, other: Self) -> Self;

    /// Horizontal maximum of all lanes, combining lanes with [`max`](Self::max)
    /// semantics.
    ///
    /// Only order-insensitive for the uses this crate makes of it: the accumulator
    /// lanes never hold NaN (NaN inputs are dropped by `max`, never merged in), and a
    /// ±0.0-sign ambiguity in a row maximum cannot change a softmax output (see the
    /// [crate docs](crate)).
    ///
    /// # Safety
    ///
    /// The implementing tier's instruction set must be available.
    unsafe fn reduce_max(self) -> f32;
}

/// `MAXPS`-semantics scalar maximum: the exact expression every vector tier's `max`
/// reduces to, used for remainder elements so scalar tails agree with vector bodies.
#[inline(always)]
pub(crate) fn maxps(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// The scalar fallback tier: one lane, plain `f32` arithmetic.
#[derive(Clone, Copy)]
pub(crate) struct ScalarVec(f32);

impl SimdF32 for ScalarVec {
    const LANES: usize = 1;

    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        ScalarVec(v)
    }

    #[inline(always)]
    unsafe fn load(ptr: *const f32) -> Self {
        ScalarVec(*ptr)
    }

    #[inline(always)]
    unsafe fn store(self, ptr: *mut f32) {
        *ptr = self.0;
    }

    #[inline(always)]
    unsafe fn add(self, other: Self) -> Self {
        ScalarVec(self.0 + other.0)
    }

    #[inline(always)]
    unsafe fn mul(self, other: Self) -> Self {
        ScalarVec(self.0 * other.0)
    }

    #[inline(always)]
    unsafe fn div(self, other: Self) -> Self {
        ScalarVec(self.0 / other.0)
    }

    #[inline(always)]
    unsafe fn max(self, other: Self) -> Self {
        ScalarVec(maxps(self.0, other.0))
    }

    #[inline(always)]
    unsafe fn reduce_max(self) -> f32 {
        self.0
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::SimdF32;
    use std::arch::x86_64::*;

    /// The AVX2+FMA tier: 8 lanes. (FMA is part of the tier's detection contract so the
    /// tier matches the common x86-64-v3 baseline, but no kernel uses fused operations —
    /// fusing would change rounding.)
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2Vec(__m256);

    impl SimdF32 for Avx2Vec {
        const LANES: usize = 8;

        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            Avx2Vec(_mm256_set1_ps(v))
        }

        #[inline(always)]
        unsafe fn load(ptr: *const f32) -> Self {
            Avx2Vec(_mm256_loadu_ps(ptr))
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut f32) {
            _mm256_storeu_ps(ptr, self.0)
        }

        #[inline(always)]
        unsafe fn load_partial(ptr: *const f32, n: usize) -> Self {
            // VMASKMOVPS reads only the lanes whose mask sign bit is set (no fault past
            // the row end) and zeroes the rest.
            Avx2Vec(_mm256_maskload_ps(ptr, avx2_mask(n)))
        }

        #[inline(always)]
        unsafe fn store_partial(self, ptr: *mut f32, n: usize) {
            _mm256_maskstore_ps(ptr, avx2_mask(n), self.0)
        }

        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            Avx2Vec(_mm256_add_ps(self.0, other.0))
        }

        #[inline(always)]
        unsafe fn mul(self, other: Self) -> Self {
            Avx2Vec(_mm256_mul_ps(self.0, other.0))
        }

        #[inline(always)]
        unsafe fn div(self, other: Self) -> Self {
            Avx2Vec(_mm256_div_ps(self.0, other.0))
        }

        #[inline(always)]
        unsafe fn max(self, other: Self) -> Self {
            // VMAXPS a, b == if a > b { a } else { b } per lane.
            Avx2Vec(_mm256_max_ps(self.0, other.0))
        }

        #[inline(always)]
        unsafe fn reduce_max(self) -> f32 {
            let lo = _mm256_castps256_ps128(self.0);
            let hi = _mm256_extractf128_ps(self.0, 1);
            let m = _mm_max_ps(lo, hi);
            let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
            let m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 0b01));
            _mm_cvtss_f32(m)
        }
    }

    /// Lane mask for the first `n` of 8 lanes: all-ones words below `n`, zero above.
    ///
    /// # Safety
    ///
    /// AVX2 must be available.
    #[inline(always)]
    unsafe fn avx2_mask(n: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(n as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// The AVX-512 tier: 16 lanes (`avx512f` only — no other extension is used).
    #[derive(Clone, Copy)]
    pub(crate) struct Avx512Vec(__m512);

    /// Lane mask for the first `n` of 16 lanes.
    #[inline(always)]
    fn avx512_mask(n: usize) -> __mmask16 {
        ((1u32 << n) - 1) as __mmask16
    }

    impl SimdF32 for Avx512Vec {
        const LANES: usize = 16;

        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            Avx512Vec(_mm512_set1_ps(v))
        }

        #[inline(always)]
        unsafe fn load(ptr: *const f32) -> Self {
            Avx512Vec(_mm512_loadu_ps(ptr))
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut f32) {
            _mm512_storeu_ps(ptr, self.0)
        }

        #[inline(always)]
        unsafe fn load_partial(ptr: *const f32, n: usize) -> Self {
            // Masked-off lanes are neither read (no fault past the row end) nor kept.
            Avx512Vec(_mm512_maskz_loadu_ps(avx512_mask(n), ptr))
        }

        #[inline(always)]
        unsafe fn store_partial(self, ptr: *mut f32, n: usize) {
            _mm512_mask_storeu_ps(ptr, avx512_mask(n), self.0)
        }

        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            Avx512Vec(_mm512_add_ps(self.0, other.0))
        }

        #[inline(always)]
        unsafe fn mul(self, other: Self) -> Self {
            Avx512Vec(_mm512_mul_ps(self.0, other.0))
        }

        #[inline(always)]
        unsafe fn div(self, other: Self) -> Self {
            Avx512Vec(_mm512_div_ps(self.0, other.0))
        }

        #[inline(always)]
        unsafe fn max(self, other: Self) -> Self {
            Avx512Vec(_mm512_max_ps(self.0, other.0))
        }

        #[inline(always)]
        unsafe fn reduce_max(self) -> f32 {
            // Sequence intrinsic (avx512f): pairwise MAXPS folds.
            _mm512_reduce_max_ps(self.0)
        }
    }
}

#[cfg(target_arch = "aarch64")]
pub(crate) mod arm {
    use super::SimdF32;
    use std::arch::aarch64::*;

    /// The NEON tier: 4 lanes. NEON is baseline on aarch64, so this tier is always
    /// available there.
    #[derive(Clone, Copy)]
    pub(crate) struct NeonVec(float32x4_t);

    impl SimdF32 for NeonVec {
        const LANES: usize = 4;

        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            NeonVec(vdupq_n_f32(v))
        }

        #[inline(always)]
        unsafe fn load(ptr: *const f32) -> Self {
            NeonVec(vld1q_f32(ptr))
        }

        #[inline(always)]
        unsafe fn store(self, ptr: *mut f32) {
            vst1q_f32(ptr, self.0)
        }

        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            NeonVec(vaddq_f32(self.0, other.0))
        }

        #[inline(always)]
        unsafe fn mul(self, other: Self) -> Self {
            NeonVec(vmulq_f32(self.0, other.0))
        }

        #[inline(always)]
        unsafe fn div(self, other: Self) -> Self {
            NeonVec(vdivq_f32(self.0, other.0))
        }

        #[inline(always)]
        unsafe fn max(self, other: Self) -> Self {
            // NEON's vmaxq propagates NaN, so build MAXPS semantics from the comparison
            // directly: self where self > other, other everywhere else (incl. NaN, ±0).
            NeonVec(vbslq_f32(vcgtq_f32(self.0, other.0), self.0, other.0))
        }

        #[inline(always)]
        unsafe fn reduce_max(self) -> f32 {
            // Accumulators reaching a horizontal reduce never hold NaN (see trait docs),
            // so the NaN-propagating lane-wise vmaxv agrees with MAXPS folds here.
            vmaxvq_f32(self.0)
        }
    }
}
