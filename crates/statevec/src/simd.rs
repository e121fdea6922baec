//! Kernel dispatch, and the two-amplitude lane abstraction every sweep kernel
//! is written over (x86_64 AVX2+FMA, or plain `Complex64` pairs), under a
//! bit-identical scalar contract.
//!
//! The sweep kernels in `kernels.rs` / `fusion/diagonal.rs` are generic over
//! `Lanes`; this module supplies its two instantiations. The AVX2 one
//! replays the *exact* IEEE-754 operation sequence of the scalar one — one
//! multiply, one add/sub per component, in the same order — so
//! forced-`Scalar` and `Auto` dispatch produce bit-identical amplitudes.
//! That is why the complex MAC below is built from `mul`/`add`/`addsub`
//! rather than a true fused `vfmaddsub` (an FMA skips the intermediate
//! rounding and would diverge from the scalar fallback in the last ulp). FMA
//! presence is still part of the detection gate so the dispatch decision
//! matches the CPU generation the kernels were tuned on.
//!
//! Dispatch is decided once per process ([`simd_available`]): the
//! `HISVSIM_KERNEL=scalar` environment override (how CI pins the fallback
//! path) wins over CPU detection, and non-x86_64 targets always resolve to
//! scalar. Per-call forcing goes through
//! [`ApplyOptions::dispatch`](crate::kernels::ApplyOptions).

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Which kernel implementation a sweep runs.
///
/// Threaded through [`ApplyOptions`](crate::kernels::ApplyOptions), every
/// engine config, `SimJob`, and shipped cluster jobs, so a whole run — local
/// or multi-process — resolves its kernels the same way. The differential
/// harness runs every engine under both variants and asserts bit-identical
/// amplitudes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum KernelDispatch {
    /// Use the SIMD kernels when the CPU supports them (AVX2+FMA on x86_64)
    /// and no `HISVSIM_KERNEL=scalar` override is set; scalar otherwise.
    #[default]
    Auto,
    /// Always run the scalar kernels (the reference path).
    Scalar,
}

impl KernelDispatch {
    /// Stable lowercase name (reports, JSON).
    pub fn name(&self) -> &'static str {
        match self {
            KernelDispatch::Auto => "auto",
            KernelDispatch::Scalar => "scalar",
        }
    }

    /// Whether this dispatch resolves to the SIMD kernels on this process.
    #[inline]
    pub fn use_simd(&self) -> bool {
        match self {
            KernelDispatch::Scalar => false,
            KernelDispatch::Auto => simd_available(),
        }
    }

    /// The kernel implementation this dispatch resolves to on this process
    /// (`"avx2"` or `"scalar"`).
    pub fn resolved_name(&self) -> &'static str {
        if self.use_simd() {
            "avx2"
        } else {
            "scalar"
        }
    }
}

impl std::fmt::Display for KernelDispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether `Auto` dispatch resolves to the SIMD kernels: decided once per
/// process from the `HISVSIM_KERNEL` environment override (`scalar` forces
/// the fallback everywhere — the CI forced-scalar job sets it) and runtime
/// CPU feature detection (AVX2+FMA on x86_64; always false elsewhere).
pub fn simd_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        if let Ok(kind) = std::env::var("HISVSIM_KERNEL") {
            if kind.eq_ignore_ascii_case("scalar") {
                return false;
            }
        }
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

// -- the lane abstraction ------------------------------------------------------
//
// Every sweep kernel in `kernels.rs` / `fusion/diagonal.rs` is written once,
// generic over [`Lanes`]: a value holding *two* complex amplitudes that
// supports the handful of operations the kernels need. [`Pair`] instantiates
// it with plain `Complex64` arithmetic (the forced-scalar path and every
// non-x86_64 target); [`Avx2`] instantiates it with one 256-bit register
// `[z0.re, z0.im, z1.re, z1.im]`. The scalar reference operations are
//
//   macc:  acc + m·z  =  ((acc.re + m.re·z.re) - m.im·z.im,
//                         (acc.im + m.re·z.im) + m.im·z.re)
//   mul, cmul:   a·b  =  (a.re·b.re - a.im·b.im,
//                         a.re·b.im + a.im·b.re)
//
// (parenthesisation is the evaluation order of `Complex64::mul_add` and
// `Complex64::mul`). The vector forms compute each component with exactly one
// multiply feeding one add/sub per scalar op — `addsub` subtracts in even
// (re) lanes and adds in odd (im) lanes, which is precisely the sign pattern
// of both formulas — so every lane rounds identically to the scalar code and
// the two instantiations of a kernel agree bit for bit.

use hisvsim_circuit::Complex64;

/// Two complex amplitudes processed together; see the module notes above.
///
/// # Safety
/// Every method of the [`Avx2`] instantiation requires AVX2 support, and the
/// pointer methods require in-bounds, exclusively owned targets — which is
/// why all of them are `unsafe`; the generic kernels are only reachable
/// through wrappers that have established both.
pub(crate) trait Lanes: Copy {
    /// Both amplitudes zero.
    unsafe fn zero() -> Self;
    /// `z` in both lanes.
    unsafe fn splat(z: Complex64) -> Self;
    /// `[p[0], p[1]]`.
    unsafe fn load(p: *const Complex64) -> Self;
    /// `[*lo, *hi]` from two unrelated addresses.
    unsafe fn load2(lo: *const Complex64, hi: *const Complex64) -> Self;
    /// Store to `p[0], p[1]`.
    unsafe fn store(self, p: *mut Complex64);
    /// Store lane 0 to `*lo` and lane 1 to `*hi`.
    unsafe fn store2(self, lo: *mut Complex64, hi: *mut Complex64);
    /// Each amplitude with `re` and `im` exchanged (feeds [`Lanes::macc`]).
    unsafe fn swapped(self) -> Self;
    /// `self + m·v` per lane; `v_swapped` must be `v.swapped()`, hoisted by
    /// the caller because one input feeds a whole matrix column.
    unsafe fn macc(self, m: &Complex64, v: Self, v_swapped: Self) -> Self;
    /// `m·v` per lane (the first term of a sum that skips the add to zero).
    unsafe fn mul(m: &Complex64, v: Self, v_swapped: Self) -> Self;
    /// `self·rhs` per lane.
    unsafe fn cmul(self, rhs: Self) -> Self;
}

/// The scalar instantiation of [`Lanes`].
#[derive(Clone, Copy)]
pub(crate) struct Pair([Complex64; 2]);

impl Lanes for Pair {
    #[inline(always)]
    unsafe fn zero() -> Self {
        Pair([Complex64::ZERO; 2])
    }
    #[inline(always)]
    unsafe fn splat(z: Complex64) -> Self {
        Pair([z; 2])
    }
    #[inline(always)]
    unsafe fn load(p: *const Complex64) -> Self {
        Pair([*p, *p.add(1)])
    }
    #[inline(always)]
    unsafe fn load2(lo: *const Complex64, hi: *const Complex64) -> Self {
        Pair([*lo, *hi])
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut Complex64) {
        *p = self.0[0];
        *p.add(1) = self.0[1];
    }
    #[inline(always)]
    unsafe fn store2(self, lo: *mut Complex64, hi: *mut Complex64) {
        *lo = self.0[0];
        *hi = self.0[1];
    }
    #[inline(always)]
    unsafe fn swapped(self) -> Self {
        self
    }
    #[inline(always)]
    unsafe fn macc(self, m: &Complex64, v: Self, _v_swapped: Self) -> Self {
        Pair([self.0[0].mul_add(*m, v.0[0]), self.0[1].mul_add(*m, v.0[1])])
    }
    #[inline(always)]
    unsafe fn mul(m: &Complex64, v: Self, _v_swapped: Self) -> Self {
        Pair([*m * v.0[0], *m * v.0[1]])
    }
    #[inline(always)]
    unsafe fn cmul(self, rhs: Self) -> Self {
        Pair([self.0[0] * rhs.0[0], self.0[1] * rhs.0[1]])
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::Avx2;

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Lanes;
    use hisvsim_circuit::Complex64;
    use std::arch::x86_64::*;

    /// The AVX2 instantiation of [`Lanes`]. Loads and stores are unaligned —
    /// `Complex64` is only 8-byte aligned. The methods are `inline(always)`
    /// so they compile inside their `#[target_feature]` callers.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2(__m256d);

    impl Lanes for Avx2 {
        #[inline(always)]
        unsafe fn zero() -> Self {
            Avx2(_mm256_setzero_pd())
        }
        #[inline(always)]
        unsafe fn splat(z: Complex64) -> Self {
            Avx2(_mm256_setr_pd(z.re, z.im, z.re, z.im))
        }
        #[inline(always)]
        unsafe fn load(p: *const Complex64) -> Self {
            Avx2(_mm256_loadu_pd(p as *const f64))
        }
        #[inline(always)]
        unsafe fn load2(lo: *const Complex64, hi: *const Complex64) -> Self {
            let l = _mm_loadu_pd(lo as *const f64);
            let h = _mm_loadu_pd(hi as *const f64);
            Avx2(_mm256_insertf128_pd(_mm256_castpd128_pd256(l), h, 1))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut Complex64) {
            _mm256_storeu_pd(p as *mut f64, self.0)
        }
        #[inline(always)]
        unsafe fn store2(self, lo: *mut Complex64, hi: *mut Complex64) {
            _mm_storeu_pd(lo as *mut f64, _mm256_castpd256_pd128(self.0));
            _mm_storeu_pd(hi as *mut f64, _mm256_extractf128_pd(self.0, 1));
        }
        #[inline(always)]
        unsafe fn swapped(self) -> Self {
            Avx2(_mm256_permute_pd(self.0, 0b0101))
        }
        #[inline(always)]
        unsafe fn macc(self, m: &Complex64, v: Self, v_swapped: Self) -> Self {
            let t1 = _mm256_add_pd(self.0, _mm256_mul_pd(_mm256_broadcast_sd(&m.re), v.0));
            let t2 = _mm256_mul_pd(_mm256_broadcast_sd(&m.im), v_swapped.0);
            Avx2(_mm256_addsub_pd(t1, t2))
        }
        #[inline(always)]
        unsafe fn mul(m: &Complex64, v: Self, v_swapped: Self) -> Self {
            let t1 = _mm256_mul_pd(_mm256_broadcast_sd(&m.re), v.0);
            let t2 = _mm256_mul_pd(_mm256_broadcast_sd(&m.im), v_swapped.0);
            Avx2(_mm256_addsub_pd(t1, t2))
        }
        #[inline(always)]
        unsafe fn cmul(self, rhs: Self) -> Self {
            let t1 = _mm256_mul_pd(_mm256_movedup_pd(self.0), rhs.0);
            let t2 = _mm256_mul_pd(
                _mm256_permute_pd(self.0, 0b1111),
                _mm256_permute_pd(rhs.0, 0b0101),
            );
            Avx2(_mm256_addsub_pd(t1, t2))
        }
    }
}

/// Define `unsafe fn $on(simd: bool, args…)`, the run-time choice between the
/// two instantiations of a [`Lanes`]-generic kernel `$kernel::<L, consts…>`:
/// the AVX2 one through a `#[target_feature]` trampoline (which is what lets
/// the `inline(always)` kernel and lane methods compile with AVX2 enabled)
/// when `simd` is set, the scalar one otherwise.
///
/// The generated function inherits the kernel's safety contract, plus:
/// `simd` must come from [`KernelDispatch::use_simd`], which is what makes
/// entering the AVX2 trampoline sound.
macro_rules! lanes_dispatch {
    (
        $(#[$meta:meta])*
        unsafe fn $on:ident $(<$(const $g:ident: $gty:ty),+>)? ($($arg:ident: $ty:ty),* $(,)?)
            => $kernel:ident
    ) => {
        $(#[$meta])*
        unsafe fn $on $(<$(const $g: $gty),+>)? (simd: bool, $($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn avx2 $(<$(const $g: $gty),+>)? ($($arg: $ty),*) {
                    $kernel::<$crate::simd::Avx2 $($(, $g)+)?>($($arg),*)
                }
                if simd {
                    return avx2 $(::<$($g),+>)? ($($arg),*);
                }
            }
            let _ = simd;
            $kernel::<$crate::simd::Pair $($(, $g)+)?>($($arg),*)
        }
    };
}
pub(crate) use lanes_dispatch;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_names_are_stable() {
        assert_eq!(KernelDispatch::Auto.name(), "auto");
        assert_eq!(KernelDispatch::Scalar.name(), "scalar");
        assert!(!KernelDispatch::Scalar.use_simd());
        assert_eq!(KernelDispatch::Scalar.resolved_name(), "scalar");
        // Auto's resolution is machine-dependent, but must be consistent.
        assert_eq!(KernelDispatch::Auto.use_simd(), simd_available());
        assert_eq!(simd_available(), simd_available());
    }

    #[test]
    fn dispatch_round_trips_through_serde() {
        for d in [KernelDispatch::Auto, KernelDispatch::Scalar] {
            let json = serde_json::to_string(&d).unwrap();
            let back: KernelDispatch = serde_json::from_str(&json).unwrap();
            assert_eq!(d, back);
        }
    }
}
