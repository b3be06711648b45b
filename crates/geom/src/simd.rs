//! Runtime SIMD instruction-set detection for the exact filter's
//! vectorized loops.
//!
//! The segment-index kernels in [`crate::prepared`] dispatch on the
//! detected ISA, so the AVX2 loops run only where a segment index is
//! built: exact filters on curves and on areal geometries of more than
//! 128 vertices, and the simplicity check of rings of 48 or more
//! edges. Smaller geometries take the unprepared kernels, which do not
//! dispatch. Detection runs once per process
//! ([`dispatched`]) and honours the [`FORCE_SCALAR_ENV`] environment
//! variable, which pins every kernel to the portable scalar path —
//! CI uses it to cover the fallback code on AVX2 hosts.
//!
//! Everything here is stable Rust: `is_x86_feature_detected!` for
//! AVX2, and the baseline guarantees that x86-64 always has SSE2 and
//! AArch64 always has NEON. No nightly `std::simd` anywhere.

use std::sync::OnceLock;

/// Environment variable that forces every SIMD kernel onto the scalar
/// fallback when set to anything but the empty string or `0`.
pub const FORCE_SCALAR_ENV: &str = "SDO_FORCE_SCALAR_KERNEL";

/// The instruction set a SIMD kernel runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdIsa {
    /// Portable scalar code — the fallback on unknown targets and
    /// under [`FORCE_SCALAR_ENV`].
    Scalar,
    /// x86-64 SSE2 (2×f64 / 8×u16 lanes) — baseline on every x86-64.
    Sse2,
    /// AArch64 NEON (2×f64 / 8×u16 lanes) — baseline on every AArch64.
    Neon,
    /// x86-64 AVX2 (4×f64 / 16×u16 lanes), runtime-detected.
    Avx2,
}

impl SimdIsa {
    /// Lower-case name, as benchmark host records report it.
    pub fn name(self) -> &'static str {
        match self {
            SimdIsa::Scalar => "scalar",
            SimdIsa::Sse2 => "sse2",
            SimdIsa::Neon => "neon",
            SimdIsa::Avx2 => "avx2",
        }
    }

    /// The widest ISA this machine supports, ignoring the force-scalar
    /// override. Prefer [`dispatched`] outside of tests.
    pub fn detect() -> SimdIsa {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                SimdIsa::Avx2
            } else {
                SimdIsa::Sse2
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            SimdIsa::Neon
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            SimdIsa::Scalar
        }
    }

    /// True when this machine can execute kernels compiled for `self`.
    pub fn available(self) -> bool {
        match self {
            SimdIsa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdIsa::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            SimdIsa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            SimdIsa::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }
}

/// The ISA every auto-dispatching kernel in the workspace uses:
/// [`SimdIsa::detect`] once per process, downgraded to
/// [`SimdIsa::Scalar`] when [`FORCE_SCALAR_ENV`] is set.
pub fn dispatched() -> SimdIsa {
    static ISA: OnceLock<SimdIsa> = OnceLock::new();
    *ISA.get_or_init(|| {
        let forced =
            std::env::var(FORCE_SCALAR_ENV).map(|v| !v.is_empty() && v != "0").unwrap_or(false);
        if forced {
            SimdIsa::Scalar
        } else {
            SimdIsa::detect()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_sane() {
        let isa = SimdIsa::detect();
        assert!(isa.available(), "detected ISA must be executable");
        assert!(SimdIsa::Scalar.available(), "scalar is always available");
        // dispatched() never exceeds what the machine supports.
        assert!(dispatched() <= isa);
        assert_eq!(dispatched(), dispatched(), "dispatch is cached");
        for isa in [SimdIsa::Scalar, SimdIsa::Sse2, SimdIsa::Neon, SimdIsa::Avx2] {
            assert!(!isa.name().is_empty());
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_always_has_sse2() {
        assert!(SimdIsa::Sse2.available());
        assert!(SimdIsa::detect() >= SimdIsa::Sse2);
    }
}
