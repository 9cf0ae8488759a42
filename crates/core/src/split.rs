//! The P3 threshold-based splitting algorithm (paper §3.2) and its exact
//! inverse (§3.3, Eq. 1).
//!
//! Operating on *quantized* DCT coefficients `y`:
//!
//! * **DC** — moved wholesale to the secret part; the public DC is 0.
//!   ("The DC coefficients usually contain enough information to
//!   represent thumbnail versions of the original image".)
//! * **AC, |y| ≤ T** — stays in the public part; secret holds 0.
//! * **AC, |y| > T** — public gets the *unsigned* threshold `T`; secret
//!   gets `sign(y)·(|y| − T)`. The sign of an above-threshold coefficient
//!   lives **only** in the secret part — the paper's §3.4 argues this is
//!   the key privacy lever, since sign information is nearly
//!   incompressible and an attacker's best MSE guess is to zero the
//!   coefficient entirely.
//!
//! Reconstruction (Eq. 1): `y = xp + xs + corr`, where `corr = −2T` at
//! positions with `xs < 0` and 0 elsewhere — precisely the
//! `(Ss − Ss²)·w` term of the paper.

use p3_jpeg::block::CoeffImage;
use p3_jpeg::COEFS_PER_BLOCK;

use crate::{P3Error, Result};

/// Statistics gathered during a split (drives Fig. 5-style analyses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplitStats {
    /// Total coefficients examined (including DC).
    pub total: u64,
    /// Nonzero AC coefficients.
    pub nonzero_ac: u64,
    /// AC coefficients strictly above the threshold (clipped).
    pub above_threshold: u64,
    /// DC coefficients moved to the secret part.
    pub dc_moved: u64,
}

/// Split a coefficient image into `(public, secret)` parts at threshold
/// `t` (must be ≥ 1).
///
/// Both outputs share the input's geometry and quantization tables, so
/// each re-encodes as a standalone JPEG-compliant image.
pub fn split_coeffs(ci: &CoeffImage, t: u16) -> Result<(CoeffImage, CoeffImage, SplitStats)> {
    if t == 0 {
        return Err(P3Error::Config("threshold must be >= 1".into()));
    }
    ci.validate()?;
    let t = i32::from(t);
    let mut public = ci.clone();
    let mut secret = ci.clone();
    let mut stats = SplitStats::default();

    for (pub_comp, sec_comp) in public.components.iter_mut().zip(secret.components.iter_mut()) {
        for (pub_block, sec_block) in pub_comp.blocks.iter_mut().zip(sec_comp.blocks.iter_mut()) {
            // DC extraction.
            stats.total += 1;
            if pub_block[0] != 0 {
                stats.dc_moved += 1;
            }
            sec_block[0] = pub_block[0];
            pub_block[0] = 0;
            // AC thresholding.
            for k in 1..COEFS_PER_BLOCK {
                stats.total += 1;
                let y = pub_block[k];
                if y != 0 {
                    stats.nonzero_ac += 1;
                }
                if y.abs() <= t {
                    sec_block[k] = 0;
                    // public keeps y as is
                } else {
                    stats.above_threshold += 1;
                    pub_block[k] = t; // unsigned: sign hidden
                    sec_block[k] = y.signum() * (y.abs() - t);
                }
            }
        }
    }
    Ok((public, secret, stats))
}

/// Exact inverse of [`split_coeffs`] (paper Eq. 1), in the coefficient
/// domain: `y = xp + xs + (Ss − Ss²)·w`.
pub fn recombine_coeffs(public: &CoeffImage, secret: &CoeffImage, t: u16) -> Result<CoeffImage> {
    public.validate()?;
    secret.validate()?;
    if public.components.len() != secret.components.len() {
        return Err(P3Error::Mismatch(format!(
            "{} public vs {} secret components",
            public.components.len(),
            secret.components.len()
        )));
    }
    let t = i32::from(t);
    let mut out = public.clone();
    for (ci, (out_comp, sec_comp)) in
        out.components.iter_mut().zip(secret.components.iter()).enumerate()
    {
        if out_comp.blocks.len() != sec_comp.blocks.len() {
            return Err(P3Error::Mismatch(format!("component {ci}: block count differs")));
        }
        for (ob, sb) in out_comp.blocks.iter_mut().zip(sec_comp.blocks.iter()) {
            // DC: public carries 0, secret carries the true value.
            ob[0] += sb[0];
            for k in 1..COEFS_PER_BLOCK {
                let xs = sb[k];
                // Eq. 1 with the three sign cases:
                //   xs = 0        → y = xp
                //   xs > 0        → y = xp + xs           (xp = +T, correct sign)
                //   xs < 0        → y = xp + xs − 2T      (xp = +T, wrong sign)
                ob[k] += xs + if xs < 0 { -2 * t } else { 0 };
            }
        }
    }
    Ok(out)
}

/// The quantized-domain correction term `(Ss − Ss²)·w` alone: `−2T` at
/// every AC position whose secret coefficient is negative. Decoded to the
/// pixel domain, this is the third image of the paper's Eq. 2 — the part
/// of the reconstruction that "does not depend on the public image and
/// can be completely derived from the secret image".
pub fn correction_coeffs(secret: &CoeffImage, t: u16) -> CoeffImage {
    let t = i32::from(t);
    let mut corr = secret.clone();
    for comp in corr.components.iter_mut() {
        for block in comp.blocks.iter_mut() {
            block[0] = 0;
            for c in block.iter_mut().take(COEFS_PER_BLOCK).skip(1) {
                *c = if *c < 0 { -2 * t } else { 0 };
            }
        }
    }
    corr
}

/// Secret coefficients plus the correction term — everything the
/// recipient derives from the secret part for pixel-domain
/// reconstruction.
pub fn secret_plus_correction(secret: &CoeffImage, t: u16) -> CoeffImage {
    let mut out = secret.clone();
    for comp in out.components.iter_mut() {
        for block in comp.blocks.iter_mut() {
            add_correction(block, t);
        }
    }
    out
}

/// Add the correction term to one block of secret coefficients in place
/// (the per-block step of [`secret_plus_correction`]).
pub(crate) fn add_correction(block: &mut [i32; COEFS_PER_BLOCK], t: u16) {
    let t = i32::from(t);
    for c in block.iter_mut().skip(1) {
        if *c < 0 {
            *c -= 2 * t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3_jpeg::quant::QuantTable;

    fn test_ci() -> CoeffImage {
        let mut ci = CoeffImage::zeroed(
            32,
            24,
            vec![QuantTable::luma(85), QuantTable::chroma(85)],
            &[(2, 2), (1, 1), (1, 1)],
            &[0, 1, 1],
        )
        .unwrap();
        // Deterministic pseudo-random coefficients with realistic decay.
        let mut state = 12345u64;
        ci.for_each_block_mut(|_, b| {
            for (k, c) in b.iter_mut().enumerate().take(64) {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = ((state >> 33) % 1000) as i32;
                let scale = 600 / (k as i32 + 2); // decaying magnitudes
                *c = (r % (2 * scale + 1)) - scale;
            }
            b[0] = ((state >> 40) % 800) as i32 - 400;
        });
        ci
    }

    #[test]
    fn split_then_recombine_is_identity() {
        let ci = test_ci();
        for t in [1u16, 5, 10, 15, 20, 50, 100] {
            let (public, secret, _) = split_coeffs(&ci, t).unwrap();
            let back = recombine_coeffs(&public, &secret, t).unwrap();
            for (a, b) in ci.components.iter().zip(back.components.iter()) {
                assert_eq!(a.blocks, b.blocks, "threshold {t}");
            }
        }
    }

    #[test]
    fn public_part_has_no_dc_and_bounded_ac() {
        let ci = test_ci();
        let t = 10u16;
        let (public, _, _) = split_coeffs(&ci, t).unwrap();
        public.for_each_block(|_, b| {
            assert_eq!(b[0], 0, "public DC must be zero");
            for (k, c) in b.iter().enumerate().take(64).skip(1) {
                assert!(c.abs() <= i32::from(t), "public AC {k} = {c} exceeds T");
            }
        });
    }

    #[test]
    fn clipped_positions_are_unsigned_t() {
        let ci = test_ci();
        let t = 10u16;
        let (public, secret, _) = split_coeffs(&ci, t).unwrap();
        // Wherever the secret AC is nonzero, the public AC must be exactly
        // +T — the sign never leaks.
        for (pc, sc) in public.components.iter().zip(secret.components.iter()) {
            for (pb, sb) in pc.blocks.iter().zip(sc.blocks.iter()) {
                for k in 1..64 {
                    if sb[k] != 0 {
                        assert_eq!(pb[k], i32::from(t));
                    }
                }
            }
        }
    }

    #[test]
    fn secret_part_magnitudes() {
        let ci = test_ci();
        let t = 10;
        let (_, secret, _) = split_coeffs(&ci, t).unwrap();
        // Cross-check the secret values against the original directly.
        for (oc, sc) in ci.components.iter().zip(secret.components.iter()) {
            for (ob, sb) in oc.blocks.iter().zip(sc.blocks.iter()) {
                assert_eq!(sb[0], ob[0], "secret DC = original DC");
                for k in 1..64 {
                    let y = ob[k];
                    if y.abs() <= 10 {
                        assert_eq!(sb[k], 0);
                    } else {
                        assert_eq!(sb[k], y.signum() * (y.abs() - 10));
                    }
                }
            }
        }
    }

    #[test]
    fn stats_are_consistent() {
        let ci = test_ci();
        let (_, _, s1) = split_coeffs(&ci, 1).unwrap();
        let (_, _, s100) = split_coeffs(&ci, 100).unwrap();
        assert_eq!(s1.total, s100.total);
        assert_eq!(s1.nonzero_ac, s100.nonzero_ac);
        assert!(s1.above_threshold > s100.above_threshold, "higher T clips fewer coefficients");
        assert!(s1.above_threshold <= s1.nonzero_ac);
    }

    #[test]
    fn threshold_zero_rejected() {
        assert!(split_coeffs(&test_ci(), 0).is_err());
    }

    #[test]
    fn correction_is_minus_2t_at_negative_secret() {
        let ci = test_ci();
        let t = 10;
        let (_, secret, _) = split_coeffs(&ci, t).unwrap();
        let corr = correction_coeffs(&secret, t);
        for (sc, cc) in secret.components.iter().zip(corr.components.iter()) {
            for (sb, cb) in sc.blocks.iter().zip(cc.blocks.iter()) {
                assert_eq!(cb[0], 0);
                for k in 1..64 {
                    assert_eq!(cb[k], if sb[k] < 0 { -20 } else { 0 });
                }
            }
        }
    }

    #[test]
    fn secret_plus_correction_matches_sum() {
        let ci = test_ci();
        let t = 15;
        let (public, secret, _) = split_coeffs(&ci, t).unwrap();
        let spc = secret_plus_correction(&secret, t);
        // public + spc must equal the original everywhere.
        for ((oc, pc), xc) in
            ci.components.iter().zip(public.components.iter()).zip(spc.components.iter())
        {
            for ((ob, pb), xb) in oc.blocks.iter().zip(pc.blocks.iter()).zip(xc.blocks.iter()) {
                for k in 0..64 {
                    assert_eq!(ob[k], pb[k] + xb[k], "coef {k}");
                }
            }
        }
    }

    #[test]
    fn mismatched_parts_rejected() {
        let ci = test_ci();
        let (public, _, _) = split_coeffs(&ci, 10).unwrap();
        let other =
            CoeffImage::zeroed(32, 24, vec![QuantTable::luma(85)], &[(1, 1)], &[0]).unwrap();
        assert!(recombine_coeffs(&public, &other, 10).is_err());
    }
}
