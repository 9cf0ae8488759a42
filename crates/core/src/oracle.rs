//! Per-sample reference implementations of the Eq. 2 reconstruction
//! path, kept as test oracles for the row passes in
//! [`crate::reconstruct`] and [`crate::pixel`].
//!
//! These are the straightforward loops: a full padded IDCT buffer, an
//! upsample that calls `floor` and four `get_clamped` reads per output
//! sample, `f32::round` per output byte, and a fresh plane per stage.
//! The production code must match them bit for bit on every input.

use p3_jpeg::block::CoeffImage;
use p3_jpeg::dct::idct8x8;
use p3_jpeg::image::RgbImage;
use p3_vision::image::ImageF32;

use crate::pixel::rgb_to_channels;
use crate::split::secret_plus_correction;
use crate::transform::TransformSpec;
use crate::{P3Error, Result};

/// Reference `channels_to_rgb`: `round().clamp()` per sample.
pub(crate) fn channels_to_rgb(ch: &[ImageF32; 3]) -> RgbImage {
    let (w, h) = (ch[0].width, ch[0].height);
    let mut img = RgbImage::new(w, h);
    for i in 0..w * h {
        img.data[i * 3] = ch[0].data[i].round().clamp(0.0, 255.0) as u8;
        img.data[i * 3 + 1] = ch[1].data[i].round().clamp(0.0, 255.0) as u8;
        img.data[i * 3 + 2] = ch[2].data[i].round().clamp(0.0, 255.0) as u8;
    }
    img
}

/// Reference delta channels.
pub(crate) fn delta_rgb_channels(secret: &CoeffImage, t: u16) -> Result<[ImageF32; 3]> {
    secret.validate()?;
    let spc = secret_plus_correction(secret, t);
    let planes = delta_planes(&spc);
    match planes.len() {
        1 => {
            let y = &planes[0];
            Ok([y.clone(), y.clone(), y.clone()])
        }
        3 => {
            let dy = upsample_f32(&planes[0], secret.width, secret.height);
            let dcb = upsample_f32(&planes[1], secret.width, secret.height);
            let dcr = upsample_f32(&planes[2], secret.width, secret.height);
            let n = secret.width * secret.height;
            let mut r = ImageF32::new(secret.width, secret.height);
            let mut g = ImageF32::new(secret.width, secret.height);
            let mut b = ImageF32::new(secret.width, secret.height);
            for i in 0..n {
                let y = dy.data[i];
                let cb = dcb.data[i];
                let cr = dcr.data[i];
                r.data[i] = y + 1.402 * cr;
                g.data[i] = y - 0.344_136_3 * cb - 0.714_136_3 * cr;
                b.data[i] = y + 1.772 * cb;
            }
            Ok([r, g, b])
        }
        n => Err(P3Error::Mismatch(format!("{n}-component secret part"))),
    }
}

fn delta_planes(ci: &CoeffImage) -> Vec<ImageF32> {
    let h_max = ci.h_max() as usize;
    let v_max = ci.v_max() as usize;
    let mut out = Vec::with_capacity(ci.components.len());
    for comp in &ci.components {
        let qt = &ci.qtables[comp.quant_idx];
        let samp_w = (ci.width * comp.h_samp as usize).div_ceil(h_max);
        let samp_h = (ci.height * comp.v_samp as usize).div_ceil(v_max);
        let full_w = comp.padded_w * 8;
        let mut full = vec![0f32; full_w * comp.padded_h * 8];
        for by in 0..comp.padded_h {
            for bx in 0..comp.padded_w {
                let deq = qt.dequantize(comp.block(bx, by));
                let px = idct8x8(&deq);
                for sy in 0..8 {
                    let row = (by * 8 + sy) * full_w + bx * 8;
                    full[row..row + 8].copy_from_slice(&px[sy * 8..sy * 8 + 8]);
                }
            }
        }
        let mut plane = ImageF32::new(samp_w, samp_h);
        for y in 0..samp_h {
            let src = y * full_w;
            plane.data[y * samp_w..(y + 1) * samp_w].copy_from_slice(&full[src..src + samp_w]);
        }
        out.push(plane);
    }
    out
}

/// Reference bilinear upsample.
pub(crate) fn upsample_f32(p: &ImageF32, width: usize, height: usize) -> ImageF32 {
    if p.width == width && p.height == height {
        return p.clone();
    }
    let mut out = ImageF32::new(width, height);
    let sx = p.width as f32 / width as f32;
    let sy = p.height as f32 / height as f32;
    for y in 0..height {
        let fy = (y as f32 + 0.5) * sy - 0.5;
        let y0 = fy.floor();
        let wy = fy - y0;
        for x in 0..width {
            let fx = (x as f32 + 0.5) * sx - 0.5;
            let x0 = fx.floor();
            let wx = fx - x0;
            let p00 = p.get_clamped(x0 as isize, y0 as isize);
            let p10 = p.get_clamped(x0 as isize + 1, y0 as isize);
            let p01 = p.get_clamped(x0 as isize, y0 as isize + 1);
            let p11 = p.get_clamped(x0 as isize + 1, y0 as isize + 1);
            out.set(
                x,
                y,
                p00 * (1.0 - wx) * (1.0 - wy)
                    + p10 * wx * (1.0 - wy)
                    + p01 * (1.0 - wx) * wy
                    + p11 * wx * wy,
            );
        }
    }
    out
}

/// Reference Eq. 2 reconstruction: a plane per stage, then round.
pub(crate) fn reconstruct_processed(
    processed_public: &RgbImage,
    secret: &CoeffImage,
    t: u16,
    transform: &TransformSpec,
) -> Result<RgbImage> {
    let delta = delta_rgb_channels(secret, t)?;
    let transformed: Vec<ImageF32> = delta.iter().map(|ch| transform.apply_linear(ch)).collect();
    let received = rgb_to_channels(processed_public);
    let mut out_ch: Vec<ImageF32> = Vec::with_capacity(3);
    for (recv, dt) in received.iter().zip(transformed.iter()) {
        if transform.is_linear() {
            out_ch.push(recv.add(dt));
        } else {
            let lin = transform.invert_nonlinear(recv);
            out_ch.push(transform.reapply_nonlinear(&lin.add(dt)));
        }
    }
    let out: [ImageF32; 3] = [out_ch.remove(0), out_ch.remove(0), out_ch.remove(0)];
    Ok(channels_to_rgb(&out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3_jpeg::quant::QuantTable;
    use p3_vision::resize::ResizeFilter;
    use proptest::prelude::*;

    const GRAY: &[(u8, u8)] = &[(1, 1)];
    const S420: &[(u8, u8)] = &[(2, 2), (1, 1), (1, 1)];
    const S444: &[(u8, u8)] = &[(1, 1), (1, 1), (1, 1)];
    const LAYOUTS: [&[(u8, u8)]; 3] = [GRAY, S420, S444];

    fn lcg(s: &mut u64) -> u64 {
        *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *s >> 33
    }

    /// A secret part with pseudo-random, decaying coefficients (DC and
    /// signed AC, as the split leaves them).
    fn secret(w: usize, h: usize, sampling: &[(u8, u8)], seed: u64) -> CoeffImage {
        let quant_map: Vec<usize> = (0..sampling.len()).map(|i| i.min(1)).collect();
        let mut ci = CoeffImage::zeroed(
            w,
            h,
            vec![QuantTable::luma(85), QuantTable::chroma(85)],
            sampling,
            &quant_map,
        )
        .unwrap();
        let mut s = seed | 1;
        ci.for_each_block_mut(|_, b| {
            for (k, c) in b.iter_mut().enumerate() {
                let span = if k == 0 { 120 } else { 30 / (1 + k as i32 / 8) };
                *c = (lcg(&mut s) % (2 * span as u64 + 1)) as i32 - span;
            }
        });
        ci
    }

    fn public(w: usize, h: usize, seed: u64) -> RgbImage {
        let mut img = RgbImage::new(w, h);
        let mut s = seed ^ 0x9e37_79b9;
        for v in img.data.iter_mut() {
            *v = lcg(&mut s) as u8;
        }
        img
    }

    fn same_bits(a: &[ImageF32; 3], b: &[ImageF32; 3]) -> bool {
        a.iter().zip(b).all(|(x, y)| {
            (x.width, x.height) == (y.width, y.height)
                && x.data.iter().zip(&y.data).all(|(p, q)| p.to_bits() == q.to_bits())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn delta_rgb_channels_match_oracle(w in 1usize..70, h in 1usize..70,
                                           layout in 0usize..3, t in 1u16..30,
                                           seed in any::<u64>()) {
            let ci = secret(w, h, LAYOUTS[layout], seed);
            let fast = crate::reconstruct::delta_rgb_channels(&ci, t).unwrap();
            let slow = delta_rgb_channels(&ci, t).unwrap();
            prop_assert!(same_bits(&fast, &slow), "{w}x{h} layout {layout}");
        }

        #[test]
        fn upsample_matches_oracle(sw in 1usize..40, sh in 1usize..40,
                                   w in 1usize..80, h in 1usize..80, seed in any::<u64>()) {
            let mut s = seed | 1;
            let data = (0..sw * sh).map(|_| lcg(&mut s) as f32 / 1e7 - 200.0).collect();
            let src = ImageF32::from_raw(sw, sh, data).unwrap();
            let mut up = crate::reconstruct::Upsample::new(src.clone(), w, h);
            let slow = upsample_f32(&src, w, h);
            for y in 0..h {
                let fast = up.row(y);
                let want = &slow.data[y * w..(y + 1) * w];
                prop_assert!(fast.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()),
                             "{sw}x{sh} -> {w}x{h} row {y}");
            }
        }

        #[test]
        fn reconstruct_processed_matches_oracle(w in 8usize..72, h in 8usize..72,
                                                layout in 0usize..3, kind in 0usize..6,
                                                f in 0usize..6, seed in any::<u64>()) {
            let ci = secret(w, h, LAYOUTS[layout], seed);
            let mut s = seed;
            let mut pick = |n: usize| (lcg(&mut s) as usize % n) + 1;
            let filter = ResizeFilter::all()[f];
            // Identity, resize, crop, sharpen, gamma, and all linear
            // stages at once; crops may touch or pass any edge.
            let spec = match kind {
                0 => TransformSpec::identity(),
                1 => TransformSpec::resize(pick(90), pick(90), filter),
                2 => TransformSpec {
                    crop: Some((pick(w + 4) - 1, pick(h + 4) - 1, pick(w), pick(h))),
                    ..TransformSpec::default()
                },
                3 => TransformSpec { sharpen: (0.8, 0.5), ..TransformSpec::default() },
                4 => TransformSpec {
                    gamma: 1.1,
                    resize_to: Some((pick(w), pick(h))),
                    ..TransformSpec::default()
                },
                _ => TransformSpec {
                    crop: Some((pick(w) - 1, pick(h) - 1, w, h)),
                    resize_to: Some((pick(60), pick(60))),
                    filter,
                    sharpen: (1.2, 0.7),
                    gamma: 1.0,
                },
            };
            let (ew, eh) = spec.output_dims(w, h);
            let served = public(ew, eh, seed);
            let fast = crate::reconstruct::reconstruct_processed(&served, &ci, 12, &spec).unwrap();
            let slow = reconstruct_processed(&served, &ci, 12, &spec).unwrap();
            prop_assert!(fast.data == slow.data, "{w}x{h} layout {layout} spec {spec:?}");
        }
    }

    #[test]
    fn photo_sized_reconstruction_matches_oracle() {
        // The browse workload's shapes: a 640x480 4:2:0 secret served
        // at full size, small and thumb.
        let ci = secret(640, 480, S420, 7);
        for spec in [
            TransformSpec::identity(),
            TransformSpec::resize(130, 98, ResizeFilter::Triangle),
            TransformSpec::resize(75, 56, ResizeFilter::Triangle),
        ] {
            let (ew, eh) = spec.output_dims(640, 480);
            let served = public(ew, eh, 3);
            let fast = crate::reconstruct::reconstruct_processed(&served, &ci, 15, &spec).unwrap();
            let slow = reconstruct_processed(&served, &ci, 15, &spec).unwrap();
            assert!(fast.data == slow.data, "{spec:?}");
        }
    }
}
