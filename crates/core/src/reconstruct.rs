//! Recipient-side reconstruction — paper §3.3.
//!
//! Two regimes:
//!
//! * **Unprocessed** ([`reconstruct_exact`]): the public part comes back
//!   byte-identical, so Eq. 1 recombines quantized coefficients exactly
//!   and the result is bit-exact relative to the sender's original
//!   coefficients.
//! * **Processed** ([`reconstruct_processed`]): the PSP applied some
//!   transform `A` to the public part. By Eq. 2,
//!   `A·y = A·xp + A·(xs + corr)`: decode the secret+correction image to
//!   a *signed fractional delta* in RGB space, push it through the same
//!   linear `A` locally, and add pixel-by-pixel. Gamma (nonlinear) is
//!   handled by the paper's one-to-one-mapping trick: invert it on the
//!   received image, add the linearly-transformed delta, re-apply.

use p3_jpeg::block::CoeffImage;
use p3_jpeg::dct::idct8x8;
use p3_jpeg::image::RgbImage;
use p3_vision::image::{f32_to_u8, ImageF32};

use crate::pixel::{channels_to_rgb, rgb_to_channels};
use crate::split::{add_correction, recombine_coeffs};
use crate::transform::{LinearRows, TransformSpec};
use crate::{P3Error, Result};

/// Exact coefficient-domain reconstruction (paper Eq. 1).
///
/// `public` is the decoded public part (unprocessed), `secret` the
/// decoded secret part, `t` the split threshold.
pub fn reconstruct_exact(public: &CoeffImage, secret: &CoeffImage, t: u16) -> Result<CoeffImage> {
    recombine_coeffs(public, secret, t)
}

/// Decode the secret + correction image into signed `f32` **delta
/// channels** in RGB space at the original resolution.
///
/// "The third image, the correction factor, does not depend on the
/// public image and can be completely derived from the secret image" —
/// this function materializes `xs + (Ss − Ss²)·w` in the pixel domain:
/// no +128 level shift, no chroma offset, values may be negative.
pub fn delta_rgb_channels(secret: &CoeffImage, t: u16) -> Result<[ImageF32; 3]> {
    let mut planes = DeltaRows::new(secret, t)?.into_planes();
    Ok(match planes.len() {
        1 => {
            let y = planes.remove(0);
            [y.clone(), y.clone(), y]
        }
        _ => [planes.remove(0), planes.remove(0), planes.remove(0)],
    })
}

/// The delta of a secret part, produced one RGB row at a time. A
/// grayscale secret has one plane (the same delta in R, G and B); a color
/// one keeps its luma and chroma planes and upsamples and converts each
/// row on request, so a transform that does nothing or starts with a
/// resize needs no full-size RGB delta plane.
struct DeltaRows {
    width: usize,
    height: usize,
    kind: DeltaKind,
}

enum DeltaKind {
    Gray(ImageF32),
    Color(Box<ColorDelta>),
}

/// Luma and chroma delta planes plus the RGB row buffers they fill.
struct ColorDelta {
    y: Upsample,
    cb: Upsample,
    cr: Upsample,
    rgb: [Vec<f32>; 3],
}

impl DeltaRows {
    fn new(secret: &CoeffImage, t: u16) -> Result<Self> {
        secret.validate()?;
        let (width, height) = (secret.width, secret.height);
        let mut planes = delta_planes(secret, t)?;
        let kind = match planes.len() {
            1 => DeltaKind::Gray(planes.remove(0)),
            3 => DeltaKind::Color(Box::new(ColorDelta {
                y: Upsample::new(planes.remove(0), width, height),
                cb: Upsample::new(planes.remove(0), width, height),
                cr: Upsample::new(planes.remove(0), width, height),
                rgb: std::array::from_fn(|_| vec![0.0; width]),
            })),
            n => return Err(P3Error::Mismatch(format!("{n}-component secret part"))),
        };
        Ok(DeltaRows { width, height, kind })
    }

    /// Distinct channels: 1 (gray) or 3 (R, G, B).
    fn channels(&self) -> usize {
        match self.kind {
            DeltaKind::Gray(_) => 1,
            DeltaKind::Color(_) => 3,
        }
    }

    /// Row `yy` of the R, G and B deltas.
    fn row(&mut self, yy: usize) -> [&[f32]; 3] {
        let w = self.width;
        match &mut self.kind {
            DeltaKind::Gray(plane) => {
                let row = &plane.data[yy * w..(yy + 1) * w];
                [row, row, row]
            }
            DeltaKind::Color(color) => {
                let ColorDelta { y, cb, cr, rgb: [r, g, b] } = &mut **color;
                let ycc = y.row(yy).iter().zip(cb.row(yy)).zip(cr.row(yy));
                for (((ro, go), bo), ((&y, &cb), &cr)) in
                    r.iter_mut().zip(g.iter_mut()).zip(b.iter_mut()).zip(ycc)
                {
                    // Linear part of the JFIF YCbCr→RGB map (offsets
                    // cancel in deltas).
                    *ro = y + 1.402 * cr;
                    *go = y - 0.344_136_3 * cb - 0.714_136_3 * cr;
                    *bo = y + 1.772 * cb;
                }
                [r, g, b]
            }
        }
    }

    /// The distinct channels as full planes.
    fn into_planes(mut self) -> Vec<ImageF32> {
        if let DeltaKind::Gray(plane) = self.kind {
            return vec![plane];
        }
        let (w, h) = (self.width, self.height);
        let mut planes: Vec<ImageF32> = (0..3).map(|_| ImageF32::new(w, h)).collect();
        for yy in 0..h {
            for (plane, row) in planes.iter_mut().zip(self.row(yy)) {
                plane.data[yy * w..(yy + 1) * w].copy_from_slice(row);
            }
        }
        planes
    }
}

/// Per-component signed delta planes of the secret plus the correction
/// term (dequantize + IDCT, **no** level shift), cropped to real
/// component dimensions. Blocks wholly outside a component's real area
/// are skipped: they never reach the plane.
fn delta_planes(ci: &CoeffImage, t: u16) -> Result<Vec<ImageF32>> {
    let h_max = ci.h_max() as usize;
    let v_max = ci.v_max() as usize;
    let mut out = Vec::with_capacity(ci.components.len());
    for comp in &ci.components {
        let qt = &ci.qtables[comp.quant_idx];
        let samp_w = (ci.width * comp.h_samp as usize).div_ceil(h_max);
        let samp_h = (ci.height * comp.v_samp as usize).div_ceil(v_max);
        if samp_w.div_ceil(8) > comp.padded_w || samp_h.div_ceil(8) > comp.padded_h {
            return Err(P3Error::Mismatch(format!(
                "component {} is {samp_w}x{samp_h} but has a {}x{} block grid",
                comp.id, comp.padded_w, comp.padded_h
            )));
        }
        let mut plane = ImageF32::new(samp_w, samp_h);
        for by in 0..samp_h.div_ceil(8) {
            let rows = (samp_h - by * 8).min(8);
            for bx in 0..samp_w.div_ceil(8) {
                let cols = (samp_w - bx * 8).min(8);
                let mut block = *comp.block(bx, by);
                add_correction(&mut block, t);
                let px = idct8x8(&qt.dequantize(&block));
                for sy in 0..rows {
                    let dst = (by * 8 + sy) * samp_w + bx * 8;
                    plane.data[dst..dst + cols].copy_from_slice(&px[sy * 8..sy * 8 + cols]);
                }
            }
        }
        out.push(plane);
    }
    Ok(out)
}

/// One bilinear tap pair: edge-clamped source indices `(i0, i1)` and
/// their weights `(1 − f, f)`.
type Tap = (usize, usize, f32, f32);

/// One axis of the bilinear upsample.
fn bilinear_taps(src_len: usize, dst_len: usize) -> Vec<Tap> {
    let scale = src_len as f32 / dst_len as f32;
    let last = src_len as isize - 1;
    (0..dst_len)
        .map(|d| {
            let f = (d as f32 + 0.5) * scale - 0.5;
            let f0 = f.floor();
            let w = f - f0;
            let i0 = f0 as isize;
            (i0.clamp(0, last) as usize, (i0 + 1).clamp(0, last) as usize, 1.0 - w, w)
        })
        .collect()
}

/// Bilinear upsample of a signed float plane, one output row at a time —
/// the same center-aligned weights `p3-jpeg` uses for chroma, so
/// public-part and delta decoding commute exactly in the identity case.
/// The row and column taps are built once; a plane already at the
/// target size is read in place.
pub(crate) struct Upsample {
    src: ImageF32,
    /// Column and row taps, `None` when `src` is already full size.
    taps: Option<(Vec<Tap>, Vec<Tap>)>,
    buf: Vec<f32>,
}

impl Upsample {
    pub(crate) fn new(src: ImageF32, width: usize, height: usize) -> Self {
        if src.width == width && src.height == height {
            return Upsample { src, taps: None, buf: Vec::new() };
        }
        let taps = (bilinear_taps(src.width, width), bilinear_taps(src.height, height));
        Upsample { src, taps: Some(taps), buf: vec![0.0; width] }
    }

    /// Output row `y`.
    pub(crate) fn row(&mut self, y: usize) -> &[f32] {
        let (src, w) = (&self.src.data, self.src.width);
        let Some((cols, rows)) = &self.taps else {
            return &src[y * w..(y + 1) * w];
        };
        let (y0, y1, ay, wy) = rows[y];
        let r0 = &src[y0 * w..(y0 + 1) * w];
        let r1 = &src[y1 * w..(y1 + 1) * w];
        for (o, &(x0, x1, ax, wx)) in self.buf.iter_mut().zip(cols) {
            *o = r0[x0] * ax * ay + r0[x1] * wx * ay + r1[x0] * ax * wy + r1[x1] * wx * wy;
        }
        &self.buf
    }
}

/// The delta after the linear stages of a transform.
enum Transformed {
    /// Every linear stage is a no-op: the delta rows as produced.
    Rows(DeltaRows),
    /// One plane per distinct channel.
    Planes(Vec<ImageF32>),
}

impl Transformed {
    /// Apply the linear stages of `spec` (paper Eq. 2's `A`) to each
    /// distinct delta channel.
    fn new(mut delta: DeltaRows, spec: &TransformSpec) -> Self {
        let (w, h) = (delta.width, delta.height);
        if spec.linear_is_identity(w, h) {
            return Transformed::Rows(delta);
        }
        let mut planes: Vec<LinearRows> =
            (0..delta.channels()).map(|_| spec.linear_rows(w, h)).collect();
        for y in 0..h {
            for (plane, row) in planes.iter_mut().zip(delta.row(y)) {
                plane.push_row(row);
            }
        }
        Transformed::Planes(planes.into_iter().map(LinearRows::finish).collect())
    }

    /// Row `y` of the transformed R, G and B deltas.
    fn row(&mut self, y: usize) -> [&[f32]; 3] {
        match self {
            Transformed::Rows(delta) => delta.row(y),
            Transformed::Planes(planes) => std::array::from_fn(|c| {
                let p = &planes[c.min(planes.len() - 1)];
                &p.data[y * p.width..(y + 1) * p.width]
            }),
        }
    }
}

/// Reconstruct an image whose public part was processed by `transform`
/// (paper Eq. 2).
///
/// * `processed_public` — the RGB pixels downloaded from the PSP
///   (already `A·xp`, possibly gamma-adjusted).
/// * `secret` — the decoded secret part at **original** resolution.
/// * `t` — the split threshold from the secret container.
/// * `transform` — the known or reverse-engineered pipeline `A`.
pub fn reconstruct_processed(
    processed_public: &RgbImage,
    secret: &CoeffImage,
    t: u16,
    transform: &TransformSpec,
) -> Result<RgbImage> {
    let (ew, eh) = transform.output_dims(secret.width, secret.height);
    if (processed_public.width, processed_public.height) != (ew, eh) {
        return Err(P3Error::Mismatch(format!(
            "transform yields {ew}x{eh} but public part is {}x{}",
            processed_public.width, processed_public.height
        )));
    }
    let mut dt = Transformed::new(DeltaRows::new(secret, t)?, transform);
    if let Transformed::Planes(planes) = &dt {
        for p in planes {
            assert_eq!((p.width, p.height), (ew, eh), "transformed delta size");
        }
    }

    if transform.is_linear() {
        // Eq. 2 in one pass: received + delta, rounded straight to u8.
        let mut out = RgbImage::new(ew, eh);
        let stride = (3 * ew).max(1);
        for (y, (orow, prow)) in out
            .data
            .chunks_exact_mut(stride)
            .zip(processed_public.data.chunks_exact(stride))
            .enumerate()
        {
            let d = dt.row(y);
            for (x, (o, p)) in orow.chunks_exact_mut(3).zip(prow.chunks_exact(3)).enumerate() {
                for c in 0..3 {
                    o[c] = f32_to_u8(f32::from(p[c]) + d[c][x]);
                }
            }
        }
        return Ok(out);
    }
    // Undo gamma, add the linear delta, re-apply gamma.
    let planes = match dt {
        Transformed::Rows(delta) => delta.into_planes(),
        Transformed::Planes(planes) => planes,
    };
    let received = rgb_to_channels(processed_public);
    let out: [ImageF32; 3] = std::array::from_fn(|c| {
        let lin = transform.invert_nonlinear(&received[c]);
        transform.reapply_nonlinear(&lin.add(&planes[c.min(planes.len() - 1)]))
    });
    Ok(channels_to_rgb(&out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::rgb_to_channels;
    use crate::split::split_coeffs;
    use p3_jpeg::encoder::{pixels_to_coeffs, Subsampling};
    use p3_vision::metrics::psnr;
    use p3_vision::resize::ResizeFilter;

    fn test_image(w: usize, h: usize) -> RgbImage {
        let mut img = RgbImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let r = (128.0 + 90.0 * ((x as f32) * 0.11).sin()) as u8;
                let g = (128.0 + 90.0 * ((y as f32) * 0.13).cos()) as u8;
                let b = ((x * 2 + y * 3) % 256) as u8;
                img.set(x, y, [r, g, b]);
            }
        }
        img
    }

    fn luma_psnr(a: &RgbImage, b: &RgbImage) -> f64 {
        psnr(&crate::pixel::rgb_to_luma(a), &crate::pixel::rgb_to_luma(b))
    }

    #[test]
    fn identity_reconstruction_matches_plain_decode() {
        let img = test_image(64, 48);
        let ci = pixels_to_coeffs(&img, 90, Subsampling::S420).unwrap();
        let (public, secret, _) = split_coeffs(&ci, 10).unwrap();
        // Public as pixels (what an identity-PSP would serve, pre-re-encode).
        let public_rgb = p3_jpeg::decoder::coeffs_to_rgb(&public).unwrap();
        let rec =
            reconstruct_processed(&public_rgb, &secret, 10, &TransformSpec::identity()).unwrap();
        let direct = p3_jpeg::decoder::coeffs_to_rgb(&ci).unwrap();
        let p = luma_psnr(&rec, &direct);
        assert!(p > 40.0, "identity pixel reconstruction PSNR {p:.1} dB");
    }

    #[test]
    fn resize_reconstruction_beats_public_alone() {
        let img = test_image(128, 96);
        let ci = pixels_to_coeffs(&img, 90, Subsampling::S444).unwrap();
        let (public, secret, _) = split_coeffs(&ci, 10).unwrap();
        let t = TransformSpec::resize(64, 48, ResizeFilter::Triangle);

        // PSP side: decode public, resize, serve.
        let public_rgb = p3_jpeg::decoder::coeffs_to_rgb(&public).unwrap();
        let pub_ch = rgb_to_channels(&public_rgb);
        let served: [ImageF32; 3] = [t.apply(&pub_ch[0]), t.apply(&pub_ch[1]), t.apply(&pub_ch[2])];
        let served_rgb = channels_to_rgb(&served);

        // Reference: the original, resized by the same pipeline.
        let orig_rgb = p3_jpeg::decoder::coeffs_to_rgb(&ci).unwrap();
        let orig_ch = rgb_to_channels(&orig_rgb);
        let reference =
            channels_to_rgb(&[t.apply(&orig_ch[0]), t.apply(&orig_ch[1]), t.apply(&orig_ch[2])]);

        let rec = reconstruct_processed(&served_rgb, &secret, 10, &t).unwrap();
        let rec_psnr = luma_psnr(&rec, &reference);
        let pub_psnr = luma_psnr(&served_rgb, &reference);
        assert!(rec_psnr > 35.0, "reconstruction {rec_psnr:.1} dB too low");
        assert!(rec_psnr > pub_psnr + 10.0, "rec {rec_psnr:.1} vs public {pub_psnr:.1}");
    }

    #[test]
    fn crop_reconstruction() {
        let img = test_image(96, 96);
        let ci = pixels_to_coeffs(&img, 90, Subsampling::S444).unwrap();
        let (public, secret, _) = split_coeffs(&ci, 15).unwrap();
        let t = TransformSpec { crop: Some((16, 24, 48, 40)), ..TransformSpec::default() };

        let public_rgb = p3_jpeg::decoder::coeffs_to_rgb(&public).unwrap();
        let pub_ch = rgb_to_channels(&public_rgb);
        let served_rgb =
            channels_to_rgb(&[t.apply(&pub_ch[0]), t.apply(&pub_ch[1]), t.apply(&pub_ch[2])]);

        let orig_rgb = p3_jpeg::decoder::coeffs_to_rgb(&ci).unwrap();
        let orig_ch = rgb_to_channels(&orig_rgb);
        let reference =
            channels_to_rgb(&[t.apply(&orig_ch[0]), t.apply(&orig_ch[1]), t.apply(&orig_ch[2])]);

        let rec = reconstruct_processed(&served_rgb, &secret, 15, &t).unwrap();
        let p = luma_psnr(&rec, &reference);
        assert!(p > 38.0, "crop reconstruction PSNR {p:.1}");
    }

    #[test]
    fn gamma_pipeline_roundtrips_approximately() {
        let img = test_image(64, 64);
        let ci = pixels_to_coeffs(&img, 92, Subsampling::S444).unwrap();
        let (public, secret, _) = split_coeffs(&ci, 10).unwrap();
        let t = TransformSpec { gamma: 1.1, resize_to: Some((32, 32)), ..TransformSpec::default() };

        let public_rgb = p3_jpeg::decoder::coeffs_to_rgb(&public).unwrap();
        let pub_ch = rgb_to_channels(&public_rgb);
        let served_rgb =
            channels_to_rgb(&[t.apply(&pub_ch[0]), t.apply(&pub_ch[1]), t.apply(&pub_ch[2])]);

        let orig_rgb = p3_jpeg::decoder::coeffs_to_rgb(&ci).unwrap();
        let orig_ch = rgb_to_channels(&orig_rgb);
        let reference =
            channels_to_rgb(&[t.apply(&orig_ch[0]), t.apply(&orig_ch[1]), t.apply(&orig_ch[2])]);

        let rec = reconstruct_processed(&served_rgb, &secret, 10, &t).unwrap();
        let p = luma_psnr(&rec, &reference);
        // The paper expects "some loss" here; it should still be far above
        // the public part alone.
        let pub_only = luma_psnr(&served_rgb, &reference);
        assert!(p > pub_only + 8.0, "gamma rec {p:.1} vs public {pub_only:.1}");
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let img = test_image(32, 32);
        let ci = pixels_to_coeffs(&img, 90, Subsampling::S444).unwrap();
        let (_, secret, _) = split_coeffs(&ci, 10).unwrap();
        let wrong = RgbImage::new(10, 10);
        assert!(reconstruct_processed(&wrong, &secret, 10, &TransformSpec::identity()).is_err());
    }

    #[test]
    fn delta_channels_are_zero_mean_ish_without_dc() {
        // The delta of a secret part carries the DC, so it is NOT
        // zero-mean; but with an all-zero secret it must be exactly zero.
        let ci = pixels_to_coeffs(&test_image(16, 16), 90, Subsampling::S444).unwrap();
        let mut zero = ci.clone();
        zero.for_each_block_mut(|_, b| *b = [0; 64]);
        let delta = delta_rgb_channels(&zero, 10).unwrap();
        for ch in &delta {
            assert!(ch.data.iter().all(|&v| v.abs() < 1e-4));
        }
    }
}
