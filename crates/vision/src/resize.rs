//! Image resampling, cropping, sharpening, gamma — the transform zoo a
//! PSP applies server-side.
//!
//! The paper (§4.1) observes that a PSP resize is "often accompanied by a
//! filtering step for antialiasing and may be followed by a sharpening
//! step, together with a color adjustment step", none of which are visible
//! to the client. The recipient proxy therefore searches candidate
//! pipelines ("we select several candidate settings for colorspace
//! conversion, filtering, sharpening, enhancing, and gamma corrections")
//! — this module provides the enumerable candidate space, modelled on
//! ImageMagick's resize filters (paper ref. \[28\]).
//!
//! Resampling and cropping are **linear** operators: `A(αa + βb) =
//! αA(a) + βA(b)`. That property (verified by property tests downstream)
//! is what makes P3's Eq. 2 reconstruction exact. Sharpening is also
//! linear; gamma correction is not, which is exactly why the paper's
//! exhaustive search must try gamma candidates rather than commute them.

use crate::filter::{pass_v, PassH, Taps};
use crate::image::ImageF32;

/// Resampling kernels, mirroring the common ImageMagick set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResizeFilter {
    /// Box (nearest-area average).
    Box,
    /// Triangle / bilinear tent.
    Triangle,
    /// Catmull-Rom cubic (B=0, C=0.5).
    CatmullRom,
    /// Mitchell-Netravali cubic (B=C=1/3).
    Mitchell,
    /// Lanczos, 2-lobe.
    Lanczos2,
    /// Lanczos, 3-lobe (ImageMagick default for downsizing).
    Lanczos3,
}

impl ResizeFilter {
    /// All filters, for exhaustive pipeline search.
    pub fn all() -> &'static [ResizeFilter] {
        &[
            ResizeFilter::Box,
            ResizeFilter::Triangle,
            ResizeFilter::CatmullRom,
            ResizeFilter::Mitchell,
            ResizeFilter::Lanczos2,
            ResizeFilter::Lanczos3,
        ]
    }

    /// Kernel support radius (in source pixels at scale 1).
    pub fn support(&self) -> f32 {
        match self {
            ResizeFilter::Box => 0.5,
            ResizeFilter::Triangle => 1.0,
            ResizeFilter::CatmullRom | ResizeFilter::Mitchell => 2.0,
            ResizeFilter::Lanczos2 => 2.0,
            ResizeFilter::Lanczos3 => 3.0,
        }
    }

    /// Kernel value at distance `x`.
    pub fn eval(&self, x: f32) -> f32 {
        let x = x.abs();
        match self {
            ResizeFilter::Box => {
                if x < 0.5 {
                    1.0
                } else {
                    0.0
                }
            }
            ResizeFilter::Triangle => {
                if x < 1.0 {
                    1.0 - x
                } else {
                    0.0
                }
            }
            ResizeFilter::CatmullRom => cubic_bc(x, 0.0, 0.5),
            ResizeFilter::Mitchell => cubic_bc(x, 1.0 / 3.0, 1.0 / 3.0),
            ResizeFilter::Lanczos2 => lanczos(x, 2.0),
            ResizeFilter::Lanczos3 => lanczos(x, 3.0),
        }
    }
}

fn cubic_bc(x: f32, b: f32, c: f32) -> f32 {
    if x < 1.0 {
        ((12.0 - 9.0 * b - 6.0 * c) * x * x * x
            + (-18.0 + 12.0 * b + 6.0 * c) * x * x
            + (6.0 - 2.0 * b))
            / 6.0
    } else if x < 2.0 {
        ((-b - 6.0 * c) * x * x * x
            + (6.0 * b + 30.0 * c) * x * x
            + (-12.0 * b - 48.0 * c) * x
            + (8.0 * b + 24.0 * c))
            / 6.0
    } else {
        0.0
    }
}

fn sinc(x: f32) -> f32 {
    if x.abs() < 1e-6 {
        1.0
    } else {
        let px = std::f32::consts::PI * x;
        px.sin() / px
    }
}

fn lanczos(x: f32, a: f32) -> f32 {
    if x < a {
        sinc(x) * sinc(x / a)
    } else {
        0.0
    }
}

/// Per-output sample weights along one axis: output `d` reads source
/// samples `start + k` (edge-clamped) with weight `weights[k]`.
pub(crate) struct WeightRow {
    pub(crate) start: isize,
    pub(crate) weights: Vec<f32>,
}

pub(crate) fn build_weights(
    src_len: usize,
    dst_len: usize,
    filter: ResizeFilter,
) -> Vec<WeightRow> {
    let scale = src_len as f32 / dst_len as f32;
    // Widen the kernel when minifying so it acts as an antialias filter.
    let filter_scale = scale.max(1.0);
    let support = filter.support() * filter_scale;
    let mut rows = Vec::with_capacity(dst_len);
    for d in 0..dst_len {
        let center = (d as f32 + 0.5) * scale - 0.5;
        let start = (center - support).ceil() as isize;
        let end = (center + support).floor() as isize;
        let mut weights = Vec::with_capacity((end - start + 1).max(0) as usize);
        let mut sum = 0.0f32;
        for s in start..=end {
            let w = filter.eval((s as f32 - center) / filter_scale);
            weights.push(w);
            sum += w;
        }
        if sum.abs() > 1e-8 {
            for w in weights.iter_mut() {
                *w /= sum;
            }
        }
        rows.push(WeightRow { start, weights });
    }
    rows
}

/// The weights of one axis as a tap table with the edge clamp folded in.
fn resize_taps(src_len: usize, dst_len: usize, filter: ResizeFilter) -> Taps {
    let rows = build_weights(src_len, dst_len, filter);
    let mut taps = Taps::with_capacity(dst_len, rows.first().map_or(0, |r| r.weights.len()));
    for row in &rows {
        for (k, &w) in row.weights.iter().enumerate() {
            taps.push(row.start + k as isize, src_len, w);
        }
        taps.finish_output();
    }
    taps
}

/// Resize with the given filter (separable, horizontal then vertical).
pub fn resize(img: &ImageF32, new_w: usize, new_h: usize, filter: ResizeFilter) -> ImageF32 {
    assert!(new_w > 0 && new_h > 0, "zero target dimension");
    if new_w == img.width && new_h == img.height {
        return img.clone();
    }
    let mut rows = RowResize::new(img.width, img.height, new_w, new_h, filter);
    rows.push_rows(&img.data);
    rows.finish()
}

/// A [`resize`] fed source rows as they are produced.
///
/// The horizontal pass runs on the rows as they arrive and
/// [`RowResize::finish`] runs the vertical pass, so a caller that
/// produces rows on the fly never holds a full-size source plane.
/// [`resize`] is this type fed one whole image.
pub struct RowResize {
    pass: PassH,
    taps_v: Taps,
}

impl RowResize {
    /// Resize a `src_w × src_h` plane to `new_w × new_h`.
    pub fn new(
        src_w: usize,
        src_h: usize,
        new_w: usize,
        new_h: usize,
        filter: ResizeFilter,
    ) -> Self {
        assert!(new_w > 0 && new_h > 0, "zero target dimension");
        RowResize {
            pass: PassH::new(resize_taps(src_w, new_w, filter), src_w, src_h),
            taps_v: resize_taps(src_h, new_h, filter),
        }
    }

    /// Feed the next whole source rows, top to bottom.
    pub fn push_rows(&mut self, rows: &[f32]) {
        self.pass.push_rows(rows);
    }

    /// Run the vertical pass once every source row has been fed.
    pub fn finish(self) -> ImageF32 {
        pass_v(&self.pass.finish(), &self.taps_v)
    }
}

/// Resize preserving aspect ratio so the longer side becomes `max_side`
/// (the "fit inside NxN box" rule Facebook's static ladder uses; images
/// already smaller are returned unchanged).
pub fn resize_fit(img: &ImageF32, max_side: usize, filter: ResizeFilter) -> ImageF32 {
    let longest = img.width.max(img.height);
    if longest <= max_side {
        return img.clone();
    }
    let scale = max_side as f64 / longest as f64;
    let new_w = ((img.width as f64 * scale).round() as usize).max(1);
    let new_h = ((img.height as f64 * scale).round() as usize).max(1);
    resize(img, new_w, new_h, filter)
}

/// Crop a rectangle (clamped to bounds). Cropping is linear; the paper
/// notes PSPs crop at arbitrary boundaries which the proxy approximates
/// at 8×8 granularity — callers choose the geometry.
pub fn crop(img: &ImageF32, x0: usize, y0: usize, w: usize, h: usize) -> ImageF32 {
    let x0 = x0.min(img.width.saturating_sub(1));
    let y0 = y0.min(img.height.saturating_sub(1));
    let w = w.min(img.width - x0).max(1);
    let h = h.min(img.height - y0).max(1);
    let mut data = Vec::with_capacity(w * h);
    for y in y0..y0 + h {
        let row = y * img.width + x0;
        data.extend_from_slice(&img.data[row..row + w]);
    }
    ImageF32 { width: w, height: h, data }
}

/// Unsharp-mask sharpening: `out = img + amount * (img - blur(img))`.
/// Linear in the image for fixed parameters.
pub fn sharpen(img: &ImageF32, sigma: f32, amount: f32) -> ImageF32 {
    if amount == 0.0 {
        return img.clone();
    }
    let mut out = crate::filter::gaussian_blur(img, sigma);
    for (o, &v) in out.data.iter_mut().zip(&img.data) {
        *o = v + amount * (v - *o);
    }
    out
}

/// Gamma correction on the nominal \[0,255\] range. **Nonlinear** for
/// `gamma != 1.0` — the one pipeline stage Eq. 2 cannot commute through,
/// which the reverse-engineering search must therefore identify exactly.
pub fn gamma_correct(img: &ImageF32, gamma: f32) -> ImageF32 {
    if (gamma - 1.0).abs() < 1e-6 {
        return img.clone();
    }
    let inv = 1.0 / gamma;
    let mut out = ImageF32::new(img.width, img.height);
    for (o, &v) in out.data.iter_mut().zip(img.data.iter()) {
        let n = (v / 255.0).clamp(0.0, 1.0);
        *o = n.powf(inv) * 255.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: usize, h: usize) -> ImageF32 {
        let mut img = ImageF32::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, (x as f32 * 2.0 + y as f32 * 3.0) % 256.0);
            }
        }
        img
    }

    #[test]
    fn kernels_are_normalized_at_zero() {
        for f in ResizeFilter::all() {
            assert!(f.eval(0.0) > 0.8, "{f:?}"); // Mitchell(0) = 8/9
            assert_eq!(f.eval(f.support() + 0.1), 0.0, "{f:?} beyond support");
        }
    }

    #[test]
    fn resize_constant_stays_constant() {
        let img = ImageF32::from_raw(40, 30, vec![123.0; 1200]).unwrap();
        for f in ResizeFilter::all() {
            let out = resize(&img, 17, 11, *f);
            for &v in &out.data {
                assert!((v - 123.0).abs() < 0.01, "{f:?}: {v}");
            }
        }
    }

    #[test]
    fn resize_identity_is_noop() {
        let img = gradient(20, 20);
        let out = resize(&img, 20, 20, ResizeFilter::Lanczos3);
        assert_eq!(out.data, img.data);
    }

    #[test]
    fn downsample_then_dims() {
        let img = gradient(100, 60);
        let out = resize(&img, 25, 15, ResizeFilter::Mitchell);
        assert_eq!((out.width, out.height), (25, 15));
    }

    #[test]
    fn resize_is_linear() {
        let a = gradient(32, 24);
        let mut b = ImageF32::new(32, 24);
        for (i, v) in b.data.iter_mut().enumerate() {
            *v = ((i * 31) % 256) as f32;
        }
        for f in [ResizeFilter::Triangle, ResizeFilter::Lanczos3, ResizeFilter::Mitchell] {
            let lhs = resize(&a.scale(2.0).add(&b.scale(-1.0)), 13, 9, f);
            let rhs = resize(&a, 13, 9, f).scale(2.0).add(&resize(&b, 13, 9, f).scale(-1.0));
            for i in 0..lhs.data.len() {
                assert!((lhs.data[i] - rhs.data[i]).abs() < 1e-2, "{f:?} at {i}");
            }
        }
    }

    #[test]
    fn resize_fit_rules() {
        let img = gradient(200, 100);
        let out = resize_fit(&img, 50, ResizeFilter::Triangle);
        assert_eq!((out.width, out.height), (50, 25));
        // Already small: untouched.
        let small = gradient(30, 20);
        let out = resize_fit(&small, 50, ResizeFilter::Triangle);
        assert_eq!((out.width, out.height), (30, 20));
    }

    #[test]
    fn crop_extracts_rectangle() {
        let img = gradient(10, 10);
        let out = crop(&img, 2, 3, 4, 5);
        assert_eq!((out.width, out.height), (4, 5));
        assert_eq!(out.get(0, 0), img.get(2, 3));
        assert_eq!(out.get(3, 4), img.get(5, 7));
    }

    #[test]
    fn crop_clamps_to_bounds() {
        let img = gradient(10, 10);
        let out = crop(&img, 8, 8, 100, 100);
        assert_eq!((out.width, out.height), (2, 2));
    }

    #[test]
    fn sharpen_amount_zero_is_identity() {
        let img = gradient(16, 16);
        assert_eq!(sharpen(&img, 1.0, 0.0).data, img.data);
    }

    #[test]
    fn sharpen_increases_edge_contrast() {
        let mut img = ImageF32::new(16, 16);
        for y in 0..16 {
            for x in 8..16 {
                img.set(x, y, 200.0);
            }
        }
        let out = sharpen(&img, 1.0, 1.0);
        // Overshoot on the bright side of the edge.
        assert!(out.get(8, 8) > img.get(8, 8));
        assert!(out.get(7, 8) < img.get(7, 8));
    }

    #[test]
    fn gamma_identity_and_monotone() {
        let img = gradient(8, 8);
        assert_eq!(gamma_correct(&img, 1.0).data, img.data);
        let g = gamma_correct(&img, 2.2);
        // Gamma > 1 brightens midtones.
        let mid = ImageF32::from_raw(1, 1, vec![128.0]).unwrap();
        assert!(gamma_correct(&mid, 2.2).data[0] > 128.0);
        assert!(gamma_correct(&mid, 0.5).data[0] < 128.0);
        // Endpoints fixed.
        assert!((g.data[0] - img.data[0]).abs() < 0.5 || img.data[0] > 0.0);
        let ends = ImageF32::from_raw(2, 1, vec![0.0, 255.0]).unwrap();
        let ge = gamma_correct(&ends, 2.2);
        assert!(ge.data[0].abs() < 1e-3);
        assert!((ge.data[1] - 255.0).abs() < 1e-3);
    }

    #[test]
    fn distinct_filters_give_distinct_downsamples() {
        // The reverse-engineering search relies on filters being
        // distinguishable by output.
        let mut img = ImageF32::new(64, 64);
        for (i, v) in img.data.iter_mut().enumerate() {
            *v = (((i * 2654435761) >> 8) % 256) as f32;
        }
        let outs: Vec<ImageF32> =
            ResizeFilter::all().iter().map(|f| resize(&img, 17, 17, *f)).collect();
        for i in 0..outs.len() {
            for j in i + 1..outs.len() {
                let diff: f32 =
                    outs[i].data.iter().zip(outs[j].data.iter()).map(|(a, b)| (a - b).abs()).sum();
                assert!(diff > 1.0, "filters {i} and {j} indistinguishable");
            }
        }
    }
}
