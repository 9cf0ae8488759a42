//! Per-sample reference implementations of the resampling passes, kept
//! as test oracles for the tap-table row passes in [`crate::filter`] and
//! [`crate::resize`].
//!
//! Each oracle reads every tap through [`ImageF32::get_clamped`] and
//! accumulates into an `f32` that starts at `0.0`. The row passes must
//! match them bit for bit (`to_bits()` equality) on every input.

use crate::image::ImageF32;
use crate::resize::{build_weights, ResizeFilter};

/// Reference horizontal convolution.
pub(crate) fn convolve_h(img: &ImageF32, kernel: &[f32]) -> ImageF32 {
    assert!(kernel.len() % 2 == 1, "kernel length must be odd");
    let r = (kernel.len() / 2) as isize;
    let mut out = ImageF32::new(img.width, img.height);
    for y in 0..img.height {
        for x in 0..img.width {
            let mut acc = 0.0f32;
            for (k, &kv) in kernel.iter().enumerate() {
                acc += kv * img.get_clamped(x as isize + k as isize - r, y as isize);
            }
            out.set(x, y, acc);
        }
    }
    out
}

/// Reference vertical convolution.
pub(crate) fn convolve_v(img: &ImageF32, kernel: &[f32]) -> ImageF32 {
    assert!(kernel.len() % 2 == 1, "kernel length must be odd");
    let r = (kernel.len() / 2) as isize;
    let mut out = ImageF32::new(img.width, img.height);
    for y in 0..img.height {
        for x in 0..img.width {
            let mut acc = 0.0f32;
            for (k, &kv) in kernel.iter().enumerate() {
                acc += kv * img.get_clamped(x as isize, y as isize + k as isize - r);
            }
            out.set(x, y, acc);
        }
    }
    out
}

/// Reference separable resize (horizontal pass, then vertical).
pub(crate) fn resize(img: &ImageF32, new_w: usize, new_h: usize, filter: ResizeFilter) -> ImageF32 {
    assert!(new_w > 0 && new_h > 0, "zero target dimension");
    if new_w == img.width && new_h == img.height {
        return img.clone();
    }
    let wrows = build_weights(img.width, new_w, filter);
    let mut tmp = ImageF32::new(new_w, img.height);
    for y in 0..img.height {
        for (x, row) in wrows.iter().enumerate() {
            let mut acc = 0.0f32;
            for (k, &w) in row.weights.iter().enumerate() {
                acc += w * img.get_clamped(row.start + k as isize, y as isize);
            }
            tmp.set(x, y, acc);
        }
    }
    let hrows = build_weights(img.height, new_h, filter);
    let mut out = ImageF32::new(new_w, new_h);
    for (y, row) in hrows.iter().enumerate() {
        for x in 0..new_w {
            let mut acc = 0.0f32;
            for (k, &w) in row.weights.iter().enumerate() {
                acc += w * tmp.get_clamped(x as isize, row.start + k as isize);
            }
            out.set(x, y, acc);
        }
    }
    out
}

/// Reference crop (per-sample copy).
pub(crate) fn crop(img: &ImageF32, x0: usize, y0: usize, w: usize, h: usize) -> ImageF32 {
    let x0 = x0.min(img.width.saturating_sub(1));
    let y0 = y0.min(img.height.saturating_sub(1));
    let w = w.min(img.width - x0).max(1);
    let h = h.min(img.height - y0).max(1);
    let mut out = ImageF32::new(w, h);
    for y in 0..h {
        for x in 0..w {
            out.set(x, y, img.get(x0 + x, y0 + y));
        }
    }
    out
}

/// Reference unsharp mask over the reference convolutions.
pub(crate) fn sharpen(img: &ImageF32, sigma: f32, amount: f32) -> ImageF32 {
    if amount == 0.0 {
        return img.clone();
    }
    let k = crate::filter::gaussian_kernel(sigma);
    let blurred = convolve_v(&convolve_h(img, &k), &k);
    let mut out = ImageF32::new(img.width, img.height);
    for i in 0..img.data.len() {
        out.data[i] = img.data[i] + amount * (img.data[i] - blurred.data[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Samples with signed, fractional and exactly-zero values (deltas
    /// are signed; `-0.0` and zero runs exercise the `0.0` accumulator
    /// start).
    fn arb_image(max_w: usize, max_h: usize) -> impl Strategy<Value = ImageF32> {
        (1usize..=max_w, 1usize..=max_h, any::<u32>()).prop_map(|(w, h, seed)| {
            let mut img = ImageF32::new(w, h);
            let mut s = seed | 1;
            for v in img.data.iter_mut() {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                *v = match s >> 29 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((s >> 8) % 100_000) as f32 / 97.0 - 400.0,
                };
            }
            img
        })
    }

    fn same_bits(a: &ImageF32, b: &ImageF32) -> bool {
        a.width == b.width
            && a.height == b.height
            && a.data.iter().zip(&b.data).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn resize_matches_oracle(img in arb_image(40, 40), ow in 1usize..60, oh in 1usize..60,
                                 f in 0usize..6) {
            // Covers downscale and upscale per axis, 1-px sources and
            // targets, and lines narrower than the kernel's tap count.
            let filter = ResizeFilter::all()[f];
            let fast = crate::resize::resize(&img, ow, oh, filter);
            let slow = resize(&img, ow, oh, filter);
            prop_assert!(same_bits(&fast, &slow), "{filter:?} {}x{} -> {ow}x{oh}",
                         img.width, img.height);
            if (ow, oh) != (img.width, img.height) {
                // One row per call runs the staging of partial groups.
                let mut rows = crate::resize::RowResize::new(img.width, img.height, ow, oh, filter);
                for row in img.data.chunks_exact(img.width) {
                    rows.push_rows(row);
                }
                prop_assert!(same_bits(&rows.finish(), &slow), "RowResize {filter:?}");
            }
        }

        #[test]
        fn convolutions_match_oracle(img in arb_image(30, 30), radius in 0usize..8,
                                     seed in any::<u32>()) {
            let mut s = seed | 1;
            let kernel: Vec<f32> = (0..2 * radius + 1)
                .map(|_| {
                    s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                    ((s >> 16) % 2000) as f32 / 1000.0 - 1.0
                })
                .collect();
            prop_assert!(same_bits(&crate::filter::convolve_h(&img, &kernel),
                                   &convolve_h(&img, &kernel)));
            prop_assert!(same_bits(&crate::filter::convolve_v(&img, &kernel),
                                   &convolve_v(&img, &kernel)));
        }

        #[test]
        fn sharpen_matches_oracle(img in arb_image(40, 30), sigma in 0.3f32..2.5,
                                  amount in -1.0f32..2.0) {
            prop_assert!(same_bits(&crate::resize::sharpen(&img, sigma, amount),
                                   &sharpen(&img, sigma, amount)));
        }

        #[test]
        fn crop_matches_oracle(img in arb_image(30, 30), x in 0usize..34, y in 0usize..34,
                               w in 1usize..40, h in 1usize..40) {
            // Rectangles past every edge are clamped the same way.
            prop_assert!(same_bits(&crate::resize::crop(&img, x, y, w, h),
                                   &crop(&img, x, y, w, h)));
        }
    }

    #[test]
    fn photo_sized_resizes_match_oracle() {
        // The PSP ladder's shapes: 1024x768 -> 720x540 Lanczos3 and a
        // thumbnail-sized Triangle downscale, plus an upscale.
        let mut img = ImageF32::new(1024, 768);
        for (i, v) in img.data.iter_mut().enumerate() {
            *v = ((i * 2654435761) >> 7) as f32 % 256.0;
        }
        for (w, h, f) in [
            (720, 540, ResizeFilter::Lanczos3),
            (75, 56, ResizeFilter::Triangle),
            (1100, 800, ResizeFilter::Mitchell),
        ] {
            assert!(same_bits(&crate::resize::resize(&img, w, h, f), &resize(&img, w, h, f)));
        }
        let k = crate::filter::gaussian_kernel(0.8);
        assert!(same_bits(&crate::filter::convolve_h(&img, &k), &convolve_h(&img, &k)));
        assert!(same_bits(&crate::filter::convolve_v(&img, &k), &convolve_v(&img, &k)));
    }
}
