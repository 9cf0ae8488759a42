//! Convolution building blocks: separable kernels, Gaussian blur, Sobel
//! gradients. Edge handling is clamp-to-edge throughout.

use crate::image::ImageF32;

/// A 1-D resampling pass as a tap table, built once per call.
///
/// Output sample `d` is `Σ weight[j] · src[index[j]]` over the taps of
/// `d`, accumulated in table order into an `f32` that starts at `0.0`.
/// Clamp-to-edge is folded into `index` when the table is built, so the
/// row passes below read plain slices and never test a bound per sample.
/// Resize and convolution both run through these passes; their outputs
/// are bit-identical to the per-sample `get_clamped` loops they replace
/// (the same weights, summed in the same order).
pub(crate) struct Taps {
    /// `ends[d]` is one past the last tap of output `d`.
    ends: Vec<usize>,
    index: Vec<usize>,
    weight: Vec<f32>,
}

impl Taps {
    /// Empty table for `outputs` samples of about `taps_each` taps.
    pub(crate) fn with_capacity(outputs: usize, taps_each: usize) -> Self {
        Taps {
            ends: Vec::with_capacity(outputs),
            index: Vec::with_capacity(outputs * taps_each),
            weight: Vec::with_capacity(outputs * taps_each),
        }
    }

    /// Append a tap of the current output, reading source sample `src`
    /// clamped into `0..src_len`.
    #[inline]
    pub(crate) fn push(&mut self, src: isize, src_len: usize, weight: f32) {
        self.index.push(src.clamp(0, src_len as isize - 1) as usize);
        self.weight.push(weight);
    }

    /// Close the current output sample.
    pub(crate) fn finish_output(&mut self) {
        self.ends.push(self.index.len());
    }

    pub(crate) fn outputs(&self) -> usize {
        self.ends.len()
    }

    #[inline]
    fn taps(&self, d: usize) -> (&[usize], &[f32]) {
        let start = if d == 0 { 0 } else { self.ends[d - 1] };
        let end = self.ends[d];
        (&self.index[start..end], &self.weight[start..end])
    }

    /// Taps of a centred odd kernel applied at every position of a
    /// `len`-sample line.
    fn kernel(len: usize, kernel: &[f32]) -> Self {
        assert!(kernel.len() % 2 == 1, "kernel length must be odd");
        let r = (kernel.len() / 2) as isize;
        let mut taps = Taps::with_capacity(len, kernel.len());
        for x in 0..len as isize {
            for (k, &kv) in kernel.iter().enumerate() {
                taps.push(x + k as isize - r, len, kv);
            }
            taps.finish_output();
        }
        taps
    }
}

/// Run `N` rows through the same `taps`. Each output sample sums its
/// own taps in table order from `0.0`; sharing each tap's index and
/// weight across `N` rows lets `N` independent add chains overlap.
#[inline]
fn rows_h<const N: usize>(src: [&[f32]; N], taps: &Taps, mut dst: [&mut [f32]; N]) {
    for d in 0..taps.outputs() {
        let (index, weight) = taps.taps(d);
        let mut acc = [0.0f32; N];
        for (&i, &w) in index.iter().zip(weight) {
            for (a, s) in acc.iter_mut().zip(&src) {
                *a += w * s[i];
            }
        }
        for (o, a) in dst.iter_mut().zip(acc) {
            o[d] = a;
        }
    }
}

/// A horizontal pass fed whole source rows, top to bottom. Groups of
/// four rows run straight from the caller's slice; a partial group
/// waits in `staged` for the next call or for [`PassH::finish`].
pub(crate) struct PassH {
    taps: Taps,
    src_w: usize,
    staged: Vec<f32>,
    out: ImageF32,
    /// Output rows written so far.
    rows: usize,
}

impl PassH {
    /// A pass of `taps` over a `src_w × src_h` source.
    pub(crate) fn new(taps: Taps, src_w: usize, src_h: usize) -> Self {
        let out = ImageF32::new(taps.outputs(), src_h);
        PassH { taps, src_w, staged: Vec::new(), out, rows: 0 }
    }

    /// Feed the next source rows (`src.len()` a multiple of the width).
    pub(crate) fn push_rows(&mut self, mut src: &[f32]) {
        let w = self.src_w;
        if w == 0 || self.out.width == 0 {
            return;
        }
        assert_eq!(src.len() % w, 0, "whole rows");
        if !self.staged.is_empty() {
            let take = (4 * w - self.staged.len()).min(src.len());
            self.staged.extend_from_slice(&src[..take]);
            src = &src[take..];
            if self.staged.len() < 4 * w {
                return;
            }
            let staged = std::mem::take(&mut self.staged);
            self.quad(&staged);
            self.staged = staged;
            self.staged.clear();
        }
        let mut quads = src.chunks_exact(4 * w);
        for quad in &mut quads {
            self.quad(quad);
        }
        self.staged.extend_from_slice(quads.remainder());
    }

    /// Run four source rows.
    fn quad(&mut self, src: &[f32]) {
        let (w, out_w) = (self.src_w, self.out.width);
        let dst = &mut self.out.data[self.rows * out_w..(self.rows + 4) * out_w];
        let mut dst = dst.chunks_exact_mut(out_w);
        let dst: [&mut [f32]; 4] = std::array::from_fn(|_| dst.next().expect("four rows"));
        rows_h(std::array::from_fn(|j| &src[j * w..(j + 1) * w]), &self.taps, dst);
        self.rows += 4;
    }

    /// Run the rows still staged; every source row must have been fed.
    pub(crate) fn finish(mut self) -> ImageF32 {
        let (w, out_w) = (self.src_w, self.out.width);
        if w == 0 || out_w == 0 {
            return self.out;
        }
        for row in self.staged.chunks_exact(w) {
            let dst = &mut self.out.data[self.rows * out_w..(self.rows + 1) * out_w];
            rows_h([row], &self.taps, [dst]);
            self.rows += 1;
        }
        assert_eq!(self.rows, self.out.height, "rows fed");
        self.out
    }
}

/// Run every column of `img` through `taps`. Each output row starts at
/// `0.0` and accumulates whole weighted source rows, so every sample sees
/// the same sequence of adds as a per-column loop would.
pub(crate) fn pass_v(img: &ImageF32, taps: &Taps) -> ImageF32 {
    let w = img.width;
    let mut out = ImageF32::new(w, taps.outputs());
    if w == 0 || img.height == 0 {
        return out;
    }
    for (d, dst) in out.data.chunks_exact_mut(w).enumerate() {
        let (index, weight) = taps.taps(d);
        for (&i, &wk) in index.iter().zip(weight) {
            let src = &img.data[i * w..(i + 1) * w];
            for (o, &s) in dst.iter_mut().zip(src) {
                *o += wk * s;
            }
        }
    }
    out
}

/// Convolve horizontally with a 1-D kernel (odd length).
pub fn convolve_h(img: &ImageF32, kernel: &[f32]) -> ImageF32 {
    let mut pass = PassH::new(Taps::kernel(img.width, kernel), img.width, img.height);
    pass.push_rows(&img.data);
    pass.finish()
}

/// Convolve vertically with a 1-D kernel (odd length).
pub fn convolve_v(img: &ImageF32, kernel: &[f32]) -> ImageF32 {
    pass_v(img, &Taps::kernel(img.height, kernel))
}

/// Separable convolution with the same 1-D kernel in both axes.
pub fn convolve_separable(img: &ImageF32, kernel: &[f32]) -> ImageF32 {
    convolve_v(&convolve_h(img, kernel), kernel)
}

/// Normalized 1-D Gaussian kernel with radius `ceil(3σ)`.
pub fn gaussian_kernel(sigma: f32) -> Vec<f32> {
    assert!(sigma > 0.0, "sigma must be positive");
    let r = (3.0 * sigma).ceil() as isize;
    let mut k: Vec<f32> =
        (-r..=r).map(|i| (-((i * i) as f32) / (2.0 * sigma * sigma)).exp()).collect();
    let sum: f32 = k.iter().sum();
    for v in k.iter_mut() {
        *v /= sum;
    }
    k
}

/// Gaussian blur.
pub fn gaussian_blur(img: &ImageF32, sigma: f32) -> ImageF32 {
    convolve_separable(img, &gaussian_kernel(sigma))
}

/// Sobel gradients: returns (gx, gy).
pub fn sobel(img: &ImageF32) -> (ImageF32, ImageF32) {
    // Separable decomposition: d = [-1 0 1], s = [1 2 1].
    let d = [-1.0f32, 0.0, 1.0];
    let s = [1.0f32, 2.0, 1.0];
    let gx = convolve_v(&convolve_h(img, &d), &s);
    let gy = convolve_h(&convolve_v(img, &d), &s);
    (gx, gy)
}

/// Gradient magnitude image from Sobel responses.
pub fn gradient_magnitude(gx: &ImageF32, gy: &ImageF32) -> ImageF32 {
    assert_eq!(gx.width, gy.width);
    assert_eq!(gx.height, gy.height);
    ImageF32 {
        width: gx.width,
        height: gx.height,
        data: gx.data.iter().zip(gy.data.iter()).map(|(&x, &y)| (x * x + y * y).sqrt()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_kernel_normalized_and_symmetric() {
        for sigma in [0.5f32, 1.0, 1.6, 3.0] {
            let k = gaussian_kernel(sigma);
            assert!(k.len() % 2 == 1);
            let sum: f32 = k.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "sigma {sigma}");
            for i in 0..k.len() / 2 {
                assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn blur_preserves_constant() {
        let img = ImageF32::from_raw(16, 16, vec![77.0; 256]).unwrap();
        let out = gaussian_blur(&img, 1.4);
        for &v in &out.data {
            assert!((v - 77.0).abs() < 1e-3);
        }
    }

    #[test]
    fn blur_reduces_variance() {
        let mut img = ImageF32::new(32, 32);
        for (i, v) in img.data.iter_mut().enumerate() {
            *v = if i % 2 == 0 { 255.0 } else { 0.0 };
        }
        let out = gaussian_blur(&img, 1.0);
        let var = |im: &ImageF32| {
            let m = im.mean();
            im.data.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / im.data.len() as f32
        };
        assert!(var(&out) < var(&img) / 4.0);
    }

    #[test]
    fn sobel_detects_vertical_edge() {
        let mut img = ImageF32::new(16, 16);
        for y in 0..16 {
            for x in 8..16 {
                img.set(x, y, 255.0);
            }
        }
        let (gx, gy) = sobel(&img);
        // Strong horizontal gradient at the edge column, none vertically.
        assert!(gx.get(8, 8).abs() > 500.0);
        assert!(gy.get(8, 8).abs() < 1.0);
    }

    #[test]
    fn convolution_is_linear() {
        let mut a = ImageF32::new(8, 8);
        let mut b = ImageF32::new(8, 8);
        for i in 0..64 {
            a.data[i] = (i as f32 * 1.7).sin() * 50.0;
            b.data[i] = (i as f32 * 0.3).cos() * 30.0;
        }
        let k = gaussian_kernel(1.0);
        let lhs = convolve_separable(&a.add(&b), &k);
        let rhs = convolve_separable(&a, &k).add(&convolve_separable(&b, &k));
        for i in 0..64 {
            assert!((lhs.data[i] - rhs.data[i]).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_panics() {
        let _ = convolve_h(&ImageF32::new(4, 4), &[0.5, 0.5]);
    }
}
