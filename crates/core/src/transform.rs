//! The linear-operator model of PSP server-side processing (paper §3.3).
//!
//! "Many interesting image transformations such as filtering, cropping,
//! scaling (resizing), and overlapping can be expressed by linear
//! operators" — a [`TransformSpec`] is one concrete `A`: an optional
//! crop, a resize with a chosen filter, optional unsharp sharpening, and
//! a gamma correction. All stages except gamma are linear; gamma is the
//! paper's example of a one-to-one nonlinear mapping that must be
//! inverted around the linear reconstruction instead (§3.3, "Extensions"
//! discussion of color remapping).

use p3_vision::image::ImageF32;
use p3_vision::resize::{crop, gamma_correct, resize, sharpen, ResizeFilter, RowResize};

/// A concrete server-side processing pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformSpec {
    /// Crop rectangle `(x, y, w, h)` applied first, if any.
    pub crop: Option<(usize, usize, usize, usize)>,
    /// Output dimensions of the resize stage (applied after crop); `None`
    /// keeps the size.
    pub resize_to: Option<(usize, usize)>,
    /// Resampling kernel.
    pub filter: ResizeFilter,
    /// Unsharp mask `(sigma, amount)`; `amount = 0` disables.
    pub sharpen: (f32, f32),
    /// Gamma correction; `1.0` disables (the only nonlinear stage).
    pub gamma: f32,
}

impl Default for TransformSpec {
    fn default() -> Self {
        Self {
            crop: None,
            resize_to: None,
            filter: ResizeFilter::Triangle,
            sharpen: (1.0, 0.0),
            gamma: 1.0,
        }
    }
}

impl TransformSpec {
    /// The identity transform.
    pub fn identity() -> Self {
        Self::default()
    }

    /// Plain resize with a filter.
    pub fn resize(w: usize, h: usize, filter: ResizeFilter) -> Self {
        Self { resize_to: Some((w, h)), filter, ..Self::default() }
    }

    /// Apply the full pipeline (including gamma) to one channel.
    pub fn apply(&self, ch: &ImageF32) -> ImageF32 {
        let g = self.apply_linear(ch);
        if self.is_linear() {
            g
        } else {
            gamma_correct(&g, self.gamma)
        }
    }

    /// Apply only the linear stages (crop → resize → sharpen). This is
    /// the `A` of paper Eq. 2 — what the recipient applies to the
    /// secret + correction delta. A no-op stage passes its input on
    /// without a copy.
    pub fn apply_linear(&self, ch: &ImageF32) -> ImageF32 {
        let mut img = self.crop.map(|(x, y, w, h)| crop(ch, x, y, w, h));
        if let Some((w, h)) = self.resize_to {
            let src = img.as_ref().unwrap_or(ch);
            if (w, h) != (src.width, src.height) {
                img = Some(resize(src, w, h, self.filter));
            }
        }
        if let Some(sharp) = self.sharpen_stage(img.as_ref().unwrap_or(ch)) {
            img = Some(sharp);
        }
        img.unwrap_or_else(|| ch.clone())
    }

    /// [`apply_linear`](Self::apply_linear) for a `w × h` channel fed one
    /// row at a time. Without a crop, a resize to another size runs its
    /// horizontal pass on each row as it arrives; any other spec gathers
    /// the rows into a plane first.
    pub fn linear_rows(&self, w: usize, h: usize) -> LinearRows {
        let stage = match self.resize_to {
            Some((rw, rh)) if self.crop.is_none() && (rw, rh) != (w, h) => {
                RowStage::Resize(RowResize::new(w, h, rw, rh, self.filter))
            }
            _ => {
                RowStage::Gather(ImageF32 { width: w, height: h, data: Vec::with_capacity(w * h) })
            }
        };
        LinearRows { spec: *self, stage }
    }

    /// The sharpen stage, `None` when it is a no-op.
    fn sharpen_stage(&self, img: &ImageF32) -> Option<ImageF32> {
        let (sigma, amount) = self.sharpen;
        (amount != 0.0).then(|| sharpen(img, sigma, amount))
    }

    /// True if the linear stages leave a `w × h` channel unchanged: no
    /// crop, no resize to another size and no sharpening.
    pub fn linear_is_identity(&self, w: usize, h: usize) -> bool {
        self.crop.is_none()
            && self.resize_to.is_none_or(|dims| dims == (w, h))
            && self.sharpen.1 == 0.0
    }

    /// Invert the nonlinear tail (gamma) of the pipeline — used by the
    /// recipient before adding the linearly-transformed delta, per the
    /// paper's one-to-one-mapping argument.
    pub fn invert_nonlinear(&self, ch: &ImageF32) -> ImageF32 {
        if (self.gamma - 1.0).abs() < 1e-6 {
            ch.clone()
        } else {
            gamma_correct(ch, 1.0 / self.gamma)
        }
    }

    /// Re-apply the nonlinear tail after the linear reconstruction.
    pub fn reapply_nonlinear(&self, ch: &ImageF32) -> ImageF32 {
        gamma_correct(ch, self.gamma)
    }

    /// Output dimensions for an input of the given size.
    pub fn output_dims(&self, w: usize, h: usize) -> (usize, usize) {
        let (w, h) = match self.crop {
            Some((x, y, cw, ch)) => {
                (cw.min(w.saturating_sub(x)).max(1), ch.min(h.saturating_sub(y)).max(1))
            }
            None => (w, h),
        };
        match self.resize_to {
            Some(dims) => dims,
            None => (w, h),
        }
    }

    /// True if the whole pipeline is linear (gamma = 1).
    pub fn is_linear(&self) -> bool {
        (self.gamma - 1.0).abs() < 1e-6
    }
}

/// The linear stages of a [`TransformSpec`] applied to one channel fed
/// row by row, from [`TransformSpec::linear_rows`]. The output is
/// bit-identical to [`TransformSpec::apply_linear`] of the same rows.
pub struct LinearRows {
    spec: TransformSpec,
    stage: RowStage,
}

enum RowStage {
    /// A leading resize, run on each row as it arrives.
    Resize(RowResize),
    /// The rows so far, for `apply_linear` once all have arrived.
    Gather(ImageF32),
}

impl LinearRows {
    /// Feed the next row, top to bottom.
    pub fn push_row(&mut self, row: &[f32]) {
        match &mut self.stage {
            RowStage::Resize(resize) => resize.push_rows(row),
            RowStage::Gather(img) => img.data.extend_from_slice(row),
        }
    }

    /// The transformed channel, once every row has been fed.
    pub fn finish(self) -> ImageF32 {
        match self.stage {
            RowStage::Resize(resize) => {
                let img = resize.finish();
                self.spec.sharpen_stage(&img).unwrap_or(img)
            }
            RowStage::Gather(img) => {
                assert_eq!(img.data.len(), img.width * img.height, "rows fed");
                self.spec.apply_linear(&img)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(w: usize, h: usize, seed: u32) -> ImageF32 {
        let mut img = ImageF32::new(w, h);
        let mut s = seed;
        for v in img.data.iter_mut() {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = (s >> 24) as f32;
        }
        img
    }

    #[test]
    fn identity_is_identity() {
        let img = probe(20, 16, 1);
        let t = TransformSpec::identity();
        assert_eq!(t.apply(&img).data, img.data);
        assert!(t.is_linear());
    }

    #[test]
    fn linear_stages_satisfy_superposition() {
        let a = probe(32, 32, 2);
        let b = probe(32, 32, 3);
        let t = TransformSpec {
            crop: Some((4, 4, 24, 24)),
            resize_to: Some((11, 13)),
            filter: ResizeFilter::Lanczos3,
            sharpen: (1.0, 0.8),
            gamma: 1.0,
        };
        let lhs = t.apply_linear(&a.add(&b));
        let rhs = t.apply_linear(&a).add(&t.apply_linear(&b));
        for i in 0..lhs.data.len() {
            assert!((lhs.data[i] - rhs.data[i]).abs() < 1e-2, "at {i}");
        }
    }

    #[test]
    fn row_fed_linear_stages_match_apply_linear() {
        let img = probe(37, 29, 7);
        let specs = [
            TransformSpec {
                sharpen: (0.8, 0.5),
                ..TransformSpec::resize(13, 31, ResizeFilter::Lanczos3)
            },
            TransformSpec::resize(37, 29, ResizeFilter::Mitchell),
            TransformSpec {
                crop: Some((3, 5, 20, 17)),
                resize_to: Some((9, 8)),
                ..TransformSpec::default()
            },
            TransformSpec { sharpen: (1.0, 0.7), ..TransformSpec::default() },
        ];
        for t in specs {
            let mut rows = t.linear_rows(img.width, img.height);
            for row in img.data.chunks_exact(img.width) {
                rows.push_row(row);
            }
            let (got, want) = (rows.finish(), t.apply_linear(&img));
            assert_eq!((got.width, got.height), (want.width, want.height), "{t:?}");
            assert!(
                got.data.iter().zip(&want.data).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{t:?}"
            );
        }
    }

    #[test]
    fn gamma_breaks_linearity_but_inverts() {
        let a = probe(16, 16, 5);
        let t = TransformSpec { gamma: 2.2, ..TransformSpec::default() };
        assert!(!t.is_linear());
        let fwd = t.apply(&a);
        let back = t.invert_nonlinear(&fwd);
        for i in 0..a.data.len() {
            assert!(
                (back.data[i] - a.data[i]).abs() < 0.75,
                "at {i}: {} vs {}",
                back.data[i],
                a.data[i]
            );
        }
    }

    #[test]
    fn output_dims_accounts_for_stages() {
        let t = TransformSpec {
            crop: Some((10, 10, 50, 40)),
            resize_to: Some((25, 20)),
            ..TransformSpec::default()
        };
        assert_eq!(t.output_dims(100, 100), (25, 20));
        let t2 = TransformSpec { crop: Some((10, 10, 50, 40)), ..TransformSpec::default() };
        assert_eq!(t2.output_dims(100, 100), (50, 40));
        assert_eq!(t2.output_dims(30, 30), (20, 20)); // crop clamped
        assert_eq!(TransformSpec::identity().output_dims(7, 9), (7, 9));
    }

    #[test]
    fn resize_constructor() {
        let t = TransformSpec::resize(130, 130, ResizeFilter::Mitchell);
        assert_eq!(t.output_dims(720, 720), (130, 130));
    }
}
