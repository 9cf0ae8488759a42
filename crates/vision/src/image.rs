//! Floating-point image buffers.
//!
//! All vision algorithms in this crate operate on single-channel `f32`
//! images in the nominal range `[0, 255]`. Working in `f32` matters for
//! P3 reconstruction: the correction term `(Ss − Ss²)·w` decodes to
//! *fractional* pixel values, and rounding before the final add would be
//! an extra error source (paper footnote 8).

/// Round a sample half away from zero and clamp it to `[0, 255]`.
///
/// Exactly `v.round().clamp(0.0, 255.0) as u8`, with NaN mapping to 0,
/// but with no libm `roundf` call (what `f32::round` becomes on baseline
/// x86-64) and no saturating float→int cast, so loops over it vectorize.
/// `(v + 0.5) as u8` is not a substitute: the add rounds `0.5 − 2⁻²⁵`
/// up to 1.
#[inline]
pub fn f32_to_u8(v: f32) -> u8 {
    /// 2^23: adding it to c in [0, 255] rounds c to the nearest
    /// integer, ties to even, and leaves that integer in the low
    /// mantissa bits.
    const MAGIC: f32 = 8_388_608.0;
    // `max` maps NaN to 0, where `clamp` would keep it. `c - r` below is
    // exact, so a tie that rounded down to even shows as 0.5.
    #[allow(clippy::manual_clamp)]
    let c = v.max(0.0).min(255.0);
    let m = c + MAGIC;
    let r = m - MAGIC;
    ((m.to_bits() & 0xff) + u32::from(c - r == 0.5)) as u8
}

/// Single-channel `f32` image, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageF32 {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// `width * height` samples.
    pub data: Vec<f32>,
}

impl ImageF32 {
    /// Allocate a zero image.
    pub fn new(width: usize, height: usize) -> Self {
        Self { width, height, data: vec![0.0; width * height] }
    }

    /// Build from parts, validating length.
    pub fn from_raw(width: usize, height: usize, data: Vec<f32>) -> Option<Self> {
        (data.len() == width * height).then_some(Self { width, height, data })
    }

    /// Convert from 8-bit samples.
    pub fn from_u8(width: usize, height: usize, data: &[u8]) -> Option<Self> {
        (data.len() == width * height).then(|| Self {
            width,
            height,
            data: data.iter().map(|&v| f32::from(v)).collect(),
        })
    }

    /// Clamp to `[0,255]` and round to 8-bit samples ([`f32_to_u8`]).
    pub fn to_u8(&self) -> Vec<u8> {
        self.data.iter().map(|&v| f32_to_u8(v)).collect()
    }

    /// Pixel accessor.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        self.data[y * self.width + x]
    }

    /// Pixel accessor with edge clamping.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> f32 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.data[y * self.width + x]
    }

    /// Pixel mutator.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        self.data[y * self.width + x] = v;
    }

    /// Bilinear sample at fractional coordinates (clamped).
    pub fn sample_bilinear(&self, x: f32, y: f32) -> f32 {
        let x0 = x.floor() as isize;
        let y0 = y.floor() as isize;
        let fx = x - x0 as f32;
        let fy = y - y0 as f32;
        let p00 = self.get_clamped(x0, y0);
        let p10 = self.get_clamped(x0 + 1, y0);
        let p01 = self.get_clamped(x0, y0 + 1);
        let p11 = self.get_clamped(x0 + 1, y0 + 1);
        p00 * (1.0 - fx) * (1.0 - fy)
            + p10 * fx * (1.0 - fy)
            + p01 * (1.0 - fx) * fy
            + p11 * fx * fy
    }

    /// Elementwise addition — the pixel-domain reconstruction primitive of
    /// paper Eq. 2 (`A·xp + A·(xs + corr)`).
    pub fn add(&self, other: &ImageF32) -> ImageF32 {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        ImageF32 {
            width: self.width,
            height: self.height,
            data: self.data.iter().zip(other.data.iter()).map(|(a, b)| a + b).collect(),
        }
    }

    /// Elementwise scale.
    pub fn scale(&self, k: f32) -> ImageF32 {
        ImageF32 {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|v| v * k).collect(),
        }
    }

    /// Mean sample value.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u8_roundtrip() {
        let img = ImageF32::from_u8(3, 2, &[0, 50, 100, 150, 200, 255]).unwrap();
        assert_eq!(img.to_u8(), vec![0, 50, 100, 150, 200, 255]);
    }

    #[test]
    fn to_u8_clamps() {
        let img = ImageF32::from_raw(2, 1, vec![-5.0, 300.0]).unwrap();
        assert_eq!(img.to_u8(), vec![0, 255]);
    }

    #[test]
    fn f32_to_u8_matches_round_clamp() {
        let reference = |v: f32| v.round().clamp(0.0, 255.0) as u8;
        let mut probes = vec![0.0, -0.0, f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        probes.extend([f32::MAX, f32::MIN, f32::MIN_POSITIVE, -f32::MIN_POSITIVE, 1e-45, -1e-45]);
        probes.extend([0.5 - 2f32.powi(-25), -1000.0, 1000.0, 255.49998, 255.5, 256.0, 1e9]);
        for k in -2..=257 {
            let half = k as f32 + 0.5;
            probes.extend([half, half.next_up(), half.next_down(), k as f32]);
            probes.extend([(k as f32).next_up(), (k as f32).next_down()]);
        }
        for v in probes {
            assert_eq!(f32_to_u8(v), reference(v), "at {v:e} ({:#010x})", v.to_bits());
        }
        // A dense sweep over the whole useful range and a bit beyond.
        let mut v = -3.0f32;
        while v < 260.0 {
            assert_eq!(f32_to_u8(v), reference(v), "at {v:e}");
            v += 1.0 / 1024.0 + 1e-6;
        }
    }

    #[test]
    fn from_raw_validates() {
        assert!(ImageF32::from_raw(2, 2, vec![0.0; 3]).is_none());
        assert!(ImageF32::from_u8(2, 2, &[0; 5]).is_none());
    }

    #[test]
    fn bilinear_interpolates() {
        let img = ImageF32::from_raw(2, 1, vec![0.0, 10.0]).unwrap();
        assert!((img.sample_bilinear(0.5, 0.0) - 5.0).abs() < 1e-6);
        assert!((img.sample_bilinear(0.0, 0.0) - 0.0).abs() < 1e-6);
    }

    #[test]
    fn add_and_scale() {
        let a = ImageF32::from_raw(2, 1, vec![1.0, 2.0]).unwrap();
        let b = ImageF32::from_raw(2, 1, vec![10.0, 20.0]).unwrap();
        assert_eq!(a.add(&b).data, vec![11.0, 22.0]);
        assert_eq!(a.scale(3.0).data, vec![3.0, 6.0]);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(ImageF32::new(0, 0).mean(), 0.0);
    }
}
