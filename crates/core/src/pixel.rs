//! Bridging between `p3-jpeg` pixel buffers and `p3-vision` float planes.
//!
//! Reconstruction under server-side processing (Eq. 2) happens in the
//! pixel domain in `f32`: the secret + correction image decodes to
//! *fractional, signed* deltas that must survive resizing untouched until
//! the final add (paper footnote 8 — premature rounding is the only
//! error source when the transform is known).

use p3_jpeg::image::{GrayImage, RgbImage};
use p3_vision::image::{f32_to_u8, ImageF32};

/// Split an interleaved RGB image into three float channels.
pub fn rgb_to_channels(img: &RgbImage) -> [ImageF32; 3] {
    let n = img.width * img.height;
    let mut r = ImageF32::new(img.width, img.height);
    let mut g = ImageF32::new(img.width, img.height);
    let mut b = ImageF32::new(img.width, img.height);
    for i in 0..n {
        r.data[i] = f32::from(img.data[i * 3]);
        g.data[i] = f32::from(img.data[i * 3 + 1]);
        b.data[i] = f32::from(img.data[i * 3 + 2]);
    }
    [r, g, b]
}

/// Merge three float channels back into an interleaved RGB image
/// (rounded half away from zero and clamped, [`f32_to_u8`]).
pub fn channels_to_rgb(ch: &[ImageF32; 3]) -> RgbImage {
    let w = ch[0].width;
    let h = ch[0].height;
    assert!(ch.iter().all(|c| c.width == w && c.height == h), "channel size mismatch");
    let mut img = RgbImage::new(w, h);
    for (i, px) in img.data.chunks_exact_mut(3).enumerate() {
        px[0] = f32_to_u8(ch[0].data[i]);
        px[1] = f32_to_u8(ch[1].data[i]);
        px[2] = f32_to_u8(ch[2].data[i]);
    }
    img
}

/// Grayscale image to float plane.
pub fn gray_to_image(img: &GrayImage) -> ImageF32 {
    ImageF32::from_u8(img.width, img.height, &img.data).expect("consistent buffer")
}

/// Float plane to grayscale image.
pub fn image_to_gray(img: &ImageF32) -> GrayImage {
    GrayImage { width: img.width, height: img.height, data: img.to_u8() }
}

/// BT.601 luma channel of an RGB image as a float plane — the input the
/// vision attacks (Canny/SIFT/faces) operate on.
pub fn rgb_to_luma(img: &RgbImage) -> ImageF32 {
    let mut out = ImageF32::new(img.width, img.height);
    for i in 0..img.width * img.height {
        let r = f32::from(img.data[i * 3]);
        let g = f32::from(img.data[i * 3 + 1]);
        let b = f32::from(img.data[i * 3 + 2]);
        out.data[i] = 0.299 * r + 0.587 * g + 0.114 * b;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rgb_channel_roundtrip() {
        let mut img = RgbImage::new(5, 4);
        for (i, v) in img.data.iter_mut().enumerate() {
            *v = ((i * 13) % 256) as u8;
        }
        let ch = rgb_to_channels(&img);
        assert_eq!(channels_to_rgb(&ch).data, img.data);
    }

    #[test]
    fn gray_roundtrip() {
        let mut img = GrayImage::new(6, 3);
        for (i, v) in img.data.iter_mut().enumerate() {
            *v = (i * 14) as u8;
        }
        assert_eq!(image_to_gray(&gray_to_image(&img)).data, img.data);
    }

    #[test]
    fn luma_weights() {
        let mut img = RgbImage::new(1, 1);
        img.set(0, 0, [255, 255, 255]);
        assert!((rgb_to_luma(&img).data[0] - 255.0).abs() < 0.5);
        img.set(0, 0, [0, 255, 0]);
        assert!((rgb_to_luma(&img).data[0] - 149.7).abs() < 1.0);
    }

    #[test]
    fn channels_to_rgb_matches_oracle() {
        // Every tie k + 0.5 in and around [0, 255], its neighbours, and
        // out-of-range, signed-zero and NaN samples.
        let mut probes = vec![0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -7.0, 1e6];
        for k in -2..=257 {
            let half = k as f32 + 0.5;
            probes.extend([half, half.next_up(), half.next_down()]);
        }
        let n = probes.len();
        let rot = |k: usize| -> ImageF32 {
            let data = (0..n).map(|i| probes[(i + k) % n]).collect();
            ImageF32::from_raw(n, 1, data).unwrap()
        };
        let ch = [rot(0), rot(1), rot(7)];
        assert_eq!(channels_to_rgb(&ch).data, crate::oracle::channels_to_rgb(&ch).data);
    }

    #[test]
    #[should_panic(expected = "channel size mismatch")]
    fn mismatched_channels_panic() {
        let ch = [ImageF32::new(2, 2), ImageF32::new(3, 2), ImageF32::new(2, 2)];
        let _ = channels_to_rgb(&ch);
    }
}
