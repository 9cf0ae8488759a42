//! The PSP service: in-process core plus an HTTP front-end.
//!
//! [`PspCore`] implements the provider behaviour directly (used by the
//! benchmark harness, which doesn't need sockets); [`PspService`] wraps
//! it in the `p3-net` HTTP server for the full-system experiments.

use crate::profile::{PspProfile, SizeRequest};
use p3_core::pixel::{channels_to_rgb, rgb_to_channels};
use p3_core::transform::TransformSpec;
use p3_jpeg::encoder::encode_coeffs;
use p3_jpeg::image::RgbImage;
use p3_net::{Request, Response, Server, StatusCode};
use p3_vision::image::ImageF32;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Why an upload was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UploadError {
    /// Body did not decode as JPEG ("PSPs reject fully-encrypted
    /// images").
    NotJpeg,
    /// §4.2 countermeasure tripped: looks like a P3 public part.
    LooksEncrypted,
    /// Image too large for the simulator.
    TooLarge,
}

impl fmt::Display for UploadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UploadError::NotJpeg => write!(f, "body is not a decodable JPEG"),
            UploadError::LooksEncrypted => {
                write!(f, "upload rejected: appears to be an encrypted/clipped image")
            }
            UploadError::TooLarge => write!(f, "image too large"),
        }
    }
}

struct StoredPhoto {
    /// The upload after marker stripping (what "full" serves if within
    /// the ladder cap).
    stripped: Vec<u8>,
    /// Pre-built ladder renditions keyed by max side. Dynamic transforms
    /// decode the ceiling rendition (the first ladder entry) on request,
    /// as a provider serving from its stored JPEGs would; no decoded
    /// pixels are kept per photo.
    renditions: HashMap<usize, Vec<u8>>,
}

/// The provider, sans HTTP.
pub struct PspCore {
    profile: PspProfile,
    photos: Mutex<HashMap<u64, StoredPhoto>>,
    next_id: AtomicU64,
}

impl fmt::Debug for PspCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PspCore {{ profile: {} }}", self.profile.name)
    }
}

impl PspCore {
    /// New provider with a profile.
    pub fn new(profile: PspProfile) -> Self {
        Self { profile, photos: Mutex::new(HashMap::new()), next_id: AtomicU64::new(1) }
    }

    /// The provider's profile (tests/benches may want the ground truth;
    /// the *proxy* must not peek — it reverse-engineers instead).
    pub fn profile(&self) -> &PspProfile {
        &self.profile
    }

    /// Apply the hidden pipeline to the float channels of an image.
    fn transform_pixels(&self, ch: &[ImageF32; 3], spec: &TransformSpec) -> RgbImage {
        channels_to_rgb(&[spec.apply(&ch[0]), spec.apply(&ch[1]), spec.apply(&ch[2])])
    }

    fn encode(&self, rgb: &RgbImage) -> Vec<u8> {
        let ci = p3_jpeg::encoder::pixels_to_coeffs(
            rgb,
            self.profile.quality,
            p3_jpeg::Subsampling::S420,
        )
        .expect("re-encode");
        encode_coeffs(&ci, self.profile.output_mode, 0).expect("re-encode")
    }

    /// Upload a photo; returns the assigned ID.
    pub fn upload(&self, body: &[u8]) -> Result<u64, UploadError> {
        let (coeffs, _) = p3_jpeg::decode_to_coeffs(body).map_err(|_| UploadError::NotJpeg)?;
        if coeffs.width > 8192 || coeffs.height > 8192 {
            return Err(UploadError::TooLarge);
        }
        if self.profile.detect_p3_uploads {
            // The countermeasure of §4.2: a clipped public part shows a
            // histogram spike at its maximum AC magnitude and no DC.
            let dc_all_zero = {
                let mut all_zero = true;
                coeffs.for_each_block(|_, b| all_zero &= b[0] == 0);
                all_zero
            };
            if dc_all_zero && p3_core::attack::guess_threshold(&coeffs).is_some() {
                return Err(UploadError::LooksEncrypted);
            }
        }
        let stripped =
            p3_jpeg::marker::strip_app_markers(body).map_err(|_| UploadError::NotJpeg)?;
        let rgb = p3_jpeg::decoder::coeffs_to_rgb(&coeffs).map_err(|_| UploadError::NotJpeg)?;
        let (w, h) = (rgb.width, rgb.height);
        let ch = rgb_to_channels(&rgb);
        drop(rgb);

        // Build the static ladder with the hidden pipeline. The first
        // entry is the storage ceiling.
        let mut renditions = HashMap::new();
        for &side in &self.profile.ladder {
            let spec = self.profile.transform_to_side(w, h, side);
            renditions.insert(side, self.encode(&self.transform_pixels(&ch, &spec)));
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.photos.lock().insert(id, StoredPhoto { stripped, renditions });
        Ok(id)
    }

    /// Decoded float channels of a stored photo's ceiling rendition (the
    /// stored upload if the ladder is empty): the source of dynamic
    /// transforms.
    fn ceiling_channels(&self, id: u64) -> Option<[ImageF32; 3]> {
        let jpeg = {
            let photos = self.photos.lock();
            let photo = photos.get(&id)?;
            let ceiling = self.profile.ladder.first().and_then(|side| photo.renditions.get(side));
            ceiling.unwrap_or(&photo.stripped).clone()
        };
        let rgb = p3_jpeg::decode_to_rgb(&jpeg).expect("stored renditions decode");
        Some(rgb_to_channels(&rgb))
    }

    /// Fetch a rendition. `None` if the photo does not exist.
    pub fn fetch(&self, id: u64, req: SizeRequest) -> Option<Vec<u8>> {
        match req {
            SizeRequest::Full | SizeRequest::Big | SizeRequest::Small | SizeRequest::Thumb => {
                let side = self.profile.ladder_side(req)?;
                self.photos.lock().get(&id)?.renditions.get(&side).cloned()
            }
            SizeRequest::Fit(w, h) => {
                let ch = self.ceiling_channels(id)?;
                let max_side = usize::from(w.max(h)).max(1);
                let spec = self.profile.transform_to_side(ch[0].width, ch[0].height, max_side);
                Some(self.encode(&self.transform_pixels(&ch, &spec)))
            }
            SizeRequest::Crop(x, y, w, h) => {
                let ch = self.ceiling_channels(id)?;
                let spec = TransformSpec {
                    crop: Some((
                        usize::from(x),
                        usize::from(y),
                        usize::from(w).max(1),
                        usize::from(h).max(1),
                    )),
                    filter: self.profile.filter,
                    ..TransformSpec::identity()
                };
                Some(self.encode(&self.transform_pixels(&ch, &spec)))
            }
        }
    }

    /// Raw stored (marker-stripped) upload, for tests.
    pub fn stored_original(&self, id: u64) -> Option<Vec<u8>> {
        self.photos.lock().get(&id).map(|p| p.stripped.clone())
    }

    /// Number of stored photos.
    pub fn photo_count(&self) -> usize {
        self.photos.lock().len()
    }

    /// Delete a photo and every rendition of it. Returns false if the ID
    /// was unknown. Real PSPs expose this to the uploader; the P3 proxy
    /// uses it to roll back an upload whose secret part failed to land
    /// in storage.
    pub fn delete(&self, id: u64) -> bool {
        self.photos.lock().remove(&id).is_some()
    }
}

/// HTTP front-end: `POST /photos` → id, `GET /photos/{id}?size=...`.
pub struct PspService {
    server: Server,
    core: Arc<PspCore>,
}

impl PspService {
    /// Start serving on an ephemeral port.
    pub fn spawn(profile: PspProfile) -> std::io::Result<PspService> {
        let core = Arc::new(PspCore::new(profile));
        let c = Arc::clone(&core);
        let server = Server::spawn(Arc::new(move |req: &Request| handle(&c, req)))?;
        Ok(PspService { server, core })
    }

    /// Listen address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// The in-process core behind the HTTP front-end.
    pub fn core(&self) -> &Arc<PspCore> {
        &self.core
    }

    /// Stop serving.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

/// Route one HTTP request against a [`PspCore`] — exposed so the CLI can
/// host the simulator on its own server instance.
pub fn handle_http(core: &PspCore, req: &Request) -> Response {
    handle(core, req)
}

fn handle(core: &PspCore, req: &Request) -> Response {
    use p3_net::Method;
    match (req.method, req.path.as_str()) {
        (Method::Post, "/photos") => match core.upload(&req.body) {
            Ok(id) => Response::text(StatusCode::CREATED, &id.to_string()),
            Err(UploadError::NotJpeg) => Response::text(StatusCode::BAD_REQUEST, "not a JPEG"),
            Err(UploadError::LooksEncrypted) => Response::text(StatusCode::BAD_REQUEST, "rejected"),
            Err(UploadError::TooLarge) => {
                Response::text(StatusCode::PAYLOAD_TOO_LARGE, "too large")
            }
        },
        (Method::Get, path) if path.starts_with("/photos/") => {
            let id: Option<u64> =
                path["/photos/".len()..].split('/').next().and_then(|s| s.parse().ok());
            let Some(id) = id else {
                return Response::text(StatusCode::BAD_REQUEST, "bad id");
            };
            let size = PspProfile::parse_size(&req.query);
            match core.fetch(id, size) {
                Some(jpeg) => Response::ok("image/jpeg", jpeg),
                None => Response::text(StatusCode::NOT_FOUND, "no such photo"),
            }
        }
        (Method::Delete, path) if path.starts_with("/photos/") => {
            let id: Option<u64> =
                path["/photos/".len()..].split('/').next().and_then(|s| s.parse().ok());
            let Some(id) = id else {
                return Response::text(StatusCode::BAD_REQUEST, "bad id");
            };
            if core.delete(id) {
                Response::text(StatusCode::OK, "deleted")
            } else {
                Response::text(StatusCode::NOT_FOUND, "no such photo")
            }
        }
        _ => Response::text(StatusCode::NOT_FOUND, "unknown endpoint"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn photo_jpeg(w: usize, h: usize) -> Vec<u8> {
        let mut img = RgbImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(
                    x,
                    y,
                    [((x * 7) % 256) as u8, ((y * 5) % 256) as u8, ((x + y) % 256) as u8],
                );
            }
        }
        p3_jpeg::Encoder::new().quality(90).encode_rgb(&img).unwrap()
    }

    /// SHA-256 of every ladder rendition `(profile, width, height, side,
    /// digest)` of the photos in `ladder_bytes_match_pinned_digests`,
    /// recorded from the per-sample `get_clamped` resize and convolution
    /// loops that the tap-table row passes replaced. A kernel change that
    /// moves one output bit changes a digest.
    const LADDER_DIGESTS: [(&str, usize, usize, usize, &str); 14] = [
        (
            "facebook",
            640,
            480,
            75,
            "7a48652d64fe352fc1fd63a8c32b21aca1a7eb55f380f8f7b4801a2e7029c105",
        ),
        (
            "facebook",
            640,
            480,
            130,
            "aadd3ab40e815a7b4d56488bf5070b62591ed99556f352024d8255915618ad8b",
        ),
        (
            "facebook",
            640,
            480,
            720,
            "8ffb09f5af24a6dc9778723e295ba6cfdcd043426e1bac84d9ed62356ef09d0d",
        ),
        (
            "flickr",
            640,
            480,
            75,
            "e349668d00f6d33a68f991b110e3b0147538299e6b7c18f13d010387f7ad53d5",
        ),
        (
            "flickr",
            640,
            480,
            240,
            "5fc94deab73522ea067073c8748f6ce74e6e72486ff2699abe7a349e20be1942",
        ),
        (
            "flickr",
            640,
            480,
            500,
            "44f9edf8a8e010f11901be11cdae3ad7dd7f808787a387b7d819caafdee180cb",
        ),
        (
            "flickr",
            640,
            480,
            1024,
            "6d15a91b68ff99419628dec0b99228cc823711d942c17c5ee0aceb199baad199",
        ),
        (
            "facebook",
            1024,
            768,
            75,
            "1be1c28df07a2305a8d64b34e89fd1abbe7118c292a74b84a22b261c674e4c0a",
        ),
        (
            "facebook",
            1024,
            768,
            130,
            "2e09cf45016d63826d598e1c138cf07597f84fee5357a3116089df7d9a63d46f",
        ),
        (
            "facebook",
            1024,
            768,
            720,
            "d47754cfc35e4fbe4c4869b7e91d4d57edf7fab5a570e201cbbd752dd4d47144",
        ),
        (
            "flickr",
            1024,
            768,
            75,
            "fa2297ff6781cb602dbf53a2acc8937fa5ebeda9b78da7c6cfdab5762e26d2d2",
        ),
        (
            "flickr",
            1024,
            768,
            240,
            "6600bf6df1571801285a91099e6dab2665b042350dc513aace2d40206b0612e6",
        ),
        (
            "flickr",
            1024,
            768,
            500,
            "73a8917f00b5ddd762f7ea09602fb2c81bbb2a96b50617bd2c75b38b8464ee46",
        ),
        (
            "flickr",
            1024,
            768,
            1024,
            "257c986b8bc36fab51d406e4b26f653b42fd9f882a09ec12bd51fad7776509e3",
        ),
    ];

    #[test]
    fn ladder_bytes_match_pinned_digests() {
        // A P3 public part of a synthetic photo, at the two upload sizes
        // the benchmark uses, through both stock profiles.
        let codec =
            p3_core::P3Codec::new(p3_core::P3Config { threshold: 15, ..Default::default() });
        let mut checked = 0;
        for (w, h) in [(640, 480), (1024, 768)] {
            let photo = p3_datasets::synth::scene(3, w, h, &Default::default());
            let jpeg = p3_jpeg::Encoder::new().quality(90).encode_rgb(&photo).unwrap();
            let (public, _, _) = codec.split_jpeg(&jpeg).unwrap();
            for profile in [PspProfile::facebook(), PspProfile::flickr()] {
                let core = PspCore::new(profile);
                let id = core.upload(&public).unwrap();
                let photos = core.photos.lock();
                let got = &photos[&id].renditions;
                let name = core.profile().name;
                let want: Vec<_> =
                    LADDER_DIGESTS.iter().filter(|d| (d.0, d.1, d.2) == (name, w, h)).collect();
                assert_eq!(got.len(), want.len(), "{name} {w}x{h} rungs");
                for &&(_, _, _, side, digest) in &want {
                    let hex: String = p3_crypto::sha256::sha256(&got[&side])
                        .iter()
                        .map(|b| format!("{b:02x}"))
                        .collect();
                    assert_eq!(hex, digest, "{name} {w}x{h} rung {side}");
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, LADDER_DIGESTS.len());
    }

    #[test]
    fn upload_assigns_monotone_ids() {
        let core = PspCore::new(PspProfile::facebook());
        let a = core.upload(&photo_jpeg(64, 48)).unwrap();
        let b = core.upload(&photo_jpeg(32, 32)).unwrap();
        assert!(b > a);
        assert_eq!(core.photo_count(), 2);
    }

    #[test]
    fn rejects_garbage_uploads() {
        let core = PspCore::new(PspProfile::facebook());
        assert_eq!(core.upload(b"fully encrypted blob").unwrap_err(), UploadError::NotJpeg);
    }

    #[test]
    fn ladder_renditions_have_expected_sizes() {
        let core = PspCore::new(PspProfile::facebook());
        let id = core.upload(&photo_jpeg(1440, 960)).unwrap();
        let big = core.fetch(id, SizeRequest::Big).unwrap();
        let small = core.fetch(id, SizeRequest::Small).unwrap();
        let thumb = core.fetch(id, SizeRequest::Thumb).unwrap();
        let sb = p3_jpeg::marker::summarize(&big).unwrap();
        assert_eq!((sb.width, sb.height), (720, 480));
        assert!(sb.progressive, "facebook serves progressive");
        let ss = p3_jpeg::marker::summarize(&small).unwrap();
        assert_eq!(ss.width.max(ss.height), 130);
        let st = p3_jpeg::marker::summarize(&thumb).unwrap();
        assert_eq!(st.width.max(st.height), 75);
    }

    #[test]
    fn markers_are_stripped() {
        let core = PspCore::new(PspProfile::facebook());
        // Inject a COM marker into an upload.
        let mut jpeg = photo_jpeg(64, 64);
        let mut with_comment = jpeg[..2].to_vec();
        p3_jpeg::marker::write_segment(&mut with_comment, p3_jpeg::marker::COM, b"secret-stash");
        with_comment.extend_from_slice(&jpeg.split_off(2));
        let id = core.upload(&with_comment).unwrap();
        let stored = core.stored_original(id).unwrap();
        let summary = p3_jpeg::marker::summarize(&stored).unwrap();
        assert!(!summary.markers.contains(&p3_jpeg::marker::COM));
    }

    #[test]
    fn dynamic_fit_and_crop() {
        let core = PspCore::new(PspProfile::flickr());
        let id = core.upload(&photo_jpeg(640, 480)).unwrap();
        let fit = core.fetch(id, SizeRequest::Fit(100, 100)).unwrap();
        let s = p3_jpeg::marker::summarize(&fit).unwrap();
        assert_eq!(s.width.max(s.height), 100);
        let crop = core.fetch(id, SizeRequest::Crop(10, 20, 64, 48)).unwrap();
        let s = p3_jpeg::marker::summarize(&crop).unwrap();
        assert_eq!((s.width, s.height), (64, 48));
    }

    #[test]
    fn missing_photo_is_none() {
        let core = PspCore::new(PspProfile::facebook());
        assert!(core.fetch(999, SizeRequest::Big).is_none());
    }

    #[test]
    fn delete_removes_photo_and_renditions() {
        let core = PspCore::new(PspProfile::facebook());
        let id = core.upload(&photo_jpeg(64, 48)).unwrap();
        assert!(core.delete(id));
        assert_eq!(core.photo_count(), 0);
        assert!(core.fetch(id, SizeRequest::Big).is_none());
        assert!(!core.delete(id), "double delete must report unknown id");
    }

    #[test]
    fn http_delete_roundtrip() {
        let mut svc = PspService::spawn(PspProfile::facebook()).unwrap();
        let resp =
            p3_net::http_post(svc.addr(), "/photos", "image/jpeg", photo_jpeg(64, 48)).unwrap();
        let id: u64 = String::from_utf8_lossy(&resp.body).trim().parse().unwrap();
        let del = p3_net::http_delete(svc.addr(), &format!("/photos/{id}")).unwrap();
        assert!(del.status.is_success());
        let gone = p3_net::http_get(svc.addr(), &format!("/photos/{id}?size=big")).unwrap();
        assert_eq!(gone.status, StatusCode::NOT_FOUND);
        let again = p3_net::http_delete(svc.addr(), &format!("/photos/{id}")).unwrap();
        assert_eq!(again.status, StatusCode::NOT_FOUND);
        svc.shutdown();
    }

    #[test]
    fn hostile_profile_rejects_p3_public_parts() {
        let hostile = PspCore::new(PspProfile::hostile());
        let codec =
            p3_core::P3Codec::new(p3_core::P3Config { threshold: 10, ..Default::default() });
        let (public, _, _) = codec.split_jpeg(&photo_jpeg(128, 128)).unwrap();
        assert_eq!(hostile.upload(&public).unwrap_err(), UploadError::LooksEncrypted);
        // A normal photo still goes through.
        assert!(hostile.upload(&photo_jpeg(64, 64)).is_ok());
        // And the benign facebook profile accepts P3 parts.
        let benign = PspCore::new(PspProfile::facebook());
        assert!(benign.upload(&public).is_ok());
    }

    #[test]
    fn http_frontend_roundtrip() {
        let mut svc = PspService::spawn(PspProfile::facebook()).unwrap();
        let resp =
            p3_net::http_post(svc.addr(), "/photos", "image/jpeg", photo_jpeg(256, 192)).unwrap();
        assert!(resp.status.is_success());
        let id: u64 = String::from_utf8_lossy(&resp.body).trim().parse().unwrap();
        let img = p3_net::http_get(svc.addr(), &format!("/photos/{id}?size=small")).unwrap();
        assert!(img.status.is_success());
        assert_eq!(img.headers.get("content-type"), Some("image/jpeg"));
        let s = p3_jpeg::marker::summarize(&img.body).unwrap();
        assert_eq!(s.width.max(s.height), 130);
        // Unknown photo → 404.
        let missing = p3_net::http_get(svc.addr(), "/photos/424242").unwrap();
        assert_eq!(missing.status, StatusCode::NOT_FOUND);
        svc.shutdown();
    }
}
