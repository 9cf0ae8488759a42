//! Seeded inputs: photo pools and request schedules. Everything here is
//! a pure function of the run seed and is generated before any timed
//! window opens.

use p3_datasets::synth::{scene, SceneParams, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of the `index`-th photo of a pool: distinct scenes per pool and
/// per run seed.
fn photo_seed(seed: u64, pool: u64, index: usize) -> u64 {
    let mixed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (pool << 32) ^ index as u64;
    StdRng::seed_from_u64(mixed).gen_range(0..u64::MAX)
}

/// `count` distinct seeded scenes of `w × h`, as the JPEGs (quality 90)
/// a camera app would hand to the proxy. Two threads
/// share the work; the output does not depend on how.
pub fn photo_pool(seed: u64, pool: u64, count: usize, w: usize, h: usize) -> Vec<Vec<u8>> {
    let make = |i: usize| {
        let s = photo_seed(seed, pool, i);
        let mut rng = StdRng::seed_from_u64(s);
        let params = SceneParams {
            ridges: rng.gen_range(1..4),
            objects: rng.gen_range(2..7),
            texture: rng.gen_range(0.3..0.9),
        };
        let img = scene(s, w, h, &params);
        p3_jpeg::Encoder::new().quality(90).encode_rgb(&img).expect("encode photo")
    };
    par_map(count, make)
}

/// `(0..n).map(f)` on two threads, in order.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let f = &f;
    let (even, odd): (Vec<T>, Vec<T>) = std::thread::scope(|s| {
        let odd = s.spawn(move || (1..n).step_by(2).map(f).collect::<Vec<T>>());
        let even = (0..n).step_by(2).map(f).collect::<Vec<T>>();
        (even, odd.join().expect("worker panicked"))
    });
    let mut out = Vec::with_capacity(n);
    let (mut e, mut o) = (even.into_iter(), odd.into_iter());
    for i in 0..n {
        out.push(if i % 2 == 0 { e.next() } else { o.next() }.expect("one result per index"));
    }
    out
}

/// The three ladder renditions a viewer asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rendition {
    Thumb,
    Small,
    Big,
}

impl Rendition {
    pub const ALL: [Rendition; 3] = [Rendition::Thumb, Rendition::Small, Rendition::Big];

    pub fn query(self) -> &'static str {
        match self {
            Rendition::Thumb => "thumb",
            Rendition::Small => "small",
            Rendition::Big => "big",
        }
    }

    /// thumb/small/big = 40/40/20.
    fn draw(rng: &mut StdRng) -> Rendition {
        match rng.gen_range(0..10) {
            0..=3 => Rendition::Thumb,
            4..=7 => Rendition::Small,
            _ => Rendition::Big,
        }
    }
}

/// What a view asks for: a corpus photo by index, or one of the eight
/// most recently uploaded photos (0 = newest), resolved at send time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    Corpus(usize),
    Recent(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    View(Target, Rendition),
    /// Upload the given photo of the upload pool.
    Upload(usize),
    /// A non-photo request, `GET /api/feed?page=N`.
    Forward(u32),
}

/// Zipf(1.1) popularity over the browse corpus.
pub const ZIPF_EXPONENT: f64 = 1.1;

/// An endless closed-loop view stream for one browse client.
pub struct ViewStream {
    zipf: Zipf,
    rng: StdRng,
}

impl ViewStream {
    pub fn new(seed: u64, client: usize, corpus: usize) -> ViewStream {
        let s = seed.wrapping_mul(31).wrapping_add(client as u64 + 1);
        ViewStream {
            zipf: Zipf::new(corpus, ZIPF_EXPONENT, s),
            rng: StdRng::seed_from_u64(s ^ 0xB10C),
        }
    }

    pub fn next_view(&mut self) -> (usize, Rendition) {
        (self.zipf.next_rank(), Rendition::draw(&mut self.rng))
    }
}

/// Open-loop schedule: `(send offset in seconds, op)`. Arrivals are a
/// Poisson process at `rate` per second over `seconds`, conditioned on
/// its expected count — `rate × seconds` uniform send times, sorted — so
/// every run offers the same load. 10 % uploads; a fifth of the views go
/// to the most recent uploads, the rest follow the corpus Zipf.
pub fn mixed_schedule(
    seed: u64,
    rate: f64,
    seconds: f64,
    corpus: usize,
    upload_pool: usize,
) -> Vec<(f64, Op)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x004D_4958_4544);
    let mut zipf = Zipf::new(corpus, ZIPF_EXPONENT, seed ^ 0x5A49_5046);
    let count = (rate * seconds).round() as usize;
    let mut times: Vec<f64> = (0..count).map(|_| rng.gen_range(0.0..seconds)).collect();
    times.sort_by(f64::total_cmp);
    let mut uploads = 0usize;
    times
        .into_iter()
        .map(|t| {
            let op = if rng.gen_range(0..10) == 0 {
                uploads += 1;
                Op::Upload((uploads - 1) % upload_pool)
            } else {
                let rendition = Rendition::draw(&mut rng);
                if rng.gen_range(0..5) == 0 {
                    Op::View(Target::Recent(rng.gen_range(0..RECENT)), rendition)
                } else {
                    Op::View(Target::Corpus(zipf.next_rank()), rendition)
                }
            };
            (t, op)
        })
        .collect()
}

/// How many of the newest uploads the `mixed` views favour.
pub const RECENT: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_the_same_schedule_and_corpus() {
        assert_eq!(mixed_schedule(7, 20.0, 5.0, 64, 16), mixed_schedule(7, 20.0, 5.0, 64, 16));
        let a = photo_pool(7, 1, 2, 64, 48);
        let b = photo_pool(7, 1, 2, 64, 48);
        assert!(a.iter().zip(&b).all(|(x, y)| x == y));
        let (mut s, mut t) = (ViewStream::new(7, 0, 64), ViewStream::new(7, 0, 64));
        assert!((0..100).all(|_| s.next_view() == t.next_view()));
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        assert_ne!(mixed_schedule(7, 20.0, 5.0, 64, 16), mixed_schedule(8, 20.0, 5.0, 64, 16));
        let a = photo_pool(7, 1, 1, 64, 48);
        let b = photo_pool(8, 1, 1, 64, 48);
        assert_ne!(a[0], b[0]);
        let (mut s, mut t) = (ViewStream::new(7, 0, 64), ViewStream::new(8, 0, 64));
        assert!((0..100).any(|_| s.next_view() != t.next_view()));
    }

    #[test]
    fn pool_photos_are_distinct() {
        let pool = photo_pool(3, 2, 4, 64, 48);
        for i in 0..pool.len() {
            for j in i + 1..pool.len() {
                assert_ne!(pool[i], pool[j]);
            }
        }
    }

    #[test]
    fn mixed_schedule_has_the_configured_shape() {
        let s = mixed_schedule(11, 20.0, 200.0, 64, 16);
        let n = s.len() as f64;
        assert_eq!(n, 4000.0);
        let uploads = s.iter().filter(|(_, op)| matches!(op, Op::Upload(_))).count() as f64;
        assert!((uploads / n - 0.1).abs() < 0.03);
        let recent =
            s.iter().filter(|(_, op)| matches!(op, Op::View(Target::Recent(_), _))).count() as f64;
        assert!((recent / (n - uploads) - 0.2).abs() < 0.04);
        assert!(s.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(s.iter().all(|(t, _)| (0.0..200.0).contains(t)));
    }
}
