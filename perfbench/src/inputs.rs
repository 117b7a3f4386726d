//! Seeded input generation and the benchmark's own platform files.
//!
//! Everything a workload feeds the simulator is derived here from the
//! `--seed` argument, so the program under test only ever sees generated
//! inputs (sizes, flop counts, sweep seeds), never the seed itself.

use std::path::Path;
use std::sync::Arc;

use smpi_platform::{from_xml, RoutedPlatform};

/// SplitMix64: a tiny counter-style generator, enough for benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for one named input stream of a seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Reads one of the benchmark's platform files (`perfbench/inputs/*.xml`,
/// relative to the checkout root, which is the working directory) and
/// builds everything the simulator derives from it: the parsed platform,
/// its routes and its shared kernel image.
pub fn load_platform(name: &str) -> Arc<RoutedPlatform> {
    let path = Path::new("perfbench/inputs").join(format!("{name}.xml"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let platform = from_xml(&text).unwrap_or_else(|e| panic!("bad platform {name}: {e}"));
    let rp = Arc::new(RoutedPlatform::new(platform));
    // The kernel image is built lazily on first use; force it here so it
    // counts as set-up rather than as the first run's work.
    rp.image();
    rp
}

/// Per-(round, rank) compute amounts of coll-online, in flops.
pub fn coll_flops(seed: u64, rounds: usize, ranks: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed, 1);
    (0..rounds)
        .map(|_| (0..ranks).map(|_| 2e6 * (1.0 + 3.0 * rng.unit())).collect())
        .collect()
}

/// Per-(round, src, dst) message sizes of a2av-online, in bytes: log-uniform
/// between 4 KiB and 1 MiB, so every round mixes eager-sized and
/// bandwidth-bound messages. Self-pairs carry nothing.
pub fn a2av_sizes(seed: u64, rounds: usize, ranks: usize) -> Vec<Vec<Vec<u64>>> {
    let mut rng = Rng::new(seed, 2);
    let (lo, hi) = ((4u64 << 10) as f64, (1u64 << 20) as f64);
    (0..rounds)
        .map(|_| {
            (0..ranks)
                .map(|src| {
                    (0..ranks)
                        .map(|dst| {
                            let u = rng.unit();
                            if src == dst {
                                0
                            } else {
                                (lo * (hi / lo).powf(u)).round() as u64
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// The sweep's own seed (jitter draws) for a benchmark seed.
pub fn sweep_seed(seed: u64) -> u64 {
    Rng::new(seed, 3).next_u64()
}

/// FNV-1a over a sequence of 64-bit words: a compact bitwise digest of
/// simulated outputs (finish times as raw `f64` bits, table bytes, ...).
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// [`digest`] of a byte string (its length first, so trailing zero bytes
/// count).
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    digest(
        std::iter::once(bytes.len() as u64).chain(bytes.chunks(8).map(|c| {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(w)
        })),
    )
}
