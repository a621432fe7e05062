//! Workload definitions and the seeded input generator.
//!
//! Everything a run writes, reads back and looks up is generated here,
//! before any world starts, from `(workload, seed)` alone: per-rank record
//! size streams, one shared payload pool that every rank's stream is a
//! window of, and the serial lookup sample.

use sion::IoMode;

/// Problem size: the benchmark's own configuration or the small smoke
/// configuration its tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One workload: what every rank writes, how it reads it back, and where.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub ranks: usize,
    /// User bytes each rank writes per cycle.
    pub bytes_per_rank: u64,
    /// Record sizes and their relative frequencies.
    pub record_mix: &'static [(u32, u32)],
    /// Explicit `flush` after every this many user bytes (0 = never).
    pub flush_every: u64,
    /// Size of each read-back call.
    pub read_size: usize,
    /// Block size of the workload's `vfs::MemFs`.
    pub fs_block: u64,
    pub nfiles: u32,
    pub chunksize: u64,
    pub rescue: bool,
    pub io_mode: IoMode,
    /// Serial `Multifile::read_at` lookups per cycle.
    pub lookups: usize,
    /// Length of each lookup read.
    pub lookup_len: u32,
    /// The end-to-end metrics the workload reports: those of the layers it
    /// was chosen to load.
    pub metrics: &'static [&'static str],
}

/// What a data-heavy workload reports: the data path's throughput.
const DATA_METRICS: &[&str] = &["setup_s", "write_gbps", "read_gbps", "peak_rss_mib"];

/// What the metadata-bound workload reports: the collective protocol's
/// phases and the serial metadata.
const PROTOCOL_METRICS: &[&str] = &[
    "setup_s",
    "open_write_s",
    "close_write_s",
    "open_read_s",
    "serial_open_s",
    "lookup_p50_us",
    "lookup_p99_us",
    "peak_rss_mib",
];

pub const WORKLOADS: [&str; 3] = ["ckpt_stream", "wide_open", "agg_small"];

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

impl Spec {
    pub fn get(name: &str, scale: Scale) -> Option<Spec> {
        let smoke = scale == Scale::Smoke;
        let spec = match name {
            // Heavy data, few ranks: the stream engine and the VFS do the
            // work, with rescue headers patched at every flush. The mix
            // straddles the 128 KiB write buffer, so the coalescing path
            // (64 B, 4 KiB), the 64 KiB point and the vectored bypass
            // (1 MiB) all run.
            "ckpt_stream" => Spec {
                name: "ckpt_stream",
                ranks: if smoke { 8 } else { 64 },
                bytes_per_rank: if smoke { 512 * KIB } else { 8 * MIB },
                record_mix: &[(64, 50), (4096, 30), (65536, 15), (1 << 20, 5)],
                flush_every: 0,
                read_size: 4096,
                fs_block: 4096,
                nfiles: 2,
                chunksize: 2 * MIB,
                rescue: true,
                io_mode: IoMode::Independent,
                lookups: if smoke { 200 } else { 10_000 },
                lookup_len: 64,
                metrics: DATA_METRICS,
            },
            // Many ranks, almost no data: collectives and the open/close
            // protocol dominate; the serial lookups straddle the 256-entry
            // location cache.
            "wide_open" => Spec {
                name: "wide_open",
                ranks: if smoke { 2048 } else { 8192 },
                bytes_per_rank: KIB,
                record_mix: &[(192, 1)],
                flush_every: 0,
                read_size: 192,
                fs_block: 4096,
                nfiles: 16,
                chunksize: KIB,
                rescue: false,
                io_mode: IoMode::Independent,
                lookups: if smoke { 200 } else { 10_000 },
                lookup_len: 64,
                metrics: PROTOCOL_METRICS,
            },
            // Aggregated small records: ship, replay, ack and the p2p
            // mailboxes do real work, with write-behind shipments at every
            // explicit flush.
            "agg_small" => Spec {
                name: "agg_small",
                ranks: if smoke { 64 } else { 1024 },
                bytes_per_rank: if smoke { 128 * KIB } else { 512 * KIB },
                record_mix: &[(256, 1), (1024, 1), (4096, 1)],
                flush_every: 64 * KIB,
                read_size: 4096,
                fs_block: 64 * KIB,
                nfiles: 4,
                chunksize: 64 * KIB,
                rescue: false,
                io_mode: IoMode::Aggregated {
                    tasks_per_aggregator: 16,
                },
                lookups: if smoke { 200 } else { 10_000 },
                lookup_len: 64,
                metrics: DATA_METRICS,
            },
            _ => return None,
        };
        Some(spec)
    }

    pub fn params(&self) -> sion::SionParams {
        let p = sion::SionParams::new(self.chunksize)
            .with_nfiles(self.nfiles)
            .with_io_mode(self.io_mode);
        if self.rescue {
            p.with_rescue()
        } else {
            p
        }
    }

    /// User bytes of one cycle, over all ranks.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_per_rank * self.ranks as u64
    }
}

/// splitmix64: small, seedable, and good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Distance between the payload windows of consecutive ranks: prime, so
/// no rank's stream is a shifted copy of a neighbour's at any aligned
/// offset, and a rank served another rank's bytes fails the comparison.
const RANK_STRIDE: usize = 257;

/// One serial lookup: `len` bytes of `rank`'s logical stream at `pos`.
#[derive(Debug, Clone, Copy)]
pub struct Lookup {
    pub rank: usize,
    pub pos: u64,
    pub len: u32,
}

/// The generated inputs of one run.
pub struct Inputs {
    pool: Vec<u8>,
    shift: usize,
    bytes_per_rank: usize,
    /// Record sizes per rank; each stream sums to `bytes_per_rank`.
    pub records: Vec<Vec<u32>>,
    pub lookups: Vec<Lookup>,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let bytes_per_rank = spec.bytes_per_rank as usize;
        let mut rng = Rng::new(seed ^ 0x5EED_0E2E);
        let shift = rng.below(RANK_STRIDE as u64) as usize;
        let pool_len = bytes_per_rank + spec.ranks * RANK_STRIDE + RANK_STRIDE;
        let mut pool = Vec::with_capacity(pool_len + 8);
        while pool.len() < pool_len {
            pool.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        pool.truncate(pool_len);

        let weight_sum: u64 = spec.record_mix.iter().map(|&(_, w)| w as u64).sum();
        let records = (0..spec.ranks)
            .map(|_| {
                let mut left = bytes_per_rank as u64;
                let mut sizes = Vec::new();
                while left > 0 {
                    let mut pick = rng.below(weight_sum);
                    let mut size = spec.record_mix[0].0;
                    for &(s, w) in spec.record_mix {
                        if pick < w as u64 {
                            size = s;
                            break;
                        }
                        pick -= w as u64;
                    }
                    let size = (size as u64).min(left);
                    sizes.push(size as u32);
                    left -= size;
                }
                sizes
            })
            .collect();

        // Skewed rank choice: u³ concentrates about a third of the sample
        // on the lowest 1/32 of the ranks (hits in the location cache) and
        // spreads the rest thinly over all of them (misses). A seeded
        // odd multiplier scatters the hot ranks across the physical files.
        let mul = (rng.next_u64() | 1) as usize;
        let lookups = (0..spec.lookups)
            .map(|_| {
                let u = rng.unit();
                let hot = ((u * u * u) * spec.ranks as f64) as usize % spec.ranks;
                let rank = hot.wrapping_mul(mul) % spec.ranks;
                let len = spec.lookup_len.min(bytes_per_rank as u32);
                let pos = rng.below(spec.bytes_per_rank - len as u64 + 1);
                Lookup { rank, pos, len }
            })
            .collect();
        Inputs {
            pool,
            shift,
            bytes_per_rank,
            records,
            lookups,
        }
    }

    /// The bytes `rank` writes, in stream order.
    pub fn expected(&self, rank: usize) -> &[u8] {
        let start = self.shift + rank * RANK_STRIDE;
        &self.pool[start..start + self.bytes_per_rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_streams_sum_to_rank_bytes() {
        for name in WORKLOADS {
            let spec = Spec::get(name, Scale::Smoke).unwrap();
            let a = Inputs::generate(&spec, 7);
            let b = Inputs::generate(&spec, 7);
            let c = Inputs::generate(&spec, 8);
            assert_eq!(a.records, b.records);
            assert_eq!(a.expected(3), b.expected(3));
            assert_ne!(a.expected(3), c.expected(3));
            assert_ne!(a.expected(3), a.expected(4));
            for r in &a.records {
                assert_eq!(
                    r.iter().map(|&s| s as u64).sum::<u64>(),
                    spec.bytes_per_rank
                );
            }
            for l in &a.lookups {
                assert!(l.pos + l.len as u64 <= spec.bytes_per_rank);
            }
        }
    }
}
