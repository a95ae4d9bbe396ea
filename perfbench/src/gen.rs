//! Seeded workload generators. The workload seed is the only input: every
//! spec the program under test sees is derived from it here, so the same
//! seed replays the same campaign and two seeds give two campaigns.

use atd::JobSpec;
use pstime::{DataRate, Duration};

/// The four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Replayed campaign: skewed draws over a stored working set.
    Warm,
    /// New-device campaign: every spec unique, every result computed.
    Cold,
    /// Round-trip floor: one connection at depth 1 over cached specs.
    Serial,
    /// Sharded campaigns through an in-process three-head farm.
    Farm,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Workload; 4] =
        [Workload::Warm, Workload::Cold, Workload::Serial, Workload::Farm];

    /// The workload's command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Warm => "warm",
            Workload::Cold => "cold",
            Workload::Serial => "serial",
            Workload::Farm => "farm",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// THP/2 connections driving the daemon; for the farm, caller
    /// threads.
    pub fn connections(self) -> usize {
        match self {
            Workload::Warm | Workload::Cold => 2,
            Workload::Serial | Workload::Farm => 1,
        }
    }

    /// Submissions each connection keeps in flight (closed loop).
    pub fn depth(self) -> usize {
        match self {
            // The daemon's default per-session cap.
            Workload::Warm => atd::server::DEFAULT_PIPELINE_DEPTH,
            // Just enough that the queue never runs dry while the two
            // clients read results and refill.
            Workload::Cold => 4,
            Workload::Serial | Workload::Farm => 1,
        }
    }
}

/// Specs in the warm working set: 4x the daemon's default LRU.
pub const WARM_SET: usize = 4 * atd::scheduler::DEFAULT_CACHE_ENTRIES;
/// Composite campaigns in the farm working set; their shards fit the
/// three heads' default LRUs, so the timed phase computes nothing.
pub const FARM_SET: usize = 32;
/// Heads in the benchmark farm.
pub const FARM_HEADS: usize = 3;

/// SplitMix64: a tiny, well-mixed generator. Its only job is to turn the
/// workload seed into reproducible spec fields and draw sequences.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, domain-separated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

fn rate() -> DataRate {
    DataRate::from_gbps(2.5)
}

/// The load generator's shmoo size: 3 threshold rows x 40 strobe phases.
fn shmoo(stim_seed: u64, seed: u64) -> JobSpec {
    JobSpec::Shmoo {
        rate_bps: rate().as_bps(),
        bits: 256,
        stim_seed,
        phase_step_fs: Duration::from_ps(10).as_fs(),
        v_start_mv: -1400,
        v_end_mv: -1200,
        v_step_mv: 100,
        seed,
    }
}

/// The load generator's wafer size: 4 dies on 2 sites.
fn wafer(seed: u64) -> JobSpec {
    JobSpec::Wafer {
        columns: 2,
        dies: 4,
        sites: 2,
        hard_defect_rate: 0.25,
        marginal_rate: 0.0,
        rate_bps: rate().as_bps(),
        test_bits: 256,
        seed,
    }
}

fn eye(stim_seed: u64, seed: u64) -> JobSpec {
    JobSpec::eye(rate(), 256, stim_seed, seed)
}

fn bathtub(rj_rms_fs: i64, dj_pp_fs: i64, points: u32) -> JobSpec {
    JobSpec::bathtub(Duration::from_fs(rj_rms_fs), Duration::from_fs(dj_pp_fs), rate(), 0.5, points)
}

/// The `index`-th spec of `kind` (0 shmoo, 1 wafer, 2 eye, 3 bathtub)
/// whose fields come from `r`; `index` is folded into an identity
/// field, so distinct indices give distinct specs.
fn spec_of_kind(kind: usize, index: usize, r: u64, points: u32) -> JobSpec {
    let unique = (r & !0xffff_ffff) | index as u64;
    match kind % 4 {
        0 => shmoo(r.rotate_left(17), unique),
        1 => wafer(unique),
        2 => eye(r.rotate_left(29), unique),
        // 2..6 ps RJ on a 1 fs grid; the index sets the RJ so specs stay
        // distinct, the seed sets the DJ.
        _ => bathtub(2_000 + index as i64, 15_000 + (r % 10_000) as i64, points),
    }
}

/// Working-set slots that share a kind and a result size: index `i`
/// is in class `i % SIZE_CLASSES`. Seeds reorder specs only within a
/// class, so the bytes a draw sequence moves do not depend on the seed.
const SIZE_CLASSES: usize = 8;

/// Bathtub points for slot `index`: 1001 and 2001 alternate every four
/// slots, keeping each size class uniform.
fn points_for(index: usize) -> u32 {
    if (index / 4).is_multiple_of(2) {
        1001
    } else {
        2001
    }
}

/// The warm working set: `WARM_SET` distinct specs, a quarter of each
/// kind, bathtubs at 1001 or 2001 points (results up to 32 KB).
pub fn warm_set(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, 1);
    (0..WARM_SET).map(|i| spec_of_kind(i % 4, i, rng.next_u64(), points_for(i))).collect()
}

/// The `index`-th cold spec: unique per index within a seed, distinct
/// across seeds, of one of the four kinds at load-generator sizes. The
/// kind is drawn from the seed, not cycled: the daemon's queue then
/// holds a random mix of costs. A fixed cycle let the connections fall
/// into a pattern of which kinds queue behind which that held for a
/// whole run and differed between runs, and p99 moved with it (two
/// runs: 41 and 56 ms, with p50 within 12%).
pub fn cold_spec(seed: u64, index: usize) -> JobSpec {
    let mut rng = Rng::new(seed, 2 + ((index as u64) << 8));
    let r = rng.next_u64();
    spec_of_kind(rng.below(4), index, r, points_for(index))
}

/// The `index`-th cold spec's fields on a spec of `kind` (0 shmoo,
/// 1 wafer, 2 eye, 3 bathtub): a probe of a fixed kind.
pub fn cold_spec_of_kind(seed: u64, index: usize, kind: usize) -> JobSpec {
    let r = Rng::new(seed, 2 + ((index as u64) << 8)).next_u64();
    spec_of_kind(kind, index, r, points_for(index))
}

/// The serial set: one small spec of each kind, all resident in the LRU.
pub fn serial_set(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, 3);
    (0..4).map(|i| spec_of_kind(i, i, rng.next_u64(), 101)).collect()
}

/// The farm working set: composite shmoo and wafer campaigns the planner
/// shards across the heads.
pub fn farm_set(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, 4);
    (0..FARM_SET)
        .map(|i| {
            let r = rng.next_u64();
            let unique = (r & !0xffff_ffff) | i as u64;
            if i % 2 == 0 {
                shmoo(r.rotate_left(17), unique)
            } else {
                wafer(unique)
            }
        })
        .collect()
}

/// Skewed draws over a working set: Zipf(1) ranks mapped through a
/// seeded permutation, so which specs are hot changes with the seed.
/// The permutation stays within size classes (rank `r` maps to a slot
/// of class `r % SIZE_CLASSES`), so the hot set's kinds and sizes do not.
#[derive(Debug, Clone)]
pub struct Draws {
    rng: Rng,
    /// Cumulative Zipf weights, normalised to end at 1.
    cdf: Vec<f64>,
    /// Rank -> working-set index.
    perm: Vec<usize>,
}

impl Draws {
    /// Draws over `n` items for `seed`; `lane` separates the streams of
    /// concurrent clients.
    pub fn zipf(seed: u64, lane: u64, n: usize) -> Draws {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / rank as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut shuffle = Rng::new(seed, 5);
        let mut perm: Vec<usize> = (0..n).collect();
        for class in 0..SIZE_CLASSES.min(n) {
            let slots: Vec<usize> = (class..n).step_by(SIZE_CLASSES).collect();
            for k in (1..slots.len()).rev() {
                perm.swap(slots[k], slots[shuffle.below(k + 1)]);
            }
        }
        Draws { rng: Rng::new(seed, 6 + lane), cdf, perm }
    }

    /// Uniform draws over `n` items.
    pub fn uniform(seed: u64, lane: u64, n: usize) -> Draws {
        let cdf = (1..=n).map(|k| k as f64 / n as f64).collect();
        Draws { rng: Rng::new(seed, 6 + lane), cdf, perm: (0..n).collect() }
    }

    /// The next working-set index.
    pub fn next_index(&mut self) -> usize {
        let u = self.rng.unit();
        let rank = self.cdf.partition_point(|c| *c <= u).min(self.cdf.len().saturating_sub(1));
        self.perm.get(rank).copied().unwrap_or(0)
    }
}

/// The request sequence a workload's client `lane` sends, as indices
/// into the workload's spec list (cold specs are generated by index, so
/// its "draw" is the index itself).
pub fn draws(workload: Workload, seed: u64, lane: u64, set_len: usize) -> Draws {
    match workload {
        Workload::Serial => Draws::uniform(seed, lane, set_len),
        _ => Draws::zipf(seed, lane, set_len),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(specs: &[JobSpec]) -> Vec<Vec<u8>> {
        specs.iter().map(JobSpec::key_bytes).collect()
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(keys(&warm_set(7)), keys(&warm_set(7)));
        assert_eq!(keys(&serial_set(7)), keys(&serial_set(7)));
        assert_eq!(keys(&farm_set(7)), keys(&farm_set(7)));
        assert_eq!(cold_spec(7, 123).key_bytes(), cold_spec(7, 123).key_bytes());
        let a: Vec<usize> = (0..64)
            .map({
                let mut d = Draws::zipf(7, 0, WARM_SET);
                move |_| d.next_index()
            })
            .collect();
        let b: Vec<usize> = (0..64)
            .map({
                let mut d = Draws::zipf(7, 0, WARM_SET);
                move |_| d.next_index()
            })
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn generators_differ_across_seeds() {
        for (x, y) in warm_set(1).iter().zip(warm_set(2).iter()) {
            assert_ne!(x.key_bytes(), y.key_bytes());
        }
        for (x, y) in serial_set(1).iter().zip(serial_set(2).iter()) {
            assert_ne!(x.key_bytes(), y.key_bytes());
        }
        for (x, y) in farm_set(1).iter().zip(farm_set(2).iter()) {
            assert_ne!(x.key_bytes(), y.key_bytes());
        }
        for i in 0..64 {
            assert_ne!(cold_spec(1, i).key_bytes(), cold_spec(2, i).key_bytes());
        }
        let mut a = Draws::zipf(1, 0, WARM_SET);
        let mut b = Draws::zipf(2, 0, WARM_SET);
        let same = (0..256).filter(|_| a.next_index() == b.next_index()).count();
        assert!(same < 64, "{same} of 256 draws coincide");
    }

    #[test]
    fn sets_are_distinct_valid_and_cold_never_repeats() {
        for set in [warm_set(3), serial_set(3), farm_set(3)] {
            let mut k = keys(&set);
            k.sort();
            k.dedup();
            assert_eq!(k.len(), set.len());
            assert!(set.iter().all(|s| s.validate().is_ok()));
        }
        let mut cold: Vec<Vec<u8>> = (0..4096).map(|i| cold_spec(3, i).key_bytes()).collect();
        cold.sort();
        cold.dedup();
        assert_eq!(cold.len(), 4096);
        assert!((0..64).all(|i| cold_spec(3, i).validate().is_ok()));
    }

    #[test]
    fn farm_campaigns_shard_across_every_head() {
        for spec in farm_set(5) {
            assert_eq!(atd_farm::plan(&spec, FARM_HEADS).unwrap().len(), FARM_HEADS);
        }
    }

    #[test]
    fn seeds_reorder_specs_only_within_size_classes() {
        let mut d = Draws::zipf(11, 0, WARM_SET);
        for (rank, slot) in d.perm.iter().enumerate() {
            assert_eq!(rank % SIZE_CLASSES, slot % SIZE_CLASSES);
        }
        assert_ne!(d.perm, Draws::zipf(12, 0, WARM_SET).perm);
        assert!(d.next_index() < WARM_SET);
    }

    #[test]
    fn warm_draws_are_skewed() {
        let mut d = Draws::zipf(9, 0, WARM_SET);
        let mut hits = vec![0usize; WARM_SET];
        for _ in 0..20_000 {
            hits[d.next_index()] += 1;
        }
        hits.sort_unstable_by(|a, b| b.cmp(a));
        let top: usize = hits.iter().take(atd::scheduler::DEFAULT_CACHE_ENTRIES).sum();
        // Zipf(1) over 256 puts ~74% of the mass on the top 64 ranks.
        assert!((13_000..17_000).contains(&top), "top-64 mass {top}");
    }
}
