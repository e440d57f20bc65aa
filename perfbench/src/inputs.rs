//! Seeded inputs: the images of the batch workloads and the job
//! streams of the cluster workloads. The same seed gives the same
//! inputs; the program receives only what is generated here.

use accelsoc_apps::archs::Arch;
use accelsoc_apps::image::RgbImage;
use accelsoc_serve::{generate_workload, DseEstimator, JobSpec, TenantProfile, WorkloadSpec};

/// splitmix64: a small, fixed generator so inputs do not depend on any
/// library's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// A bimodal RGB scene: a noisy dark background with bright
/// rectangles and discs at seeded places, so the Otsu threshold
/// separates two real classes. Channels differ slightly so grayScale
/// does real work.
pub fn scene(side: u32, rng: &mut Rng) -> RgbImage {
    let s = side as i64;
    let bg = rng.range(20, 80);
    let fg = rng.range(160, 230);
    let mut level = vec![bg; (s * s) as usize];
    for _ in 0..rng.range(1, 3) {
        let (x0, y0) = (rng.range(0, s - 8), rng.range(0, s - 8));
        let (w, h) = (rng.range(4, s / 2), rng.range(4, s / 2));
        for y in y0..(y0 + h).min(s) {
            for x in x0..(x0 + w).min(s) {
                level[(y * s + x) as usize] = fg;
            }
        }
    }
    for _ in 0..rng.range(1, 2) {
        let (cx, cy, r) = (
            rng.range(0, s - 1),
            rng.range(0, s - 1),
            rng.range(3, s / 4),
        );
        for y in 0..s {
            for x in 0..s {
                if (x - cx).pow(2) + (y - cy).pow(2) <= r * r {
                    level[(y * s + x) as usize] = fg;
                }
            }
        }
    }
    let data = level
        .into_iter()
        .map(|v| {
            let mut ch = || (v + rng.range(-15, 15)).clamp(0, 255) as u32;
            (ch() << 16) | (ch() << 8) | ch()
        })
        .collect();
    RgbImage {
        width: side,
        height: side,
        data,
    }
}

pub fn scenes(count: usize, side: u32, seed: u64) -> Vec<RgbImage> {
    let mut rng = Rng::new(seed);
    (0..count).map(|_| scene(side, &mut rng)).collect()
}

/// Boards in the cluster mix: 4 nodes x 2 boards.
pub const NODES: usize = 4;
pub const BOARDS_PER_NODE: usize = 2;
/// Offered load against total board capacity.
pub const LOAD: f64 = 2.0;

/// The `accelsoc cluster-sim` tenant mix: a latency-sensitive tenant on
/// the all-hardware architecture with deadlines, and a best-effort
/// batch tenant on Arch1.
pub fn tenants() -> Vec<TenantProfile> {
    vec![
        TenantProfile {
            name: "interactive".into(),
            weight: 2,
            sides: vec![16, 24],
            archs: vec![Arch::Arch4],
            deadline_slack_pct: Some(5_000),
            fault_rate: 0.0,
        },
        TenantProfile {
            name: "batch".into(),
            weight: 1,
            sides: vec![24, 32],
            archs: vec![Arch::Arch1],
            deadline_slack_pct: None,
            fault_rate: 0.0,
        },
    ]
}

/// The open-loop arrival schedule: `jobs` arrivals whose mean gap puts
/// the offered load at [`LOAD`] times the cluster's estimated capacity.
pub fn job_stream(jobs: usize, seed: u64) -> Vec<JobSpec> {
    let tenants = tenants();
    let mut est = DseEstimator::new();
    let mix: Vec<u64> = tenants
        .iter()
        .flat_map(|t| {
            t.archs
                .iter()
                .flat_map(|&a| t.sides.iter().map(move |&s| (a, s)).collect::<Vec<_>>())
        })
        .map(|(a, s)| est.estimate_ps(a, s))
        .collect();
    let mean_est_ps = mix.iter().sum::<u64>() / mix.len() as u64;
    let boards = (NODES * BOARDS_PER_NODE) as f64;
    let mean_interarrival_ps = ((mean_est_ps as f64 / boards) / LOAD).max(1.0) as u64;
    let spec = WorkloadSpec {
        tenants,
        jobs,
        mean_interarrival_ps,
        seed,
    };
    generate_workload(&spec, &mut est)
}
