//! Input generators. `--seed` is their only input, and they use their own
//! generator (not the simulator's), so a change to the program under test
//! never changes what it is fed: positions, query pairs, arrival schedules
//! and fault plans.

use card_core::{Arrival, ArrivalKind};
use net_topology::geometry::{Field, Point2};
use net_topology::node::NodeId;
use sim_core::faults::{FaultConfig, FaultPlan, PartitionWindow};
use sim_core::time::SimDuration;

pub type Pair = (NodeId, NodeId);

/// SplitMix64.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `label` under `seed` (FNV-1a of the label
    /// folded into the seed, then one mixing step).
    pub fn new(seed: u64, label: &str) -> Rng {
        let mut h = 0xcbf29ce484222325u64;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
        let mut r = Rng(seed ^ h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// Table-1 scenario-5 density: 500 nodes per 710 m square.
pub fn field_for(n: usize) -> Field {
    Field::square(710.0 * (n as f64 / 500.0).sqrt())
}

/// Radio range of scenario 5, in metres.
pub const TX_RANGE: f64 = 50.0;

pub fn positions(n: usize, seed: u64) -> (Field, Vec<Point2>) {
    let field = field_for(n);
    let mut rng = Rng::new(seed, "positions");
    let pts = (0..n)
        .map(|_| {
            Point2::new(
                rng.next_f64() * field.width(),
                rng.next_f64() * field.height(),
            )
        })
        .collect();
    (field, pts)
}

pub fn uniform_pairs(n: usize, count: usize, rng: &mut Rng) -> Vec<Pair> {
    (0..count)
        .map(|_| (NodeId::from(rng.below(n)), NodeId::from(rng.below(n))))
        .collect()
}

/// `count` draws from `pool`, uniformly.
pub fn pool_draws(pool: &[Pair], count: usize, rng: &mut Rng) -> Vec<Pair> {
    (0..count).map(|_| pool[rng.below(pool.len())]).collect()
}

/// `count` draws from `pool`, rank `i` with weight `1 / (i + 1)^s`.
pub fn zipf_draws(pool: &[Pair], count: usize, s: f64, rng: &mut Rng) -> Vec<Pair> {
    let mut cum = Vec::with_capacity(pool.len());
    let mut acc = 0.0;
    for i in 0..pool.len() {
        acc += 1.0 / ((i + 1) as f64).powf(s);
        cum.push(acc);
    }
    (0..count)
        .map(|_| {
            let u = rng.next_f64() * acc;
            pool[cum.partition_point(|&c| c < u).min(pool.len() - 1)]
        })
        .collect()
}

/// The open-loop arrival schedule of the mobile workloads: `standing`
/// subscriptions in the first simulated second, then `per_sec` one-shot
/// queries per simulated second at uniform instants, all over `pool`.
pub fn arrivals(
    pool: &[Pair],
    sim_secs: u64,
    standing: usize,
    per_sec: usize,
    rng: &mut Rng,
) -> Vec<Arrival> {
    let mut out = Vec::with_capacity(standing + per_sec * sim_secs as usize);
    for _ in 0..standing {
        let (source, target) = pool[rng.below(pool.len())];
        out.push(Arrival {
            at: SimDuration::from_micros(rng.below(1_000_000) as u64),
            kind: ArrivalKind::Standing { source, target },
        });
    }
    for sec in 0..sim_secs {
        for _ in 0..per_sec {
            let (source, target) = pool[rng.below(pool.len())];
            out.push(Arrival {
                at: SimDuration::from_micros(sec * 1_000_000 + rng.below(1_000_000) as u64),
                kind: ArrivalKind::Query { source, target },
            });
        }
    }
    out
}

/// The hostile regime over `rounds` validation rounds: 20% of the nodes
/// crash (each rejoining two rounds later), a 50% partition is open over
/// the second quarter of the run, and 1% of plane messages are dropped and
/// 1% delayed.
pub fn fault_plan(nodes: usize, rounds: u32, seed: u64) -> FaultPlan {
    let cfg = FaultConfig {
        churn_rate: 0.2,
        rejoin_after: 2,
        partition: Some(PartitionWindow {
            start_round: rounds / 4,
            end_round: rounds / 2,
            fraction: 0.5,
        }),
        drop_rate: 0.01,
        delay_rate: 0.01,
        rounds,
    };
    FaultPlan::generate(&cfg, nodes, Rng::new(seed, "fault-plan").next_u64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_labels_are_independent() {
        let (f1, p1) = positions(100, 7);
        let (f2, p2) = positions(100, 7);
        assert_eq!(f1.width(), f2.width());
        assert_eq!(p1, p2);
        assert_ne!(p1, positions(100, 8).1);
        assert!(p1.iter().all(|p| f1.contains(*p)));
        assert_ne!(Rng::new(7, "a").next_u64(), Rng::new(7, "b").next_u64());
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_the_pool() {
        let pool: Vec<Pair> = (0..64u32)
            .map(|i| (NodeId::new(i), NodeId::new(i)))
            .collect();
        let draws = zipf_draws(&pool, 10_000, 1.1, &mut Rng::new(1, "z"));
        let head = draws.iter().filter(|p| p.0.index() == 0).count();
        let tail = draws.iter().filter(|p| p.0.index() == 63).count();
        assert!(head > 10 * tail.max(1), "head {head} tail {tail}");
        assert_eq!(field_for(500).width(), 710.0);
    }

    #[test]
    fn arrivals_cover_every_second() {
        let pool = vec![(NodeId::new(1), NodeId::new(2))];
        let a = arrivals(&pool, 3, 2, 5, &mut Rng::new(3, "a"));
        assert_eq!(a.len(), 2 + 15);
        assert!(a[..2].iter().all(|x| x.at < SimDuration::from_secs(1)));
        assert!(a.iter().all(|x| x.at < SimDuration::from_secs(3)));
    }
}
