//! Node placement.
//!
//! The paper places nodes uniformly at random ([`place_uniform`] — the
//! initial distribution of the random-waypoint model), and so does every
//! scenario here. Tests that need a fixed layout write explicit positions.

use crate::geometry::{Field, Point2};
use sim_core::rng::RngStream;

/// `n` positions i.i.d. uniform over the field.
pub fn place_uniform(n: usize, field: Field, rng: &mut RngStream) -> Vec<Point2> {
    (0..n)
        .map(|_| {
            Point2::new(
                rng.range_f64(0.0, field.width()),
                rng.range_f64(0.0, field.height()),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rng() -> RngStream {
        RngStream::seed_from_u64(99)
    }

    #[test]
    fn uniform_in_bounds_and_count() {
        let field = Field::new(710.0, 500.0);
        let pts = place_uniform(500, field, &mut rng());
        assert_eq!(pts.len(), 500);
        assert!(pts.iter().all(|&p| field.contains(p)));
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let field = Field::square(100.0);
        let a = place_uniform(50, field, &mut RngStream::seed_from_u64(5));
        let b = place_uniform(50, field, &mut RngStream::seed_from_u64(5));
        assert_eq!(a, b);
        let c = place_uniform(50, field, &mut RngStream::seed_from_u64(6));
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_spreads_over_quadrants() {
        let field = Field::square(100.0);
        let pts = place_uniform(400, field, &mut rng());
        let q = |p: &Point2| (p.x > 50.0) as usize * 2 + (p.y > 50.0) as usize;
        let mut counts = [0usize; 4];
        for p in &pts {
            counts[q(p)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 50, "quadrant {i} suspiciously empty: {c}/400");
        }
    }

    proptest! {
        #[test]
        fn prop_all_placements_in_bounds(seed in any::<u64>(), n in 0usize..200) {
            let field = Field::new(710.0, 710.0);
            let mut r = RngStream::seed_from_u64(seed);
            let pts = place_uniform(n, field, &mut r);
            prop_assert!(pts.iter().all(|&p| field.contains(p)));
        }
    }
}
