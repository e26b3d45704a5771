//! Planar geometry primitives: points and the rectangular simulation field.

use core::fmt;

/// A point (or displacement) in the 2-D simulation plane, in meters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Point2 {
    /// X coordinate, meters.
    pub x: f64,
    /// Y coordinate, meters.
    pub y: f64,
}

impl Point2 {
    /// Origin point.
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Construct a point.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Squared Euclidean distance to `other` (avoids the sqrt in hot loops).
    #[inline]
    pub fn dist_sq(self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Point2) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Linear interpolation: `self + t * (other - self)` with `t ∈ [0, 1]`.
    #[inline]
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        Point2 {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }

    /// Move from `self` toward `target` by exactly `step` meters, stopping
    /// at the target if it is closer than `step`.
    ///
    /// Costs one `sqrt` for the distance. Callers on a hot advance path
    /// that *already* computed `d = self.dist(target)` (mobility models
    /// typically need it for arrival/time accounting) should not pay that
    /// sqrt twice: when `step < d`, `self.lerp(target, step / d)` is
    /// bit-identical to this method.
    pub fn step_toward(self, target: Point2, step: f64) -> Point2 {
        let d = self.dist(target);
        if d <= step || d == 0.0 {
            target
        } else {
            self.lerp(target, step / d)
        }
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// The rectangular simulation field `[0, width] × [0, height]`, meters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Field {
    width: f64,
    height: f64,
}

impl Field {
    /// Construct a field.
    ///
    /// # Panics
    /// Panics unless both dimensions are positive and finite.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && height > 0.0 && width.is_finite() && height.is_finite(),
            "field dimensions must be positive and finite, got {width} x {height}"
        );
        Field { width, height }
    }

    /// A square field of the given side length.
    pub fn square(side: f64) -> Self {
        Field::new(side, side)
    }

    /// Field width in meters.
    #[inline]
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Field height in meters.
    #[inline]
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Is `p` inside the field (inclusive of edges)?
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        (0.0..=self.width).contains(&p.x) && (0.0..=self.height).contains(&p.y)
    }

    /// Clamp `p` to the field boundary.
    #[inline]
    pub fn clamp(&self, p: Point2) -> Point2 {
        Point2 {
            x: p.x.clamp(0.0, self.width),
            y: p.y.clamp(0.0, self.height),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distances() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a.dist_sq(b), 25.0);
        assert_eq!(a.dist(b), 5.0);
        assert_eq!(a.dist(a), 0.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(10.0, -10.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point2::new(5.0, -5.0));
    }

    #[test]
    fn step_toward_shorter_than_step_reaches_target() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        assert_eq!(a.step_toward(b, 5.0), b);
        assert_eq!(b.step_toward(b, 5.0), b); // zero-distance case
    }

    #[test]
    fn step_toward_partial() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(10.0, 0.0);
        let c = a.step_toward(b, 4.0);
        assert!((c.x - 4.0).abs() < 1e-12 && c.y == 0.0);
    }

    #[test]
    fn field_basics() {
        let f = Field::new(710.0, 500.0);
        assert_eq!(f.width(), 710.0);
        assert_eq!(f.height(), 500.0);
        assert!(f.contains(Point2::new(0.0, 0.0)));
        assert!(f.contains(Point2::new(710.0, 500.0)));
        assert!(!f.contains(Point2::new(710.1, 0.0)));
        assert!(!f.contains(Point2::new(-0.1, 0.0)));
        let sq = Field::square(100.0);
        assert_eq!(sq.width(), sq.height());
    }

    #[test]
    fn clamp_pins_to_boundary() {
        let f = Field::square(100.0);
        assert_eq!(f.clamp(Point2::new(-5.0, 50.0)), Point2::new(0.0, 50.0));
        assert_eq!(
            f.clamp(Point2::new(150.0, 150.0)),
            Point2::new(100.0, 100.0)
        );
        let inside = Point2::new(10.0, 20.0);
        assert_eq!(f.clamp(inside), inside);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_field_rejected() {
        Field::new(0.0, 10.0);
    }

    proptest! {
        #[test]
        fn prop_dist_symmetric(ax in -1e3..1e3f64, ay in -1e3..1e3f64,
                               bx in -1e3..1e3f64, by in -1e3..1e3f64) {
            let a = Point2::new(ax, ay);
            let b = Point2::new(bx, by);
            prop_assert!((a.dist(b) - b.dist(a)).abs() < 1e-9);
            prop_assert!(a.dist(b) >= 0.0);
        }

        #[test]
        fn prop_clamp_always_contained(x in -1e4..1e4f64, y in -1e4..1e4f64) {
            let f = Field::new(710.0, 710.0);
            prop_assert!(f.contains(f.clamp(Point2::new(x, y))));
        }

        #[test]
        fn prop_step_never_overshoots(x in 0.0..100.0f64, y in 0.0..100.0f64, step in 0.0..50.0f64) {
            let a = Point2::new(0.0, 0.0);
            let t = Point2::new(x, y);
            let moved = a.step_toward(t, step);
            // distance traveled is at most `step` (+ eps) and we never move past the target
            prop_assert!(a.dist(moved) <= step + 1e-9 || moved == t);
            prop_assert!(moved.dist(t) <= a.dist(t) + 1e-9);
        }

        /// The sqrt-free substitution the mobility hot paths use (see the
        /// `step_toward` docs): with the distance already in hand and
        /// `step < d`, `lerp(target, step / d)` is bit-identical.
        #[test]
        fn prop_lerp_substitution_is_bit_identical(
            ax in -500.0..500.0f64, ay in -500.0..500.0f64,
            tx in -500.0..500.0f64, ty in -500.0..500.0f64,
            frac in 0.0..1.0f64,
        ) {
            let a = Point2::new(ax, ay);
            let t = Point2::new(tx, ty);
            let d = a.dist(t);
            let step = d * frac;
            prop_assume!(step < d);
            prop_assert_eq!(a.step_toward(t, step), a.lerp(t, step / d));
        }
    }
}
