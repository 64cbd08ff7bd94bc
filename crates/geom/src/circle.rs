//! Circles: query areas, radio ranges and sensing ranges.

use crate::{Point, Rect};
use std::fmt;

/// A circle defined by its centre and radius, in metres.
///
/// MobiQuery query areas `A(Pu(t))` are circles of radius `Rq` centred on the
/// user's position; radio and sensing ranges are circles around nodes.
///
/// ```
/// use wsn_geom::{Circle, Point};
///
/// let area = Circle::new(Point::new(0.0, 0.0), 150.0);
/// assert!(area.contains(Point::new(100.0, 100.0)));
/// assert!(!area.contains(Point::new(150.0, 150.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Centre of the circle.
    pub center: Point,
    /// Radius in metres. Always non-negative.
    pub radius: f64,
}

impl Circle {
    /// Creates a circle from a centre and radius.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "circle radius must be finite and non-negative, got {radius}"
        );
        Circle { center, radius }
    }

    /// Returns `true` when `point` lies inside or on the boundary.
    ///
    /// Evaluates the shared [`crate::covers`] predicate, so circle
    /// containment, grid range queries and the coverage raster classify
    /// boundary points identically.
    pub fn contains(&self, point: Point) -> bool {
        crate::covers(self.center, self.radius, point)
    }

    /// Returns `true` when this circle and `other` overlap (share any point).
    pub fn intersects(&self, other: &Circle) -> bool {
        let d = self.center.distance_to(other.center);
        d <= self.radius + other.radius
    }

    /// Returns `true` when `other` lies entirely inside this circle.
    pub fn contains_circle(&self, other: &Circle) -> bool {
        let d = self.center.distance_to(other.center);
        d + other.radius <= self.radius + 1e-9
    }

    /// Area of the circle in square metres.
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// The axis-aligned bounding box of the circle.
    pub fn bounding_box(&self) -> Rect {
        Rect::new(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )
    }

    /// The two intersection points of this circle's boundary with `other`'s
    /// boundary, if the boundaries cross.
    ///
    /// Returns `None` when the circles do not intersect, are tangent within
    /// floating-point accuracy, or are concentric. This is the primitive used
    /// by the CCP coverage-eligibility rule, which evaluates coverage at the
    /// intersection points of sensing circles.
    pub fn boundary_intersections(&self, other: &Circle) -> Option<(Point, Point)> {
        let d = self.center.distance_to(other.center);
        if d <= f64::EPSILON {
            return None; // concentric
        }
        if d > self.radius + other.radius || d < (self.radius - other.radius).abs() {
            return None; // separate or one inside the other
        }
        // Standard two-circle intersection.
        let a = (self.radius * self.radius - other.radius * other.radius + d * d) / (2.0 * d);
        let h_sq = self.radius * self.radius - a * a;
        if h_sq < 0.0 {
            return None;
        }
        let h = h_sq.sqrt();
        let dir = (other.center - self.center) / d;
        let mid = self.center + dir * a;
        let perp = crate::Vector::new(-dir.y, dir.x) * h;
        Some((mid + perp, mid - perp))
    }
}

impl fmt::Display for Circle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "circle(center={}, r={:.2})", self.center, self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_center_and_boundary() {
        let c = Circle::new(Point::new(1.0, 1.0), 2.0);
        assert!(c.contains(c.center));
        assert!(c.contains(Point::new(3.0, 1.0)));
        assert!(!c.contains(Point::new(3.1, 1.0)));
    }

    #[test]
    #[should_panic]
    fn negative_radius_panics() {
        let _ = Circle::new(Point::ORIGIN, -1.0);
    }

    #[test]
    fn intersects_overlapping() {
        let a = Circle::new(Point::new(0.0, 0.0), 5.0);
        let b = Circle::new(Point::new(8.0, 0.0), 4.0);
        assert!(a.intersects(&b));
        let c = Circle::new(Point::new(20.0, 0.0), 4.0);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn contains_circle_nested() {
        let outer = Circle::new(Point::new(0.0, 0.0), 10.0);
        let inner = Circle::new(Point::new(2.0, 2.0), 3.0);
        assert!(outer.contains_circle(&inner));
        assert!(!inner.contains_circle(&outer));
    }

    #[test]
    fn area_of_unit_circle() {
        let c = Circle::new(Point::ORIGIN, 1.0);
        assert!((c.area() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn bounding_box_encloses_circle() {
        let c = Circle::new(Point::new(5.0, -3.0), 2.0);
        let bb = c.bounding_box();
        assert_eq!(bb.min_x, 3.0);
        assert_eq!(bb.max_x, 7.0);
        assert_eq!(bb.min_y, -5.0);
        assert_eq!(bb.max_y, -1.0);
    }

    #[test]
    fn boundary_intersections_lie_on_both_circles() {
        let a = Circle::new(Point::new(0.0, 0.0), 5.0);
        let b = Circle::new(Point::new(6.0, 0.0), 5.0);
        let (p, q) = a.boundary_intersections(&b).expect("circles intersect");
        for pt in [p, q] {
            assert!((a.center.distance_to(pt) - a.radius).abs() < 1e-9);
            assert!((b.center.distance_to(pt) - b.radius).abs() < 1e-9);
        }
        assert!(p.distance_to(q) > 1.0);
    }

    #[test]
    fn boundary_intersections_none_when_disjoint() {
        let a = Circle::new(Point::new(0.0, 0.0), 1.0);
        let b = Circle::new(Point::new(10.0, 0.0), 1.0);
        assert!(a.boundary_intersections(&b).is_none());
    }

    #[test]
    fn boundary_intersections_none_when_concentric() {
        let a = Circle::new(Point::new(0.0, 0.0), 1.0);
        let b = Circle::new(Point::new(0.0, 0.0), 2.0);
        assert!(a.boundary_intersections(&b).is_none());
    }
}
