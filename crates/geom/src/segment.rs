//! Line segments: legs of the mobile user's path.

use crate::{Point, Vector};
use std::fmt;

/// A directed line segment from `start` to `end`.
///
/// Motion-profile legs are segments traversed at constant speed; pickup
/// points are positions interpolated along those segments.
///
/// ```
/// use wsn_geom::{Point, Segment};
///
/// let leg = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
/// assert_eq!(leg.length(), 100.0);
/// assert_eq!(leg.point_at(0.25), Point::new(25.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Starting point.
    pub start: Point,
    /// Ending point.
    pub end: Point,
}

impl Segment {
    /// Creates a segment between two points.
    pub const fn new(start: Point, end: Point) -> Self {
        Segment { start, end }
    }

    /// Length of the segment.
    pub fn length(&self) -> f64 {
        self.start.distance_to(self.end)
    }

    /// Direction of the segment as a displacement vector (not normalised).
    pub fn direction(&self) -> Vector {
        self.end - self.start
    }

    /// Point at parameter `t ∈ [0, 1]` along the segment (`0` = start, `1` = end).
    ///
    /// `t` is not clamped; callers that need clamping should do so explicitly.
    pub fn point_at(&self, t: f64) -> Point {
        self.start.lerp(self.end, t)
    }

    /// Point reached after travelling `distance` metres from the start.
    ///
    /// Values beyond the segment length extrapolate past the end point.
    pub fn point_at_distance(&self, distance: f64) -> Point {
        let len = self.length();
        if len <= f64::EPSILON {
            self.start
        } else {
            self.point_at(distance / len)
        }
    }

    /// Minimum distance from `point` to any point of the segment.
    pub fn distance_to_point(&self, point: Point) -> f64 {
        let d = self.direction();
        let len_sq = d.length_sq();
        if len_sq <= f64::EPSILON {
            return self.start.distance_to(point);
        }
        let t = ((point - self.start).dot(d) / len_sq).clamp(0.0, 1.0);
        self.point_at(t).distance_to(point)
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "segment({} -> {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_and_direction() {
        let s = Segment::new(Point::new(1.0, 1.0), Point::new(4.0, 5.0));
        assert_eq!(s.length(), 5.0);
        assert_eq!(s.direction(), Vector::new(3.0, 4.0));
    }

    #[test]
    fn point_at_endpoints() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.point_at(0.0), s.start);
        assert_eq!(s.point_at(1.0), s.end);
    }

    #[test]
    fn point_at_distance_degenerate_segment() {
        let p = Point::new(2.0, 2.0);
        let s = Segment::new(p, p);
        assert_eq!(s.point_at_distance(5.0), p);
    }

    #[test]
    fn distance_to_point_projection_cases() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        // Perpendicular projection onto the middle.
        assert_eq!(s.distance_to_point(Point::new(5.0, 3.0)), 3.0);
        // Beyond the end: distance to the endpoint.
        assert_eq!(s.distance_to_point(Point::new(13.0, 4.0)), 5.0);
        // Before the start.
        assert_eq!(s.distance_to_point(Point::new(-3.0, 4.0)), 5.0);
    }
}
