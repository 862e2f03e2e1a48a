// Closed-interval arithmetic.
//
// The evaluator's signature processing (paper eqs. (3)-(5)) reports every
// measurement as a *bounded interval*: the signatures carry quantization
// error terms eps in [-4, 4], and the DSP propagates those bounds through
// sqrt/hypot/ratio/atan.  This header provides the interval type used for
// that propagation.
#pragma once

#include <iosfwd>

namespace bistna {

/// A closed interval [lo, hi] on the real line.  Invariant: lo <= hi.
class interval {
public:
    /// The degenerate interval [0, 0].
    constexpr interval() = default;

    /// The degenerate interval [x, x].
    constexpr explicit interval(double x) : lo_(x), hi_(x) {}

    /// The interval [lo, hi]; throws precondition_error if lo > hi.
    interval(double lo, double hi);

    /// Build from two unordered endpoints.
    static interval from_unordered(double a, double b);

    /// [center - radius, center + radius]; radius must be >= 0.
    static interval centered(double center, double radius);

    constexpr double lo() const noexcept { return lo_; }
    constexpr double hi() const noexcept { return hi_; }
    constexpr double width() const noexcept { return hi_ - lo_; }
    constexpr double midpoint() const noexcept { return 0.5 * (lo_ + hi_); }
    constexpr double radius() const noexcept { return 0.5 * (hi_ - lo_); }

    constexpr bool contains(double x) const noexcept { return lo_ <= x && x <= hi_; }
    constexpr bool contains(const interval& other) const noexcept {
        return lo_ <= other.lo_ && other.hi_ <= hi_;
    }
    constexpr bool intersects(const interval& other) const noexcept {
        return lo_ <= other.hi_ && other.lo_ <= hi_;
    }
    /// True when 0 is in the interval.
    constexpr bool contains_zero() const noexcept { return contains(0.0); }

    friend constexpr bool operator==(const interval&, const interval&) = default;

    interval operator+(const interval& other) const;
    interval operator-(const interval& other) const;
    interval operator*(const interval& other) const;
    interval operator+(double x) const;
    interval operator-(double x) const;
    interval operator*(double k) const;
    interval operator/(double k) const;
    interval operator-() const;

    /// Interval quotient; throws configuration_error when the divisor
    /// contains zero (the quotient would be unbounded).
    interval operator/(const interval& divisor) const;

private:
    double lo_ = 0.0;
    double hi_ = 0.0;
};

interval operator*(double k, const interval& iv);
interval operator+(double x, const interval& iv);

/// Smallest interval containing both arguments.
interval hull(const interval& a, const interval& b);

/// Intersection; throws configuration_error when empty.
interval intersect(const interval& a, const interval& b);

/// Image of the interval under sqrt; requires lo >= 0.
interval sqrt(const interval& iv);

/// Image under x -> x^2 (handles sign-straddling intervals).
interval square(const interval& iv);

/// Tight enclosure of hypot(a, b) = sqrt(a^2 + b^2) over the box a x b.
/// This is the exact form used by paper eq. (4): min/max of
/// sqrt((I1+eps1)^2 + (I2+eps2)^2) over eps in [-4,4]^2.
interval hypot(const interval& a, const interval& b);

/// Image under atan (monotonic).
interval atan(const interval& iv);

/// Phase interval (radians) of the point set {(c, s) : c in cos_axis, s in
/// sin_axis} via atan2, assuming the set does not enclose the origin; the
/// result is the hull of the four corner phases (suitable for the small
/// uncertainty boxes produced by eq. (5)).  Throws configuration_error when
/// both intervals contain zero.
interval atan2_box(const interval& sin_axis, const interval& cos_axis);

std::ostream& operator<<(std::ostream& os, const interval& iv);

} // namespace bistna
