#include "diag/classifier.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace bistna::diag {

classifier::classifier(fault_dictionary dictionary) : dictionary_(std::move(dictionary)) {
    const std::size_t dims = dictionary_.space.dimensions();
    BISTNA_EXPECTS(dims > 0, "classifier needs a non-empty signature space");

    scales_ = dictionary_.space.component_floors();
    std::vector<double> lo(dims, std::numeric_limits<double>::infinity());
    std::vector<double> hi(dims, -std::numeric_limits<double>::infinity());
    bool any = false;
    const auto feed = [&](const std::vector<double>& signature) {
        BISTNA_EXPECTS(signature.size() == dims,
                       "dictionary signature does not match its space");
        for (std::size_t c = 0; c < dims; ++c) {
            lo[c] = std::min(lo[c], signature[c]);
            hi[c] = std::max(hi[c], signature[c]);
        }
        any = true;
    };
    if (!dictionary_.healthy.empty()) {
        feed(dictionary_.healthy);
    }
    for (const auto& trajectory : dictionary_.trajectories) {
        for (const auto& point : trajectory.points) {
            feed(point.signature);
        }
    }
    if (any) {
        for (std::size_t c = 0; c < dims; ++c) {
            scales_[c] = std::max(scales_[c], 0.5 * (hi[c] - lo[c]));
        }
    }
}

double classifier::distance(std::span<const double> a, std::span<const double> b) const {
    double sum = 0.0;
    for (std::size_t c = 0; c < scales_.size(); ++c) {
        sum += square((a[c] - b[c]) / scales_[c]);
    }
    return std::sqrt(sum / static_cast<double>(scales_.size()));
}

diagnosis classifier::classify(std::span<const double> signature) const {
    const std::size_t dims = dictionary_.space.dimensions();
    BISTNA_EXPECTS(signature.size() == dims,
                   "signature dimension does not match the dictionary space");

    diagnosis result;
    if (!dictionary_.healthy.empty()) {
        result.healthy_distance = distance(signature, dictionary_.healthy);
    }

    for (std::size_t j = 0; j < dictionary_.trajectories.size(); ++j) {
        const auto& trajectory = dictionary_.trajectories[j];
        if (trajectory.points.empty()) {
            continue;
        }
        fault_hypothesis best;
        best.kind = trajectory.kind;
        best.trajectory_index = j;
        best.severity = trajectory.points.front().severity;
        best.distance = distance(signature, trajectory.points.front().signature);
        // Point-to-polyline: project onto every segment in normalized
        // space; the parameter t along the closest segment interpolates
        // the severity estimate.
        for (std::size_t s = 0; s + 1 < trajectory.points.size(); ++s) {
            const auto& p0 = trajectory.points[s];
            const auto& p1 = trajectory.points[s + 1];
            double dot = 0.0;
            double len2 = 0.0;
            for (std::size_t c = 0; c < dims; ++c) {
                const double d = (p1.signature[c] - p0.signature[c]) / scales_[c];
                dot += d * (signature[c] - p0.signature[c]) / scales_[c];
                len2 += d * d;
            }
            const double t = len2 > 0.0 ? std::clamp(dot / len2, 0.0, 1.0) : 0.0;
            double sum = 0.0;
            for (std::size_t c = 0; c < dims; ++c) {
                const double closest =
                    lerp(p0.signature[c], p1.signature[c], t);
                sum += square((signature[c] - closest) / scales_[c]);
            }
            const double d = std::sqrt(sum / static_cast<double>(dims));
            if (d < best.distance) {
                best.distance = d;
                best.severity = lerp(p0.severity, p1.severity, t);
            }
        }
        result.ranked.push_back(best);
    }

    // Ties break on the unique trajectory index, which equals the insertion
    // order here -- the same result a stable sort by distance would give,
    // without the temporary buffer.
    std::sort(result.ranked.begin(), result.ranked.end(),
              [](const fault_hypothesis& a, const fault_hypothesis& b) {
                  if (a.distance != b.distance) {
                      return a.distance < b.distance;
                  }
                  return a.trajectory_index < b.trajectory_index;
              });

    if (!result.ranked.empty()) {
        const double cutoff =
            result.ranked.front().distance * ambiguity_ratio + ambiguity_margin;
        for (const auto& hypothesis : result.ranked) {
            if (hypothesis.distance <= cutoff) {
                result.ambiguity.push_back(hypothesis);
            }
        }
    }

    result.fault_detected =
        !result.ranked.empty() && (dictionary_.healthy.empty() ||
                                   result.healthy_distance > healthy_threshold);
    return result;
}

diagnosis classifier::classify_report(const core::screening_report& report) const {
    return classify(dictionary_.space.from_report(report));
}

} // namespace bistna::diag
