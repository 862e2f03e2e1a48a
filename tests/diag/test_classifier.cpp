// Nearest-trajectory classifier edge cases on hand-built dictionaries: an
// empty dictionary, single-point trajectories, a healthy die below the
// no-fault threshold, overlapping trajectories producing an ambiguity set,
// and severity interpolation along a polyline.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "diag/classifier.hpp"

namespace {

using namespace bistna;

/// A 2-component space (stimulus + offset rate) so distances are easy to
/// reason about by hand.
diag::signature_space tiny_space() {
    diag::signature_space space;
    space.include_gain = false;
    space.include_phase = false;
    space.include_stimulus_phase = false;
    space.frequencies_hz = {1000.0};
    return space;
}

diag::fault_dictionary tiny_dictionary() {
    diag::fault_dictionary dictionary;
    dictionary.space = tiny_space();
    dictionary.healthy = {0.30, 0.0};
    return dictionary;
}

TEST(Classifier, EmptyDictionaryReportsNoFault) {
    diag::fault_dictionary dictionary;
    dictionary.space = tiny_space();
    const diag::classifier clf(dictionary);
    const auto result = clf.classify(std::vector<double>{0.5, 0.5});
    EXPECT_FALSE(result.fault_detected);
    EXPECT_TRUE(result.ranked.empty());
    EXPECT_TRUE(result.ambiguity.empty());
}

TEST(Classifier, HealthyDieBelowThresholdIsNoFault) {
    auto dictionary = tiny_dictionary();
    dictionary.trajectories = {{diag::fault_kind::integrator_leak,
                                {{0.0, {0.30, 0.0}}, {0.05, {0.10, 0.0}}}}};
    const diag::classifier clf(dictionary);

    // Tiny measurement noise around the healthy signature: no fault.
    const auto healthy = clf.classify(std::vector<double>{0.3002, 0.0001});
    EXPECT_FALSE(healthy.fault_detected);
    EXPECT_LT(healthy.healthy_distance, diag::classifier::healthy_threshold);
    // Hypotheses are still ranked for inspection.
    ASSERT_EQ(healthy.ranked.size(), 1u);

    // A die far down the leak trajectory: fault detected, severity follows.
    const auto faulty = clf.classify(std::vector<double>{0.10, 0.0});
    EXPECT_TRUE(faulty.fault_detected);
    EXPECT_GT(faulty.healthy_distance, diag::classifier::healthy_threshold);
    EXPECT_EQ(faulty.ranked.front().kind, diag::fault_kind::integrator_leak);
    EXPECT_NEAR(faulty.ranked.front().severity, 0.05, 1e-9);
}

TEST(Classifier, SinglePointTrajectoryMatchesAtItsSeverity) {
    auto dictionary = tiny_dictionary();
    dictionary.trajectories = {
        {diag::fault_kind::comparator_offset, {{0.4, {0.30, 0.57}}}},
        {diag::fault_kind::integrator_leak, {{0.05, {0.10, 0.0}}}},
    };
    const diag::classifier clf(dictionary);
    const auto result = clf.classify(std::vector<double>{0.30, 0.55});
    ASSERT_EQ(result.ranked.size(), 2u);
    EXPECT_EQ(result.ranked.front().kind, diag::fault_kind::comparator_offset);
    EXPECT_DOUBLE_EQ(result.ranked.front().severity, 0.4);
    EXPECT_TRUE(result.fault_detected);
}

TEST(Classifier, SeverityInterpolatesAlongThePolyline) {
    auto dictionary = tiny_dictionary();
    // Straight trajectory: stimulus drops 0.30 -> 0.10 over severity 0..1.
    dictionary.trajectories = {{diag::fault_kind::opamp_degradation,
                                {{0.0, {0.30, 0.0}}, {0.5, {0.20, 0.0}}, {1.0, {0.10, 0.0}}}}};
    const diag::classifier clf(dictionary);
    // Query at 3/4 of the drop, slightly off the line on the other axis.
    const auto result = clf.classify(std::vector<double>{0.15, 0.01});
    ASSERT_FALSE(result.ranked.empty());
    EXPECT_NEAR(result.ranked.front().severity, 0.75, 0.01);
}

TEST(Classifier, OverlappingTrajectoriesFormAnAmbiguitySet) {
    auto dictionary = tiny_dictionary();
    // Two faults whose trajectories coincide on the stimulus axis -- the
    // classic indistinguishable pair.  A third, distant fault must stay
    // out of the ambiguity set.
    dictionary.trajectories = {
        {diag::fault_kind::integrator_leak, {{0.0, {0.30, 0.0}}, {0.05, {0.10, 0.0}}}},
        {diag::fault_kind::opamp_degradation, {{0.0, {0.30, 0.0}}, {1.0, {0.10, 0.0}}}},
        {diag::fault_kind::comparator_offset, {{0.0, {0.30, 0.0}}, {0.9, {0.30, 1.0}}}},
    };
    const diag::classifier clf(dictionary);
    const auto result = clf.classify(std::vector<double>{0.15, 0.0});
    EXPECT_TRUE(result.fault_detected);
    ASSERT_EQ(result.ranked.size(), 3u);
    ASSERT_EQ(result.ambiguity.size(), 2u);
    EXPECT_EQ(result.ambiguity[0].distance, result.ambiguity[1].distance);
    EXPECT_NE(result.ambiguity[0].kind, result.ambiguity[1].kind);
    for (const auto& hypothesis : result.ambiguity) {
        EXPECT_NE(hypothesis.kind, diag::fault_kind::comparator_offset);
    }
}

TEST(Classifier, RejectsMismatchedSignatureDimension) {
    const diag::classifier clf(tiny_dictionary());
    EXPECT_THROW(clf.classify(std::vector<double>{1.0}), precondition_error);
    EXPECT_THROW(clf.classify(std::vector<double>{1.0, 2.0, 3.0}), precondition_error);
}

TEST(Classifier, ScalesFloorFlatComponents) {
    // One component never moves in the dictionary; its scale must fall
    // back to the measurement floor instead of collapsing to zero.
    auto dictionary = tiny_dictionary();
    dictionary.trajectories = {{diag::fault_kind::integrator_leak,
                                {{0.0, {0.30, 0.0}}, {0.05, {0.10, 0.0}}}}};
    const diag::classifier clf(dictionary);
    const auto floors = dictionary.space.component_floors();
    ASSERT_EQ(clf.component_scales().size(), 2u);
    EXPECT_GT(clf.component_scales()[0], floors[0]); // spread-driven
    EXPECT_EQ(clf.component_scales()[1], floors[1]); // floor-driven
}

} // namespace
