#include "shard/unit_stream.hpp"

#include <iterator>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/sweep_engine.hpp"
#include "diag/fault_dictionary.hpp"
#include "diag/trajectory_builder.hpp"
#include "store/records.hpp"

namespace bistna::shard {

// The engine must be declared before the handle: handles hold job
// channels whose worker closures reference the engine, and the
// destructor's cancel+wait runs before either member dies.
struct unit_stream::impl {
    lot_manifest manifest;
    std::uint64_t first_unit = 0;
    std::unique_ptr<core::sweep_engine> engine;
    core::job_handle<core::screening_report> screening;
    core::job_handle<core::sweep_engine::acquisition_result> acquisition;

    store::record to_unit_record(std::uint64_t unit,
                                 const core::screening_report& report) const {
        return store::to_record(report, manifest.record_id(unit));
    }
    store::record
    to_unit_record(std::uint64_t unit,
                   const core::sweep_engine::acquisition_result& result) const {
        return store::to_record(result, manifest.record_id(unit));
    }
};

unit_stream::unit_stream(const lot_manifest& manifest, std::uint64_t first_unit,
                         std::uint64_t units, std::shared_ptr<core::job_queue> queue,
                         std::function<void()> on_item)
    : impl_(std::make_unique<impl>()), units_(units) {
    const std::uint64_t total = manifest.total_units();
    BISTNA_EXPECTS(first_unit <= total && units <= total - first_unit,
                   "unit range exceeds the manifest's unit count");
    impl_->manifest = manifest;
    impl_->first_unit = first_unit;
    if (units == 0) {
        return; // an empty range never builds an engine
    }

    core::sweep_engine_options options = manifest.make_engine_options();
    options.queue = std::move(queue);

    if (manifest.workload == workload_kind::screening) {
        impl_->engine = std::make_unique<core::sweep_engine>(
            manifest.make_factory(), manifest.make_settings(), options);
        // The notifier rides as the submit-time post-publish callback, so
        // a consumer it wakes always finds the advertised items (or
        // terminal state) visible, with no registration gap -- the
        // event-loop daemon sleeps on exactly this signal.
        impl_->screening = impl_->engine->submit_screening(
            manifest.make_mask(), static_cast<std::size_t>(units),
            manifest.first_seed + first_unit, manifest.make_screening_options(),
            nullptr, std::move(on_item));
    } else {
        // Construct the FULL deterministic plan and submit only the
        // subrange: every item owns its global-index-derived evaluator
        // seed at construction, so a subrange acquisition is bit-identical
        // per item to acquiring the whole list.
        diag::trajectory_build_options build;
        build.grid_points = manifest.grid_points;
        build.nominal_seed = manifest.nominal_seed;
        build.eval_seed_base = manifest.eval_seed_base;
        const auto space = diag::signature_space::from_mask(
            manifest.make_mask(), manifest.thd_max_harmonic);
        diag::dictionary_plan plan =
            diag::make_dictionary_plan(manifest.make_die_design(),
                                       manifest.make_settings(), space,
                                       diag::default_catalog(), build);

        std::vector<core::sweep_engine::acquisition_item> slice(
            std::make_move_iterator(plan.items.begin() +
                                    static_cast<std::ptrdiff_t>(first_unit)),
            std::make_move_iterator(plan.items.begin() +
                                    static_cast<std::ptrdiff_t>(first_unit + units)));
        impl_->engine = std::make_unique<core::sweep_engine>(
            manifest.make_die_design().factory(), manifest.make_settings(), options);
        impl_->acquisition = impl_->engine->submit_acquisition(
            std::move(slice), std::move(plan.program), nullptr, std::move(on_item));
    }
}

unit_stream::~unit_stream() {
    cancel();
    if (impl_->screening.valid()) {
        impl_->screening.wait();
    }
    if (impl_->acquisition.valid()) {
        impl_->acquisition.wait();
    }
}

std::optional<unit_record> unit_stream::next() {
    if (impl_->screening.valid()) {
        if (auto item = impl_->screening.next_in_order()) {
            const std::uint64_t unit = impl_->first_unit + item->index;
            ++delivered_;
            return unit_record{unit, impl_->to_unit_record(unit, item->value)};
        }
        return std::nullopt;
    }
    if (impl_->acquisition.valid()) {
        if (auto item = impl_->acquisition.next_in_order()) {
            const std::uint64_t unit = impl_->first_unit + item->index;
            ++delivered_;
            return unit_record{unit, impl_->to_unit_record(unit, item->value)};
        }
    }
    return std::nullopt;
}

std::optional<unit_record> unit_stream::try_next() {
    if (impl_->screening.valid()) {
        if (auto item = impl_->screening.try_next_in_order()) {
            const std::uint64_t unit = impl_->first_unit + item->index;
            ++delivered_;
            return unit_record{unit, impl_->to_unit_record(unit, item->value)};
        }
        return std::nullopt;
    }
    if (impl_->acquisition.valid()) {
        if (auto item = impl_->acquisition.try_next_in_order()) {
            const std::uint64_t unit = impl_->first_unit + item->index;
            ++delivered_;
            return unit_record{unit, impl_->to_unit_record(unit, item->value)};
        }
    }
    return std::nullopt;
}

std::uint64_t unit_stream::completed_items() const {
    if (impl_->screening.valid()) {
        return impl_->screening.completed_items();
    }
    if (impl_->acquisition.valid()) {
        return impl_->acquisition.completed_items();
    }
    return 0;
}

bool unit_stream::finished() const {
    if (impl_->screening.valid()) {
        return impl_->screening.finished();
    }
    if (impl_->acquisition.valid()) {
        return impl_->acquisition.finished();
    }
    return true; // empty range: terminal from birth
}

void unit_stream::cancel() noexcept {
    if (impl_->screening.valid()) {
        impl_->screening.cancel();
    }
    if (impl_->acquisition.valid()) {
        impl_->acquisition.cancel();
    }
}

std::exception_ptr unit_stream::error() const {
    if (impl_->screening.valid()) {
        return impl_->screening.error();
    }
    if (impl_->acquisition.valid()) {
        return impl_->acquisition.error();
    }
    return nullptr;
}

} // namespace bistna::shard
