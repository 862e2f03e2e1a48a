// Typed record payloads: bit-exact converters between the in-memory
// result structs and the framed binary format.
//
// These round trips are lossless: doubles travel as
// IEEE-754 bit patterns (an unmeasured thd_db stays the exact NaN it was,
// +/-inf and signed zeros survive), limit names ship with the report, and
// every count is validated against the payload bounds before it is
// trusted.  Malformed payloads throw bistna::serialization_error naming
// the absolute byte offset of the bad field.
#pragma once

#include <cstdint>

#include "core/screening.hpp"
#include "core/sweep_engine.hpp"
#include "store/format.hpp"

namespace bistna::store {

// --- screening reports ----------------------------------------------------

/// A screening report plus the global die identity it was measured as.
struct stored_report {
    std::uint64_t die = 0;
    core::screening_report report;
};

record to_record(const core::screening_report& report, std::uint64_t die);
stored_report report_from_record(const record& r, std::uint64_t payload_offset = 0);

// --- acquisition results --------------------------------------------------

/// An acquisition result plus its item index in the submitted batch.
struct stored_acquisition {
    std::uint64_t item = 0;
    core::sweep_engine::acquisition_result result;
};

record to_record(const core::sweep_engine::acquisition_result& result,
                 std::uint64_t item);
stored_acquisition acquisition_from_record(const record& r,
                                           std::uint64_t payload_offset = 0);

/// Throws serialization_error unless `r` has the expected type.
void expect_type(const record& r, record_type expected, std::uint64_t offset = 0);

} // namespace bistna::store
