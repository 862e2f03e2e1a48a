// Minimal strict JSON: objects, arrays, strings (basic escapes), numbers,
// booleans, null.  Anything else -- trailing garbage, unknown escapes,
// duplicate object keys, unterminated anything -- throws
// configuration_error naming the byte offset.
//
// Extracted from the shard manifest parser once a second consumer appeared
// (the telemetry trace-export round-trip tests): the container ships no
// JSON library, and two hand-rolled parsers drifting apart would be worse
// than one deliberately small one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bistna {

struct json_value {
    enum class kind { null, boolean, number, string, object, array };
    kind type = kind::null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<std::pair<std::string, json_value>> members; ///< insertion order
    std::vector<json_value> elements;

    const json_value* find(const std::string& key) const {
        for (const auto& [name, value] : members) {
            if (name == key) {
                return &value;
            }
        }
        return nullptr;
    }
};

/// Parse one complete JSON document.  `context` prefixes every error
/// message ("manifest JSON", "trace JSON", ...), so a failure names both
/// the document kind and the byte offset of the first offending byte.
json_value parse_json(std::string_view text, const std::string& context = "JSON");

/// The non-negative integer a JSON number spells exactly, or nullopt for
/// anything else: not a number, negative, fractional, or 2^53 and above
/// (where doubles skip integers, so 9007199254740993 has already parsed
/// as 2^53).  Every u64 field reader -- lot manifests, service control
/// frames -- goes through this one rule.
std::optional<std::uint64_t> json_exact_u64(const json_value& value);

/// Escape a string for embedding between JSON double quotes (the inverse
/// of the parser's basic-escape handling).
std::string json_escape(const std::string& s);

/// Format a finite double as a JSON number: shortest exact round-trip via
/// std::to_chars, so the output is locale-independent (an ostream under a
/// comma-decimal locale would emit "0,03" -- invalid JSON) and parses back
/// to the identical bit pattern.  Integral values below 2^53 print without
/// an exponent or trailing ".0" so seeds stay readable.  Throws
/// configuration_error on NaN/inf -- JSON has no spelling for them, and a
/// writer that silently emitted "null" would break the strict round trip.
std::string json_number(double value);

/// Serialize a json_value as one compact JSON document -- the exact
/// inverse of parse_json: to_json(parse_json(t)) reparses to an equal
/// tree, and parse_json(to_json(v)) == v for any tree the writer accepts
/// (finite numbers only).  Object members keep insertion order.
std::string to_json(const json_value& value);

/// True when two parsed trees are structurally equal (same kinds, member
/// order, string bytes; numbers compared by bit pattern so -0.0 != 0.0
/// mirrors the round-trip guarantee).
bool json_equal(const json_value& a, const json_value& b);

} // namespace bistna
