#include "common/csv.hpp"

#include <charconv>
#include <system_error>

#include "common/error.hpp"

namespace bistna {

namespace {

/// Locale-independent double formatting via to_chars (shortest form that
/// round-trips bit-exactly).  An ostream would consult the global locale:
/// under a comma-decimal locale (de_DE etc.) it writes "3,14", which both
/// corrupts the cell separation and can never be parsed back -- a figure
/// written on one machine must load on any other, whatever locale the
/// host program set.  NaN/inf format as "nan"/"-nan"/"inf"/"-inf",
/// exactly what from_chars accepts.
std::string format_cell(double v) {
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    if (ec != std::errc{}) {
        throw configuration_error("csv_writer: cannot format double cell");
    }
    return std::string(buf, end);
}

} // namespace

csv_writer::csv_writer(const std::string& path) : path_(path), out_(path) {
    if (!out_) {
        throw configuration_error("csv_writer: cannot open '" + path + "' for writing");
    }
}

void csv_writer::header(std::initializer_list<std::string> names) {
    header(std::vector<std::string>(names));
}

void csv_writer::header(const std::vector<std::string>& names) { write_cells(names); }

void csv_writer::row(std::initializer_list<double> values) {
    row(std::vector<double>(values));
}

void csv_writer::row(const std::vector<double>& values) {
    std::vector<std::string> cells;
    cells.reserve(values.size());
    for (double v : values) {
        cells.push_back(format_cell(v));
    }
    write_cells(cells);
}

void csv_writer::write_cells(const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i != 0) {
            out_ << ',';
        }
        out_ << csv_escape(cells[i]);
    }
    out_ << '\n';
}

std::string csv_escape(const std::string& cell) {
    const bool needs_quotes =
        cell.find_first_of(",\"\n") != std::string::npos;
    if (!needs_quotes) {
        return cell;
    }
    std::string quoted = "\"";
    for (char c : cell) {
        if (c == '"') {
            quoted += '"';
        }
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

} // namespace bistna
