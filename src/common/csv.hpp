// Minimal CSV writer for human-facing experiment artifacts.
//
// Benches dump every reproduced figure/table as CSV next to the console
// report so results can be re-plotted outside the harness.  CSV is write
// only: machine-readable results travel in the record store.
#pragma once

#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

namespace bistna {

class csv_writer {
public:
    /// Opens (truncates) the file; throws configuration_error on failure.
    explicit csv_writer(const std::string& path);

    /// Write a header row of column names.
    void header(std::initializer_list<std::string> names);
    void header(const std::vector<std::string>& names);

    /// Write a data row of doubles.  Cells are formatted with
    /// std::to_chars (locale-independent shortest round-trip form, so the
    /// text survives a host program that set a comma-decimal locale);
    /// NaN/inf become "nan"/"inf" with their sign.
    void row(std::initializer_list<double> values);
    void row(const std::vector<double>& values);

    const std::string& path() const noexcept { return path_; }

private:
    void write_cells(const std::vector<std::string>& cells);

    std::string path_;
    std::ofstream out_;
};

/// Quote a cell if it contains separators/quotes per RFC 4180.
std::string csv_escape(const std::string& cell);

} // namespace bistna
