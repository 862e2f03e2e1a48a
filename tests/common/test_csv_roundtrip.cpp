// CSV writer text: every double csv_writer emits is the to_chars shortest
// round-trip form, so parsing the written cell back gives the same bits,
// independent of the host program's global locale; header cells are
// quoted per RFC 4180.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <locale>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "common/csv.hpp"
#include "common/rng.hpp"

namespace {

using namespace bistna;

class temp_csv {
public:
    explicit temp_csv(const char* name) : path_(std::string("/tmp/") + name) {}
    ~temp_csv() { std::remove(path_.c_str()); }
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

/// The written file, one string per line.
std::vector<std::string> written_lines(const std::string& path) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
        lines.push_back(line);
    }
    return lines;
}

/// A numeric data line's cells parsed with from_chars (locale-independent,
/// and the exact inverse of to_chars' shortest form); a cell that does not
/// parse in full fails the test.
std::vector<double> parse_cells(const std::string& line) {
    std::vector<double> values;
    std::istringstream cells(line);
    for (std::string cell; std::getline(cells, cell, ',');) {
        double value = 0.0;
        const char* end = cell.data() + cell.size();
        const auto [ptr, ec] = std::from_chars(cell.data(), end, value);
        EXPECT_TRUE(ec == std::errc{} && ptr == end) << "unparseable cell '" << cell << "'";
        values.push_back(value);
    }
    return values;
}

TEST(CsvRoundTrip, HeaderAndValuesSurviveExactly) {
    temp_csv file("bistna_roundtrip_basic.csv");
    const std::vector<std::vector<double>> rows = {
        {100.0, -0.123456789012345, 179.5},
        {1e6, 1.0 / 3.0, -2.718281828459045},
        {-0.0, std::numeric_limits<double>::min(), 6.02214076e23},
    };
    {
        csv_writer writer(file.path());
        writer.header({"f_hz", "gain_db", "phase_deg"});
        for (const auto& row : rows) {
            writer.row(row);
        }
    }

    const auto lines = written_lines(file.path());
    ASSERT_EQ(lines.size(), 1 + rows.size());
    EXPECT_EQ(lines[0], "f_hz,gain_db,phase_deg");
    EXPECT_EQ(lines[1], "100,-0.123456789012345,179.5");
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const auto values = parse_cells(lines[1 + r]);
        ASSERT_EQ(values.size(), rows[r].size());
        for (std::size_t c = 0; c < rows[r].size(); ++c) {
            // Bit-exact: shortest-round-trip text preserves every double,
            // the sign of zero included.
            EXPECT_EQ(std::bit_cast<std::uint64_t>(values[c]),
                      std::bit_cast<std::uint64_t>(rows[r][c]))
                << "row " << r << " col " << c;
        }
    }
}

TEST(CsvRoundTrip, RandomDoublesAreBitExact) {
    temp_csv file("bistna_roundtrip_random.csv");
    rng gen(2026);
    std::vector<std::vector<double>> rows;
    for (int r = 0; r < 64; ++r) {
        std::vector<double> row;
        for (int c = 0; c < 5; ++c) {
            const double magnitude = std::pow(10.0, gen.uniform(-12.0, 12.0));
            row.push_back(gen.gaussian() * magnitude);
        }
        rows.push_back(row);
    }
    {
        csv_writer writer(file.path());
        writer.header({"a", "b", "c", "d", "e"});
        for (const auto& row : rows) {
            writer.row(row);
        }
    }

    const auto lines = written_lines(file.path());
    ASSERT_EQ(lines.size(), 1 + rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        EXPECT_EQ(parse_cells(lines[1 + r]), rows[r]) << "row " << r;
    }
}

TEST(CsvRoundTrip, QuotedHeaderCellsRoundTrip) {
    temp_csv file("bistna_roundtrip_quoted.csv");
    {
        csv_writer writer(file.path());
        writer.header({"plain", "with,comma", "say \"hi\""});
        writer.row({1.0, 2.0, 3.0});
    }
    const auto lines = written_lines(file.path());
    ASSERT_EQ(lines.size(), 2u);
    // Separators and quotes inside a cell are quoted, inner quotes doubled.
    EXPECT_EQ(lines[0], "plain,\"with,comma\",\"say \"\"hi\"\"\"");
    EXPECT_EQ(lines[1], "1,2,3");
}

/// A numpunct facet using comma as the decimal point (the de_DE shape)
/// without needing that locale generated in the container.
class comma_numpunct : public std::numpunct<char> {
protected:
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
};

/// RAII: installs a comma-decimal global locale for the test body.  Any
/// locale-sensitive formatting path (ostream operator<<, strtod) would
/// now emit/expect "3,14" -- the CSV layer must not care.
class global_locale_guard {
public:
    global_locale_guard()
        : previous_(std::locale::global(
              std::locale(std::locale::classic(), new comma_numpunct))) {}
    ~global_locale_guard() { std::locale::global(previous_); }

private:
    std::locale previous_;
};

TEST(CsvRoundTrip, SurvivesACommaDecimalGlobalLocale) {
    global_locale_guard locale;
    // Sanity: the injected locale really does make ostreams write commas
    // (i.e. this test would catch a locale-sensitive formatting path).
    {
        std::ostringstream probe;
        probe.imbue(std::locale());
        probe << 3.14;
        ASSERT_EQ(probe.str(), "3,14");
    }

    temp_csv file("bistna_roundtrip_locale.csv");
    const std::vector<std::vector<double>> rows = {
        {3.14, -1234567.875, 1.0 / 3.0},
        {1e-300, -2.5e300, 0.1},
    };
    {
        csv_writer writer(file.path());
        writer.header({"a", "b", "c"});
        for (const auto& row : rows) {
            writer.row(row);
        }
    }
    const auto lines = written_lines(file.path());
    ASSERT_EQ(lines.size(), 1 + rows.size());
    EXPECT_EQ(lines[1], "3.14,-1234567.875,0.3333333333333333");
    for (std::size_t r = 0; r < rows.size(); ++r) {
        EXPECT_EQ(parse_cells(lines[1 + r]), rows[r]) << "row " << r;
    }
}

TEST(CsvRoundTrip, NanAndInfCellsSurvive) {
    temp_csv file("bistna_roundtrip_nonfinite.csv");
    const double qnan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    {
        csv_writer writer(file.path());
        writer.header({"thd_db", "lo", "hi", "neg"});
        writer.row({qnan, inf, -inf, -qnan});
    }
    const auto lines = written_lines(file.path());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[1], "nan,inf,-inf,-nan");
    const auto row = parse_cells(lines[1]);
    ASSERT_EQ(row.size(), 4u);
    // Canonical quiet NaN round-trips bit-exactly, sign included; the
    // infinities are themselves.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(row[0]), std::bit_cast<std::uint64_t>(qnan));
    EXPECT_EQ(row[1], inf);
    EXPECT_EQ(row[2], -inf);
    EXPECT_TRUE(std::isnan(row[3]));
    EXPECT_TRUE(std::signbit(row[3]));
}

} // namespace
