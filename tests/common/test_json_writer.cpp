// The JSON writer: to_json must be the exact inverse of parse_json for
// any tree of finite numbers -- randomized round trips, bit-exact number
// formatting, escape handling, NaN/inf rejection, and independence from
// the global locale (an ostream-based writer would emit "0,03" under a
// comma-decimal locale: invalid JSON and a silently corrupt manifest).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <locale>
#include <random>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"

namespace {

using namespace bistna;

json_value number(double v) {
    json_value n;
    n.type = json_value::kind::number;
    n.num = v;
    return n;
}

json_value text(std::string s) {
    json_value v;
    v.type = json_value::kind::string;
    v.str = std::move(s);
    return v;
}

TEST(JsonWriter, ScalarsPrintCanonically) {
    EXPECT_EQ(to_json(json_value{}), "null");
    json_value b;
    b.type = json_value::kind::boolean;
    b.b = true;
    EXPECT_EQ(to_json(b), "true");
    b.b = false;
    EXPECT_EQ(to_json(b), "false");
    EXPECT_EQ(to_json(number(42.0)), "42");
    EXPECT_EQ(to_json(number(-7.0)), "-7");
    EXPECT_EQ(to_json(number(0.0)), "0");
    EXPECT_EQ(to_json(text("hi")), "\"hi\"");
}

TEST(JsonWriter, IntegralNumbersStayReadable) {
    // Seeds and counts travel as JSON numbers; 2^53 - 1 must not turn
    // into exponent notation.
    EXPECT_EQ(json_number(9007199254740991.0), "9007199254740991");
    EXPECT_EQ(json_number(1.0), "1");
    EXPECT_EQ(json_number(-123456789.0), "-123456789");
}

TEST(JsonWriter, NonFiniteNumbersThrow) {
    EXPECT_THROW(json_number(std::numeric_limits<double>::quiet_NaN()),
                 configuration_error);
    EXPECT_THROW(json_number(std::numeric_limits<double>::infinity()),
                 configuration_error);
    EXPECT_THROW(json_number(-std::numeric_limits<double>::infinity()),
                 configuration_error);
    json_value v = number(std::numeric_limits<double>::quiet_NaN());
    EXPECT_THROW(to_json(v), configuration_error);
}

TEST(JsonWriter, EscapesRoundTrip) {
    json_value v = text("line\nquote\"backslash\\tab\tbell\x07");
    const json_value back = parse_json(to_json(v), "escape test");
    ASSERT_EQ(back.type, json_value::kind::string);
    EXPECT_EQ(back.str, v.str);
}

TEST(JsonWriter, ObjectsKeepInsertionOrder) {
    json_value root;
    root.type = json_value::kind::object;
    root.members.emplace_back("zebra", number(1.0));
    root.members.emplace_back("alpha", number(2.0));
    EXPECT_EQ(to_json(root), "{\"zebra\":1,\"alpha\":2}");
}

// --- randomized round trips ------------------------------------------------

/// A deterministic random tree: every kind, nested containers, hostile
/// strings (escapes, control bytes) and hostile numbers (subnormals,
/// negative zero, huge magnitudes).
json_value random_tree(std::mt19937_64& rng, int depth) {
    std::uniform_int_distribution<int> pick(0, depth > 0 ? 5 : 3);
    switch (pick(rng)) {
    case 0:
        return json_value{};
    case 1: {
        json_value v;
        v.type = json_value::kind::boolean;
        v.b = (rng() & 1) != 0;
        return v;
    }
    case 2: {
        // A mix of integral values and raw bit patterns (filtered to
        // finite): the round trip must be bit-exact for all of them.
        if ((rng() & 1) != 0) {
            return number(static_cast<double>(static_cast<std::int64_t>(rng())) /
                          static_cast<double>(1ull << (rng() % 32)));
        }
        for (;;) {
            const std::uint64_t bits = rng();
            double v = 0.0;
            std::memcpy(&v, &bits, sizeof v);
            if (std::isfinite(v)) {
                return number(v);
            }
        }
    }
    case 3: {
        std::string s;
        const std::size_t len = rng() % 24;
        for (std::size_t i = 0; i < len; ++i) {
            s.push_back(static_cast<char>(rng() % 0x60 + 1)); // control + ASCII
        }
        return text(std::move(s));
    }
    case 4: {
        json_value v;
        v.type = json_value::kind::array;
        const std::size_t len = rng() % 5;
        for (std::size_t i = 0; i < len; ++i) {
            v.elements.push_back(random_tree(rng, depth - 1));
        }
        return v;
    }
    default: {
        json_value v;
        v.type = json_value::kind::object;
        const std::size_t len = rng() % 5;
        for (std::size_t i = 0; i < len; ++i) {
            // Parser rejects duplicate keys; index-prefix keeps them unique.
            v.members.emplace_back("k" + std::to_string(i) + "_" +
                                       std::to_string(rng() % 100),
                                   random_tree(rng, depth - 1));
        }
        return v;
    }
    }
}

TEST(JsonWriter, RandomTreesRoundTripExactly) {
    // The extremes first: subnormals (down to 5e-324) and the largest
    // finite magnitudes parse back to the same bit pattern.
    for (const double v :
         {std::numeric_limits<double>::denorm_min(), -std::numeric_limits<double>::denorm_min(),
          2.5e-320, std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
          std::numeric_limits<double>::lowest()}) {
        const std::string once = to_json(number(v));
        EXPECT_TRUE(json_equal(parse_json(once, "extreme"), number(v))) << once;
    }

    std::mt19937_64 rng(0xB157AA5Eu);
    for (int i = 0; i < 500; ++i) {
        const json_value tree = random_tree(rng, 4);
        const std::string once = to_json(tree);
        const json_value back = parse_json(once, "round trip");
        EXPECT_TRUE(json_equal(tree, back)) << "iteration " << i << ": " << once;
        // And the writer is a fixed point: serialize(parse(serialize)) is
        // byte-identical, so stored JSON never churns.
        EXPECT_EQ(to_json(back), once) << "iteration " << i;
    }
}

TEST(JsonWriter, NegativeZeroSurvives) {
    const json_value back = parse_json(to_json(number(-0.0)), "neg zero");
    ASSERT_EQ(back.type, json_value::kind::number);
    EXPECT_TRUE(std::signbit(back.num));
    EXPECT_FALSE(json_equal(number(0.0), number(-0.0)));
}

// --- locale independence ---------------------------------------------------

class comma_numpunct : public std::numpunct<char> {
protected:
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
};

class global_locale_guard {
public:
    global_locale_guard()
        : previous_(std::locale::global(
              std::locale(std::locale::classic(), new comma_numpunct))) {}
    ~global_locale_guard() { std::locale::global(previous_); }

private:
    std::locale previous_;
};

TEST(JsonWriter, SurvivesACommaDecimalGlobalLocale) {
    global_locale_guard locale;
    {
        // Sanity: the locale really does make ostreams write commas, so
        // this test would catch an ostream-based number path.
        std::ostringstream probe;
        probe.imbue(std::locale());
        probe << 3.14;
        ASSERT_EQ(probe.str(), "3,14");
    }
    EXPECT_EQ(json_number(0.03), "0.03");
    EXPECT_EQ(json_number(1234567.5), "1234567.5");
    const json_value back = parse_json(to_json(number(0.25)), "locale");
    EXPECT_EQ(back.num, 0.25);
}

} // namespace
