// The "--name=value" flag helpers behind every example/daemon front end:
// defaulted string flags (--listen/--connect) and strict unsigned and real
// parsing, where a malformed value must throw naming the flag rather than
// silently reading as 0 or falling back to the default.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"

namespace {

using namespace bistna;

/// Builds a stable argv from string literals for one test.
class argv_fixture {
public:
    explicit argv_fixture(std::vector<std::string> args) : storage_(std::move(args)) {
        pointers_.push_back(const_cast<char*>("test"));
        for (auto& s : storage_) {
            pointers_.push_back(s.data());
        }
    }

    int argc() const { return static_cast<int>(pointers_.size()); }
    char** argv() { return pointers_.data(); }

private:
    std::vector<std::string> storage_;
    std::vector<char*> pointers_;
};

TEST(Cli, FlagStringReturnsValueWhenPresent) {
    argv_fixture args({"--listen=/run/bistna.sock", "--other=x"});
    EXPECT_EQ(flag_string(args.argc(), args.argv(), "listen", "/tmp/default.sock"),
              "/run/bistna.sock");
}

TEST(Cli, FlagStringFallsBackWhenAbsent) {
    argv_fixture args({"--other=x"});
    EXPECT_EQ(flag_string(args.argc(), args.argv(), "listen", "/tmp/default.sock"),
              "/tmp/default.sock");
}

TEST(Cli, FlagStringRejectsExplicitEmptyValue) {
    // "--listen=" is a typo, not a request for the default: silently
    // substituting the fallback would hide it.
    argv_fixture args({"--listen="});
    EXPECT_THROW(flag_string(args.argc(), args.argv(), "listen", "/tmp/default.sock"),
                 configuration_error);
}

TEST(Cli, FlagStringValueMayContainEqualsSigns) {
    argv_fixture args({"--connect=tcp:9042"});
    EXPECT_EQ(flag_string(args.argc(), args.argv(), "connect", ""), "tcp:9042");
}

TEST(Cli, FlagU64ParsesAndDefaults) {
    argv_fixture args({"--quota=12"});
    EXPECT_EQ(flag_u64(args.argc(), args.argv(), "quota", 2), 12u);
    EXPECT_EQ(flag_u64(args.argc(), args.argv(), "absent", 7), 7u);
    argv_fixture zero({"--quota=0"});
    EXPECT_EQ(flag_u64(zero.argc(), zero.argv(), "quota", 2), 0u);
}

TEST(Cli, FlagU64RejectsMalformedValues) {
    for (const char* bad : {"--n=", "--n=8x", "--n=-1", "--n=0.5", "--n= 8",
                            "--n=99999999999999999999999"}) {
        argv_fixture args({bad});
        EXPECT_THROW(flag_u64(args.argc(), args.argv(), "n", 1), configuration_error)
            << bad;
    }
}

TEST(Cli, FlagU64ErrorNamesTheFlag) {
    argv_fixture args({"--stall-timeout-ms=fast"});
    try {
        flag_u64(args.argc(), args.argv(), "stall-timeout-ms", 0);
        FAIL() << "expected configuration_error";
    } catch (const configuration_error& e) {
        EXPECT_NE(std::string(e.what()).find("stall-timeout-ms"), std::string::npos);
    }
}

TEST(Cli, FlagU64AcceptsUint64Max) {
    argv_fixture args({"--n=18446744073709551615"});
    EXPECT_EQ(flag_u64(args.argc(), args.argv(), "n", 0), UINT64_MAX);
}

TEST(Cli, FlagDoubleParsesAndDefaults) {
    // Underflow is not an error: "1e-310" reads as a subnormal and
    // "1e-400" as 0.  "-0" reads as +0.
    for (const auto& [text, value] : {std::pair{"--sigma=0.03", 0.03},
                                      std::pair{"--sigma=1e-2", 1e-2},
                                      std::pair{"--sigma=0", 0.0},
                                      std::pair{"--sigma=1e-310", 1e-310},
                                      std::pair{"--sigma=1e-400", 0.0},
                                      std::pair{"--sigma=-0", 0.0}}) {
        argv_fixture args({text});
        const double parsed = flag_double(args.argc(), args.argv(), "sigma", 0.5);
        EXPECT_EQ(parsed, value) << text;
        EXPECT_FALSE(std::signbit(parsed)) << text;
    }
    argv_fixture absent({"--other=1"});
    EXPECT_EQ(flag_double(absent.argc(), absent.argv(), "sigma", 0.5), 0.5);
}

TEST(Cli, FlagDoubleRejectsMalformedValues) {
    for (const char* bad : {"--x=abc", "--x=0.03x", "--x=", "--x=-0.1", "--x=nan", "--x=inf",
                            "--x=1e999", "--x= 0.5"}) {
        argv_fixture args({bad});
        EXPECT_THROW(flag_double(args.argc(), args.argv(), "x", 1.0), configuration_error)
            << bad;
    }
}

TEST(Cli, FlagDoubleErrorNamesTheFlag) {
    argv_fixture args({"--timeout-s=abc"});
    try {
        flag_double(args.argc(), args.argv(), "timeout-s", 0.0);
        FAIL() << "expected configuration_error";
    } catch (const configuration_error& e) {
        EXPECT_NE(std::string(e.what()).find("timeout-s"), std::string::npos);
    }
}

} // namespace
