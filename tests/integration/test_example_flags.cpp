// The example programs' flags are read strictly: a malformed --dice,
// --threads, --lanes or --sigma value fails the run before anything is
// measured or stored, instead of being read as a prefix ("3x" -> 3), as 0
// ("two") or through an undefined negative conversion ("-1"), and an
// out-of-range daemon --tcp port fails instead of wrapping.  Skipped when
// the example binaries are not part of this build (sanitizer CI builds
// examples OFF).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <string>

namespace {

TEST(ExampleFlags, MalformedIntegerFlagsFail) {
    const auto bin_dir = std::filesystem::read_symlink("/proc/self/exe").parent_path();
    const std::string dir = "/tmp/bistna_example_flags";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    bool ran = false;
    for (const char* example : {"screening_lot", "fault_diagnosis"}) {
        const auto binary = bin_dir / example;
        if (!std::filesystem::exists(binary)) {
            continue;
        }
        ran = true;
        for (const char* bad : {"--dice=3x", "--threads=two", "--lanes=-1"}) {
            // Valid small values first would be shadowed: flags are read
            // from their first occurrence, so the malformed one goes first.
            const std::string store = dir + "/" + example + ".store";
            const std::string command = binary.string() + " " + bad +
                                        " --dice=1 --threads=1 --lanes=1 --store=" + store +
                                        " > " + dir + "/run.log 2>&1";
            EXPECT_NE(std::system(command.c_str()), 0) << example << " " << bad;
            EXPECT_FALSE(std::filesystem::exists(store)) << example << " " << bad;
            std::filesystem::remove(store);
        }
    }
    std::filesystem::remove_all(dir);
    if (!ran) {
        GTEST_SKIP() << "example binaries not built";
    }
}

// A malformed --sigma used to screen at the wrong spread ("abc" read as 0,
// "0.03x" as 0.03) or abort through an uncaught precondition_error ("-0.5"):
// now each run exits with status 1 before anything is measured or stored.
TEST(ExampleFlags, MalformedSigmaFails) {
    const auto bin_dir = std::filesystem::read_symlink("/proc/self/exe").parent_path();
    const std::string dir = "/tmp/bistna_example_sigma";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    bool ran = false;
    for (const char* example : {"screening_lot", "fault_diagnosis"}) {
        const auto binary = bin_dir / example;
        if (!std::filesystem::exists(binary)) {
            continue;
        }
        ran = true;
        for (const char* bad : {"--sigma=abc", "--sigma=0.03x", "--sigma=-0.5"}) {
            const std::string store = dir + "/" + example + ".store";
            const std::string command = binary.string() + " " + bad +
                                        " --dice=1 --threads=1 --lanes=1 --store=" + store +
                                        " > " + dir + "/run.log 2>&1";
            const int status = std::system(command.c_str());
            EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1)
                << example << " " << bad << ": wait status " << status;
            EXPECT_FALSE(std::filesystem::exists(store)) << example << " " << bad;
            std::filesystem::remove(store);
        }
    }
    std::filesystem::remove_all(dir);
    if (!ran) {
        GTEST_SKIP() << "example binaries not built";
    }
}

// --tcp=PORT takes the same 0..65535 rule as --listen=tcp:PORT: a port past
// it exits with status 2 before the daemon listens, instead of wrapping to
// another port (70000 to 4464, 4294967297 to 1).  A daemon that serves is
// stopped by timeout, whose status 124 fails the check.
TEST(ExampleFlags, OutOfRangeTcpPortFails) {
    const auto binary =
        std::filesystem::read_symlink("/proc/self/exe").parent_path() / "bistna_serverd";
    if (!std::filesystem::exists(binary)) {
        GTEST_SKIP() << "example binaries not built";
    }
    const std::string dir = "/tmp/bistna_example_tcp";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    for (const char* bad : {"--tcp=70000", "--tcp=4294967297"}) {
        const std::string command = "timeout 5 " + binary.string() + " --listen=" + dir +
                                    "/serverd.sock " + bad + " > " + dir +
                                    "/run.log 2>&1";
        const int status = std::system(command.c_str());
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 2)
            << bad << ": wait status " << status;
    }
    std::filesystem::remove_all(dir);
}

} // namespace
