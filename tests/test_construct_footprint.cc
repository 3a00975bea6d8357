/**
 * @file
 * Construction footprint gate: building a default System must grow the
 * resident set by less than 8 MB, for every protocol family.
 *
 * A System holds 32 L1 and 16 L2-bank cache arrays (about 196k lines);
 * built eagerly, they cost about 24 MB of RSS before the first event.
 * Each System here is built inside a death-test child started in the
 * "threadsafe" style, which re-executes this binary, so the heap is as
 * fresh as in a benchmark process and no earlier test's freed memory is
 * reused.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "system/system.hh"

namespace tokencmp {

namespace {

constexpr long kLimitBytes = 8L << 20;

/** Resident bytes of this process, or -1 if /proc cannot be read. */
long
residentBytes()
{
    long size = 0;
    long resident = -1;
    if (FILE *f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &size, &resident) != 2)
            resident = -1;
        std::fclose(f);
    }
    return resident < 0 ? -1 : resident * sysconf(_SC_PAGESIZE);
}

/** Build a System, report its RSS growth and exit 0 iff it is small. */
[[noreturn]] void
constructAndExit(const std::string &protocol)
{
    SystemConfig cfg;
    cfg.protocol = protocol;
    const long before = residentBytes();
    System sys(cfg);
    const long after = residentBytes();
    const bool ok = before >= 0 && after >= 0 &&
                    after - before < kLimitBytes;
    std::fprintf(stderr, "%s: construction grew RSS by %.1f MB\n",
                 protocol.c_str(), double(after - before) / (1 << 20));
    std::fflush(stderr);
    std::_Exit(ok ? 0 : 1);
}

class ConstructionFootprint : public ::testing::TestWithParam<const char *>
{};

} // namespace

TEST_P(ConstructionFootprint, DefaultSystemGrowsRssBelow8MB)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(constructAndExit(GetParam()), testing::ExitedWithCode(0),
                "construction grew RSS by");
}

INSTANTIATE_TEST_SUITE_P(Families, ConstructionFootprint,
                         ::testing::Values("dst1", "directory", "hier",
                                           "perfect"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

} // namespace tokencmp
