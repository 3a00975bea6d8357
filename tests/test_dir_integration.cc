/**
 * @file
 * End-to-end tests of the DirectoryCMP baseline (both the DRAM
 * directory and the zero-cycle variant) plus PerfectL2.
 */

#include <gtest/gtest.h>

#include "test_util.hh"

namespace tokencmp::test {

namespace {

SystemConfig
dirCfg(const std::string &p = Protocol::DirectoryCMP)
{
    SystemConfig cfg;
    cfg.protocol = p;
    cfg.seed = 7;
    return cfg;
}

} // namespace

TEST(DirIntegration, ColdLoadFetchesFromMemory)
{
    System sys(dirCfg());
    Tick lat = 0;
    EXPECT_EQ(runLoad(sys, 0, 0x1000, &lat), 0u);
    EXPECT_GT(lat, ns(80));
    EXPECT_LT(lat, ns(400));
}

TEST(DirIntegration, ExclusiveGrantMakesStoreHit)
{
    System sys(dirCfg());
    // Cold GetS earns an E grant; the following store hits silently.
    EXPECT_EQ(runLoad(sys, 0, 0x2000), 0u);
    Tick lat = 0;
    runStore(sys, 0, 0x2000, 9, &lat);
    EXPECT_EQ(lat, ns(2));
    EXPECT_EQ(runLoad(sys, 0, 0x2000), 9u);
}

TEST(DirIntegration, StoreVisibleToRemoteCmp)
{
    System sys(dirCfg());
    runStore(sys, 0, 0x3000, 77);
    EXPECT_EQ(runLoad(sys, 12, 0x3000), 77u);
    EXPECT_EQ(runLoad(sys, 13, 0x3000), 77u);
}

TEST(DirIntegration, MigratoryGrantOnRead)
{
    System sys(dirCfg());
    runStore(sys, 0, 0x4000, 5);
    drain(sys);
    // Remote read of a modified block receives exclusivity, so its
    // own subsequent store hits locally.
    EXPECT_EQ(runLoad(sys, 4, 0x4000), 5u);
    Tick lat = 0;
    runStore(sys, 4, 0x4000, 6, &lat);
    EXPECT_EQ(lat, ns(2));
    EXPECT_EQ(runLoad(sys, 8, 0x4000), 6u);
}

TEST(DirIntegration, LocalSharingStaysOnChip)
{
    System sys(dirCfg());
    EXPECT_EQ(runLoad(sys, 0, 0x5000), 0u);
    drain(sys);
    // Peer on the same chip: data comes from the L1/L2, no home trip.
    Tick lat = 0;
    EXPECT_EQ(runLoad(sys, 1, 0x5000, &lat), 0u);
    EXPECT_LT(lat, ns(40));
}

TEST(DirIntegration, WriteInvalidatesAllSharers)
{
    System sys(dirCfg());
    for (unsigned p : {1u, 4u, 8u, 12u})
        runLoad(sys, p, 0x6000);
    drain(sys);
    runStore(sys, 5, 0x6000, 99);
    drain(sys);
    for (unsigned p : {1u, 4u, 8u, 12u})
        EXPECT_EQ(runLoad(sys, p, 0x6000), 99u);
}

TEST(DirIntegration, UpgradeFromSharedState)
{
    System sys(dirCfg());
    runLoad(sys, 0, 0x7000);
    runLoad(sys, 4, 0x7000);
    runLoad(sys, 8, 0x7000);
    drain(sys);
    // CMP 1 upgrades; everyone still observes the new value.
    runStore(sys, 4, 0x7000, 123);
    drain(sys);
    EXPECT_EQ(runLoad(sys, 0, 0x7000), 123u);
    EXPECT_EQ(runLoad(sys, 8, 0x7000), 123u);
}

TEST(DirIntegration, EvictionWritebackPreservesData)
{
    SystemConfig cfg = dirCfg();
    cfg.l1Bytes = 1024;  // 4 sets x 4 ways
    System sys(cfg);
    const Addr stride = 4 * 64;
    for (unsigned i = 0; i < 6; ++i)
        runStore(sys, 0, 0x10000 + i * stride, i + 1);
    drain(sys);
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(runLoad(sys, 15, 0x10000 + i * stride), i + 1);
}

TEST(DirIntegration, AtomicCounterIsLinearizable)
{
    System sys(dirCfg());
    CounterWorkload wl(0x8000, 10);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(runLoad(sys, 3, 0x8000), 16u * 10u);
}

TEST(DirIntegration, ZeroCycleDirectoryIsFasterOnSharingMisses)
{
    Tick lat_dram = 0, lat_zero = 0;
    {
        System sys(dirCfg(Protocol::DirectoryCMP));
        runStore(sys, 0, 0x9000, 1);
        drain(sys);
        runLoad(sys, 4, 0x9000, &lat_dram);
    }
    {
        System sys(dirCfg(Protocol::DirectoryCMPZero));
        runStore(sys, 0, 0x9000, 1);
        drain(sys);
        runLoad(sys, 4, 0x9000, &lat_zero);
    }
    EXPECT_LT(lat_zero, lat_dram);
    EXPECT_GE(lat_dram - lat_zero, ns(60));
}

TEST(DirIntegration, SharingMissIsSlowerThanToken)
{
    Tick lat_dir = 0, lat_tok = 0;
    {
        System sys(dirCfg(Protocol::DirectoryCMP));
        runStore(sys, 0, 0xa000, 1);
        drain(sys);
        runLoad(sys, 4, 0xa000, &lat_dir);
    }
    {
        SystemConfig cfg;
        cfg.protocol = Protocol::TokenDst1;
        System sys(cfg);
        runStore(sys, 0, 0xa000, 1);
        drain(sys);
        runLoad(sys, 4, 0xa000, &lat_tok);
    }
    // The directory indirection costs a home visit; token broadcasts
    // go straight to the owner.
    EXPECT_LT(lat_tok, lat_dir);
}

TEST(PerfectL2, AllMissesHitMagicL2)
{
    SystemConfig cfg;
    cfg.protocol = Protocol::PerfectL2;
    System sys(cfg);
    Tick lat = 0;
    EXPECT_EQ(runLoad(sys, 0, 0x1000, &lat), 0u);
    EXPECT_EQ(lat, ns(2) + 2 * ns(2) + ns(7));
    runStore(sys, 0, 0x1000, 5);
    EXPECT_EQ(runLoad(sys, 15, 0x1000), 5u);
}

TEST(PerfectL2, AtomicCounterIsLinearizable)
{
    SystemConfig cfg;
    cfg.protocol = Protocol::PerfectL2;
    System sys(cfg);
    CounterWorkload wl(0xb000, 10);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(runLoad(sys, 0, 0xb000), 160u);
}

TEST(PerfectL2, ShardedKernelIsRefused)
{
    // The registry entry says the magic L2 cannot run sharded; System
    // and the sweep grid both read that one property.
    SystemConfig cfg;
    cfg.protocol = Protocol::PerfectL2;
    cfg.shards = 2;
    EXPECT_DEATH(System sys(cfg),
                 "PerfectL2 cannot run on the sharded kernel");
}

} // namespace tokencmp::test
