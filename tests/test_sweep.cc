/**
 * @file
 * Tests for the sweep orchestration subsystem: the minijson reader,
 * the named-knob table and override hash, ParamGrid enumeration /
 * fingerprinting / golden cell hashes, and the SweepDriver's resume
 * journal — stop-and-resume bit-identity, truncated-line tolerance,
 * fingerprint-mismatch rejection, and multi-process fan-out matching
 * in-process execution bit for bit.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sweep/json.hh"
#include "sweep/param_grid.hh"
#include "sweep/sweep_driver.hh"
#include "system/knobs.hh"

namespace tokencmp::test {

namespace {

/** The smoke grid most driver tests run: 2 policies x 1 workload x 2
 *  overrides = 4 tiny cells. */
const char *kTinyGrid = R"({
  "name": "tiny",
  "policies": ["dst1", "directory"],
  "workloads": ["zipf"],
  "seeds": 1,
  "horizonNs": 500000000,
  "workloadKnobs": {"opsPerProc": 60, "keys": 64},
  "overrides": [
    {"label": "default"},
    {"label": "smallpred",
     "knobs": {"token.cmpPredEntries": 64, "token.cmpPredWays": 2}}
  ]
})";

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "tokencmp_sweep_" + name;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << path;
    std::fputs(text.c_str(), f);
    std::fclose(f);
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return "";
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

} // namespace

// ---- minijson -------------------------------------------------------

TEST(MiniJson, ParsesScalarsArraysObjects)
{
    std::string err;
    minijson::Value v = minijson::parse(
        R"({"s": "a\nb", "n": -2.5, "t": true, "f": false,
            "nil": null, "arr": [1, 2, 3], "obj": {"k": "v"}})",
        &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.getString("s"), "a\nb");
    EXPECT_EQ(v.getNumber("n"), -2.5);
    EXPECT_TRUE(v.find("t")->boolean);
    EXPECT_FALSE(v.find("f")->boolean);
    EXPECT_TRUE(v.find("nil")->isNull());
    ASSERT_TRUE(v.find("arr")->isArray());
    EXPECT_EQ(v.find("arr")->arr.size(), 3u);
    EXPECT_EQ(v.find("obj")->getString("k"), "v");
    // Defaults for absent / wrong-kind members.
    EXPECT_EQ(v.getString("missing", "d"), "d");
    EXPECT_EQ(v.getNumber("s", 7.0), 7.0);
}

TEST(MiniJson, DecodesUnicodeEscapes)
{
    std::string err;
    minijson::Value v =
        minijson::parse(R"(["Aé€"])", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(v.arr.at(0).str, "A\xc3\xa9\xe2\x82\xac");
}

TEST(MiniJson, ReportsErrorsWithByteOffsets)
{
    std::string err;
    minijson::parse("{\"a\": }", &err);
    EXPECT_NE(err.find("at byte"), std::string::npos) << err;

    minijson::parse("[1, 2] trailing", &err);
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;

    minijson::parse("\"unterminated", &err);
    EXPECT_NE(err.find("unterminated"), std::string::npos) << err;

    minijson::parseFile("/nonexistent/definitely.json", &err);
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

// ---- knobs ----------------------------------------------------------

TEST(Knobs, StableHashMatchesFnv1aTestVectors)
{
    // Published FNV-1a 64-bit vectors: the hash must never drift, or
    // every journal and baseline keyed by it silently invalidates.
    EXPECT_EQ(stableHash64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(stableHash64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(stableHash64("foobar"), 0x85944171f73967e8ull);
    EXPECT_EQ(hashHex(0xcbf29ce484222325ull), "cbf29ce484222325");
}

TEST(Knobs, TableLookupAndRoundTrip)
{
    EXPECT_GE(knobTable().size(), 5u);
    EXPECT_EQ(findKnob("no.such.knob"), nullptr);

    const KnobDef *k = findKnob("token.cmpPredEntries");
    ASSERT_NE(k, nullptr);
    SystemConfig cfg;
    k->set(cfg, 64);
    EXPECT_EQ(k->get(cfg), 64.0);
    EXPECT_NE(knobNameList().find("token.bwBusyUtil"),
              std::string::npos);
}

TEST(Knobs, OverrideHashEmptyAtDefaultsStableOtherwise)
{
    SystemConfig def;
    EXPECT_EQ(knobOverrideHash(def), "");

    SystemConfig a, b;
    findKnob("token.cmpPredEntries")->set(a, 64);
    findKnob("token.cmpPredEntries")->set(b, 64);
    const std::string ha = knobOverrideHash(a);
    EXPECT_EQ(ha.size(), 8u);
    EXPECT_EQ(ha, knobOverrideHash(b));  // deterministic

    findKnob("token.cmpPredWays")->set(b, 2);
    EXPECT_NE(knobOverrideHash(b), ha);  // different knobs differ
}

// ---- ParamGrid ------------------------------------------------------

TEST(ParamGrid, GoldenFingerprintAndCellHashes)
{
    // Pinned values: cell hashes key resume journals and the grid
    // fingerprint guards them, so both must stay stable across
    // platforms, compilers and refactors. Any change here is a
    // breaking change for existing journals — bump deliberately.
    ParamGrid g = ParamGrid::fromJsonText(kTinyGrid, "tiny-test");
    EXPECT_EQ(g.fingerprint(), "25457d69951bd8f5");
    ASSERT_EQ(g.cells().size(), 4u);
    EXPECT_EQ(g.cells()[0].hash, "b14cf5219698e816");
    EXPECT_EQ(g.cells()[0].label, "dst1/zipf/serial/default/s1");
    EXPECT_EQ(g.cells()[1].hash, "b60a5fd3fc2b68fb");
    EXPECT_EQ(g.cells()[2].hash, "05d6f506cc21f803");
    EXPECT_EQ(g.cells()[3].hash, "95b2727b3347986a");

    EXPECT_EQ(g.cellByHash("b14cf5219698e816"), &g.cells()[0]);
    EXPECT_EQ(g.cellByHash("0000000000000000"), nullptr);
}

TEST(ParamGrid, FingerprintIgnoresFormattingDetectsEdits)
{
    ParamGrid a = ParamGrid::fromJsonText(kTinyGrid, "a");
    // Same grid, hostile formatting: one line, shuffled key order.
    ParamGrid b = ParamGrid::fromJsonText(
        R"({"workloads":["zipf"],"horizonNs":500000000,)"
        R"("overrides":[{"label":"default"},{"label":"smallpred",)"
        R"("knobs":{"token.cmpPredWays":2,"token.cmpPredEntries":64}}],)"
        R"("seeds":1,"policies":["dst1","directory"],)"
        R"("workloadKnobs":{"keys":64,"opsPerProc":60},"name":"tiny"})",
        "b");
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    std::string edited = kTinyGrid;
    edited.replace(edited.find("\"seeds\": 1"), 10, "\"seeds\": 2");
    ParamGrid c = ParamGrid::fromJsonText(edited, "c");
    EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(ParamGrid, CellHashesExcludeWorkerCount)
{
    // The determinism contract says worker count cannot move results,
    // so re-running a journal with different shardWorkers must still
    // resume (same cell hashes) while the fingerprint flags the edit.
    const char *base = R"({
      "name": "w", "policies": ["dst1"], "workloads": ["zipf"],
      "shardMaps": ["perCmp"], "shardWorkers": %u,
      "workloadKnobs": {"opsPerProc": 30, "keys": 32}})";
    char buf[512];
    std::snprintf(buf, sizeof(buf), base, 2u);
    ParamGrid g2 = ParamGrid::fromJsonText(buf, "w2");
    std::snprintf(buf, sizeof(buf), base, 4u);
    ParamGrid g4 = ParamGrid::fromJsonText(buf, "w4");

    ASSERT_EQ(g2.cells().size(), g4.cells().size());
    for (std::size_t i = 0; i < g2.cells().size(); ++i)
        EXPECT_EQ(g2.cells()[i].hash, g4.cells()[i].hash);
    EXPECT_NE(g2.fingerprint(), g4.fingerprint());
}

TEST(ParamGrid, SkipsInvalidAxisCombinations)
{
    // perfect x sharded is structurally impossible; crossing mixed
    // axes must skip it, not die.
    ParamGrid g = ParamGrid::fromJsonText(
        R"({"name": "mix", "policies": ["dst1", "perfect"],
            "workloads": ["zipf"],
            "shardMaps": ["serial", "perCmp"],
            "workloadKnobs": {"opsPerProc": 30, "keys": 32}})",
        "mix");
    // dst1: serial, perCmp = 2. perfect: serial only = 1.
    EXPECT_EQ(g.cells().size(), 3u);
    for (const SweepCell &c : g.cells()) {
        EXPECT_FALSE(c.policy == "perfect" && c.shardMap != "serial")
            << c.label;
    }
}

TEST(ParamGrid, ConfigForAppliesAxes)
{
    ParamGrid g = ParamGrid::fromJsonText(kTinyGrid, "cfg-test");
    const SweepCell *smallpred =
        g.cellByHash("b60a5fd3fc2b68fb");  // dst1 x smallpred
    ASSERT_NE(smallpred, nullptr);
    SystemConfig cfg = g.configFor(*smallpred);
    EXPECT_EQ(cfg.protocol, Protocol::TokenDst1);
    EXPECT_EQ(cfg.workloadName, "zipf");
    EXPECT_EQ(cfg.seed, 1u);
    EXPECT_EQ(findKnob("token.cmpPredEntries")->get(cfg), 64.0);
    EXPECT_EQ(findKnob("token.cmpPredWays")->get(cfg), 2.0);
    EXPECT_EQ(cfg.workloadParams.opsPerProc, 60u);

    const SweepCell *dir =
        g.cellByHash("05d6f506cc21f803");  // directory x default
    ASSERT_NE(dir, nullptr);
    EXPECT_EQ(g.configFor(*dir).protocol, Protocol::DirectoryCMP);
}

using ParamGridDeathTest = ::testing::Test;

TEST(ParamGridDeathTest, RejectsTyposLoudly)
{
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     R"({"name": "t", "polices": ["dst1"],
                         "workloads": ["zipf"]})",
                     "t"),
                 "unknown key");
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     R"({"name": "t", "policies": ["dts1"],
                         "workloads": ["zipf"]})",
                     "t"),
                 "unknown policy");
    EXPECT_DEATH(ParamGrid::fromJsonText(
                     R"({"name": "t", "policies": ["dst1"],
                         "workloads": ["zpif"]})",
                     "t"),
                 "unknown workload");
    EXPECT_DEATH(
        ParamGrid::fromJsonText(
            R"({"name": "t", "policies": ["dst1"],
                "workloads": ["zipf"],
                "overrides": [{"label": "x",
                               "knobs": {"token.predEntries": 1}}]})",
            "t"),
        "unknown knob");
}

// ---- SweepDriver ----------------------------------------------------

namespace {

/** Load the tiny grid from a real file (multi-process mode needs a
 *  path) and hand back grid + default in-process options. */
struct DriverFixture
{
    explicit DriverFixture(const std::string &tag)
        : gridPath(tmpPath(tag + ".grid.json")),
          journal(tmpPath(tag + ".journal.jsonl"))
    {
        writeFile(gridPath, kTinyGrid);
        std::remove(journal.c_str());
    }

    SweepOptions
    opts() const
    {
        SweepOptions o;
        o.journalPath = journal;
        o.verbose = false;
        return o;
    }

    std::string gridPath;
    std::string journal;
};

} // namespace

TEST(SweepDriver, RunsAllCellsAndJournalsThem)
{
    DriverFixture fx("run");
    ParamGrid grid = ParamGrid::fromFile(fx.gridPath);
    SweepDriver driver(grid, fx.opts());
    SweepDriver::Summary s = driver.run();
    EXPECT_TRUE(s.complete());
    EXPECT_EQ(s.ran, 4u);
    EXPECT_EQ(s.resumed, 0u);
    EXPECT_EQ(driver.cellsDone(), 4u);

    // Journal: header + one line per cell, all valid JSON.
    const std::string text = readFile(fx.journal);
    EXPECT_NE(text.find("\"type\": \"header\""), std::string::npos);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);

    // A fresh driver over the same journal resumes everything.
    SweepDriver resumed(grid, fx.opts());
    SweepDriver::Summary s2 = resumed.run();
    EXPECT_TRUE(s2.complete());
    EXPECT_EQ(s2.ran, 0u);
    EXPECT_EQ(s2.resumed, 4u);
}

TEST(SweepDriver, StopAndResumeReportIsBitIdentical)
{
    // Uninterrupted reference run.
    DriverFixture ref("ref");
    ParamGrid grid = ParamGrid::fromFile(ref.gridPath);
    SweepDriver full(grid, ref.opts());
    ASSERT_TRUE(full.run().complete());
    const std::string fullReport = full.mergedReport();

    // Stopped after 1 cell, then resumed to completion.
    DriverFixture fx("resume");
    {
        SweepOptions o = fx.opts();
        o.stopAfter = 1;
        SweepDriver first(grid, o);
        SweepDriver::Summary s = first.run();
        EXPECT_TRUE(s.stopped);
        EXPECT_EQ(s.ran, 1u);
        EXPECT_FALSE(s.complete());
    }
    SweepDriver second(grid, fx.opts());
    SweepDriver::Summary s = second.run();
    EXPECT_TRUE(s.complete());
    EXPECT_EQ(s.resumed, 1u);
    EXPECT_EQ(s.ran, 3u);

    EXPECT_EQ(second.mergedReport(), fullReport);
}

TEST(SweepDriver, ToleratesTruncatedFinalJournalLine)
{
    DriverFixture fx("trunc");
    ParamGrid grid = ParamGrid::fromFile(fx.gridPath);
    {
        SweepOptions o = fx.opts();
        o.stopAfter = 2;
        SweepDriver d(grid, o);
        d.run();
    }
    // Simulate a kill -9 mid-append: a torn, unparseable last line.
    std::FILE *f = std::fopen(fx.journal.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"type\": \"cell\", \"hash\": \"05d6f506", f);
    std::fclose(f);

    SweepDriver d(grid, fx.opts());
    EXPECT_EQ(d.cellsDone(), 2u);  // torn line ignored, not fatal
    SweepDriver::Summary s = d.run();
    EXPECT_TRUE(s.complete());
    EXPECT_EQ(s.resumed, 2u);
    EXPECT_EQ(s.ran, 2u);
}

TEST(SweepDriver, MultiProcessMatchesInProcessBitForBit)
{
    // In-process reference.
    DriverFixture ref("mpref");
    ParamGrid grid = ParamGrid::fromFile(ref.gridPath);
    SweepDriver serial(grid, ref.opts());
    ASSERT_TRUE(serial.run().complete());

    // Multi-process fan-out through the real sweep CLI binary.
    DriverFixture fx("mp");
    SweepOptions o = fx.opts();
    o.processes = 2;
    o.selfExec = TOKENCMP_SWEEP_TOOL;
    o.gridPath = fx.gridPath;
    SweepDriver mp(grid, o);
    SweepDriver::Summary s = mp.run();
    EXPECT_TRUE(s.complete()) << (s.failures.empty()
                                      ? "?"
                                      : s.failures.front());
    EXPECT_EQ(mp.mergedReport(), serial.mergedReport());
}

TEST(SweepDriver, OverriddenCellsGetDistinctProtocolLabels)
{
    // The label-collision fix: same policy, different knob overrides
    // must produce distinct result labels (protocol "@<hash>").
    ParamGrid grid = ParamGrid::fromJsonText(kTinyGrid, "labels");
    const std::string def = SweepDriver::runCellJson(
        grid, *grid.cellByHash("b14cf5219698e816"));
    const std::string ovr = SweepDriver::runCellJson(
        grid, *grid.cellByHash("b60a5fd3fc2b68fb"));

    std::string err;
    minijson::Value dj = minijson::parse(def, &err);
    ASSERT_TRUE(err.empty()) << err;
    minijson::Value oj = minijson::parse(ovr, &err);
    ASSERT_TRUE(err.empty()) << err;

    EXPECT_EQ(dj.getString("protocol"), "TokenCMP-dst1");
    EXPECT_EQ(dj.find("knobHash"), nullptr);
    EXPECT_EQ(oj.getString("knobHash").size(), 8u);
    EXPECT_EQ(oj.getString("protocol"),
              "TokenCMP-dst1@" + oj.getString("knobHash"));
}

using SweepDriverDeathTest = ::testing::Test;

TEST(SweepDriverDeathTest, EditedGridAgainstOldJournalIsFatal)
{
    DriverFixture fx("editdeath");
    ParamGrid grid = ParamGrid::fromFile(fx.gridPath);
    {
        SweepOptions o = fx.opts();
        o.stopAfter = 1;
        SweepDriver d(grid, o);
        d.run();
    }
    std::string edited = kTinyGrid;
    edited.replace(edited.find("\"seeds\": 1"), 10, "\"seeds\": 2");
    ParamGrid editedGrid = ParamGrid::fromJsonText(edited, "edited");
    EXPECT_DEATH(SweepDriver(editedGrid, fx.opts()),
                 "the grid was edited");
}

TEST(SweepDriverDeathTest, CorruptMidJournalLineIsFatal)
{
    DriverFixture fx("corrupt");
    ParamGrid grid = ParamGrid::fromFile(fx.gridPath);
    writeFile(fx.journal,
              "{\"type\": \"header\", \"grid\": \"tiny\", "
              "\"fingerprint\": \"" + grid.fingerprint() +
              "\", \"cells\": 4}\n"
              "not json at all\n"
              "{\"type\": \"cell\"}\n");
    EXPECT_DEATH(SweepDriver(grid, fx.opts()), "corrupt line 2");
}

} // namespace tokencmp::test
