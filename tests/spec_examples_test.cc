/**
 * @file
 * Round-trips every checked-in examples/specs/*.json through the
 * spec parser, normalizer and emitter. A spec that ships with the
 * repo must load without a single diagnostic, survive
 * parse -> emit -> parse as the identity, keep its pinned spec hash,
 * and expand to a non-empty cell list — catching schema drift the
 * moment a field is renamed or reordered.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace rtm
{
namespace
{

std::vector<std::string>
exampleSpecPaths()
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(RTM_REPO_DIR) / "examples" / "specs";
    std::vector<std::string> paths;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".json")
            paths.push_back(entry.path().string());
    std::sort(paths.begin(), paths.end());
    return paths;
}

TEST(SpecExamples, DirectoryIsNotEmpty)
{
    EXPECT_FALSE(exampleSpecPaths().empty());
}

TEST(SpecExamples, EveryShippedSpecLoadsCleanly)
{
    for (const std::string &path : exampleSpecPaths()) {
        ExperimentSpec spec;
        std::string diag;
        EXPECT_TRUE(loadExperimentSpec(path, &spec, &diag))
            << path << ":\n" << diag;
        EXPECT_TRUE(diag.empty()) << path << ":\n" << diag;
    }
}

TEST(SpecExamples, ParseEmitParseIsIdentity)
{
    for (const std::string &path : exampleSpecPaths()) {
        ExperimentSpec spec;
        std::string diag;
        ASSERT_TRUE(loadExperimentSpec(path, &spec, &diag))
            << path << ":\n" << diag;

        const JsonValue emitted = experimentSpecToJson(spec);
        ExperimentSpec reparsed;
        ASSERT_TRUE(
            experimentSpecFromJson(emitted, &reparsed, &diag))
            << path << ":\n" << diag;
        EXPECT_TRUE(spec == reparsed) << path;
        EXPECT_EQ(emitted.dump(),
                  experimentSpecToJson(reparsed).dump())
            << path;
        EXPECT_EQ(experimentSpecHash(spec),
                  experimentSpecHash(reparsed))
            << path;
    }
}

/**
 * experimentSpecHash of every shipped spec, pinned. The hash covers
 * the emitted bytes (key names, key order, number formatting), so a
 * symmetric rename or reorder that parse -> emit -> parse cannot see
 * still fails here — and would orphan every resume journal written
 * before it.
 */
TEST(SpecExamples, EmittedSpecHashesArePinned)
{
    const std::map<std::string, std::string> pinned = {
        {"campaign.json", "59cc12a9e9b8912d099edf9b618f3a807aae69616f"
                          "82c33a391bb12bdb87f117"},
        {"fig16.json", "5eda0541f2a997af48a6767eea0724e8b4bb0b31ddb4e2"
                       "c1cc8b193b1c913ca6"},
        {"mc_fast.json", "7c109063665427760717f1dcbc6bc46eecacfe5e600b"
                         "4282e94a74cad845be4d"},
        {"placement_sweep.json", "4ee1121d7db3a295b8ab53470354ade1badb"
                                 "318e07f4c5d43591b7f280401076"},
        {"protection_sweep.json", "482cbec7a1e207703723a5f514cf9aaf8de9"
                                  "8f87c39a65220c8b88ac9b652116"},
        {"resilient_campaign.json", "6c8d149b307977aadbcaa0ab600e8d0dd2"
                                    "c9812f64e2386f80e138f0a6b69db2"},
        {"shiftcode_sweep.json", "a48092dd81383918417d24347d8edc8fcce8"
                                 "9c05764312a5f28600b2f47afbe4"},
        {"stress.json", "3f68de4060c68b3c12778e127b0754234eae10a9b2273f"
                        "03240e0d28a7899db4"},
    };
    for (const std::string &path : exampleSpecPaths()) {
        const std::string name =
            std::filesystem::path(path).filename().string();
        ExperimentSpec spec;
        std::string diag;
        ASSERT_TRUE(loadExperimentSpec(path, &spec, &diag))
            << path << ":\n" << diag;
        const auto it = pinned.find(name);
        ASSERT_NE(it, pinned.end()) << "no pinned hash for " << name;
        EXPECT_EQ(experimentSpecHash(spec), it->second) << path;
    }
}

TEST(SpecExamples, EveryShippedSpecExpandsToCells)
{
    for (const std::string &path : exampleSpecPaths()) {
        ExperimentSpec spec;
        std::string diag;
        ASSERT_TRUE(loadExperimentSpec(path, &spec, &diag))
            << path << ":\n" << diag;
        EXPECT_FALSE(expandCells(spec).empty()) << path;
    }
}

} // anonymous namespace
} // namespace rtm
