/**
 * @file
 * End-to-end telemetry export through the padc driver (in-process via
 * driverMain): `run smoke --trace --timeseries` must emit a parseable
 * Chrome trace JSON and a populated CSV into --out, record both sinks
 * in BENCH_smoke.json next to the wall-clock profile, honour
 * --trace-limit, and fail fast -- before any simulation -- on an
 * invalid flag.
 */

#include <filesystem>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "../exp/driver_harness.hh"
#include "exp/json.hh"

namespace padc::exp
{
namespace
{

/** Parse a written JSON file or fail the test with the parse error. */
JsonValue
parseFile(const std::filesystem::path &path)
{
    JsonValue root;
    std::string error;
    EXPECT_TRUE(parseJson(slurp(path), &root, &error))
        << path << ": " << error;
    return root;
}

/** The "sinks" entry of the given kind, or nullptr. */
const JsonValue *
findSink(const JsonValue &result, const std::string &kind)
{
    const JsonValue *sinks = result.find("sinks");
    if (sinks == nullptr)
        return nullptr;
    for (const JsonValue &sink : sinks->array) {
        if (sink.find("kind") != nullptr &&
            sink.find("kind")->string == kind)
            return &sink;
    }
    return nullptr;
}

TEST(TraceExport, SmokeRunWritesBothSinksAndRecordsThem)
{
    const auto dir = freshDir("trace_sinks");
    std::string out, err;
    ASSERT_EQ(runInProcess({"run", "smoke", "--trace", "--timeseries",
                            "--out", dir.string()},
                           &out, &err),
              0)
        << err;
    // The text footer reports both written files and the profile line.
    EXPECT_NE(out.find("wrote trace"), std::string::npos) << out;
    EXPECT_NE(out.find("wrote timeseries"), std::string::npos) << out;
    EXPECT_NE(out.find("collect "), std::string::npos) << out;

    // Default per-experiment paths under --out.
    const auto trace_path = dir / "smoke.trace.json";
    const auto csv_path = dir / "smoke.timeseries.csv";
    ASSERT_TRUE(std::filesystem::exists(trace_path));
    ASSERT_TRUE(std::filesystem::exists(csv_path));

    // The trace is valid JSON in Chrome trace-event shape.
    const JsonValue trace = parseFile(trace_path);
    ASSERT_TRUE(trace.isObject());
    const JsonValue *events = trace.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_GT(events->array.size(), 0u);

    // The CSV has the schema header and data rows for both sweep points.
    std::istringstream csv(slurp(csv_path));
    std::string header;
    ASSERT_TRUE(std::getline(csv, header));
    EXPECT_EQ(header.rfind("point,label,cycle,core,par,", 0), 0u);
    std::size_t data_lines = 0;
    std::string line;
    while (std::getline(csv, line)) {
        if (!line.empty())
            ++data_lines;
    }
    EXPECT_GT(data_lines, 0u);

    // BENCH_smoke.json records both sinks with matching paths/rows.
    const JsonValue bench = parseFile(dir / "BENCH_smoke.json");
    const JsonValue *trace_sink = findSink(bench, "trace");
    ASSERT_NE(trace_sink, nullptr);
    EXPECT_EQ(trace_sink->find("path")->string, trace_path.string());
    EXPECT_GT(trace_sink->find("rows")->number, 0.0);
    const JsonValue *series_sink = findSink(bench, "timeseries");
    ASSERT_NE(series_sink, nullptr);
    EXPECT_EQ(series_sink->find("path")->string, csv_path.string());
    EXPECT_DOUBLE_EQ(series_sink->find("rows")->number,
                     static_cast<double>(data_lines));

    // The profile block is populated alongside.
    const JsonValue *profile = bench.find("profile");
    ASSERT_NE(profile, nullptr);
    EXPECT_GT(profile->find("simulate_seconds")->number, 0.0);
    EXPECT_GE(profile->find("event_jumps")->number, 0.0);
    std::filesystem::remove_all(dir);
}

TEST(TraceExport, TraceLimitBoundsRetention)
{
    const auto dir = freshDir("trace_limit");
    std::string out, err;
    ASSERT_EQ(runInProcess({"run", "smoke", "--trace", "--trace-limit",
                            "10", "--out", dir.string()},
                           &out, &err),
              0)
        << err;

    const JsonValue bench = parseFile(dir / "BENCH_smoke.json");
    const JsonValue *sink = findSink(bench, "trace");
    ASSERT_NE(sink, nullptr);
    // smoke is a 2-point sweep: at most 10 kept events per point, and
    // the (much larger) remainder is counted as dropped.
    EXPECT_LE(sink->find("rows")->number, 20.0);
    EXPECT_GT(sink->find("dropped")->number, 0.0);

    const JsonValue trace = parseFile(dir / "smoke.trace.json");
    std::size_t non_metadata = 0;
    for (const JsonValue &event : trace.find("traceEvents")->array) {
        if (event.find("ph")->string != "M")
            ++non_metadata;
    }
    EXPECT_LE(non_metadata, 20u);
    std::filesystem::remove_all(dir);
}

TEST(TraceExport, InvalidTraceLimitFailsWithUsage)
{
    std::string out, err;
    EXPECT_EQ(runInProcess({"run", "smoke", "--trace-limit", "nope"}, &out,
                           &err),
              2);
    EXPECT_NE(err.find("--trace-limit"), std::string::npos) << err;
    EXPECT_NE(err.find("usage:"), std::string::npos) << err;
}

} // namespace
} // namespace padc::exp
