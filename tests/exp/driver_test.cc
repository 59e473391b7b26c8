/**
 * CLI-level tests of the padc driver (in-process via driverMain):
 * argument parsing, list enumeration, unknown-selector diagnostics,
 * and schema-snapshot validation of the emitted BENCH_<name>.json
 * files. PADC_SCHEMA_PATH points at the checked-in
 * tests/exp/bench_result_schema.json.
 */

#include "exp/driver.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver_harness.hh"
#include "exp/json.hh"
#include "exp/registry.hh"

namespace padc::exp
{
namespace
{

TEST(ParseDriverArgs, CommandsAndFlags)
{
    DriverOptions options;
    std::string error;

    const char *list[] = {"padc", "list"};
    ASSERT_TRUE(parseDriverArgs(2, list, &options, &error)) << error;
    EXPECT_EQ(options.command, DriverOptions::Command::List);

    const char *run[] = {"padc",     "run",         "fig09", "overall",
                         "--threads", "3",          "--seed", "42",
                         "--out",     "/tmp/x",     "--resume",
                         "/tmp/j.jsonl"};
    ASSERT_TRUE(parseDriverArgs(12, run, &options, &error)) << error;
    EXPECT_EQ(options.command, DriverOptions::Command::Run);
    ASSERT_EQ(options.selectors.size(), 2u);
    EXPECT_EQ(options.selectors[0], "fig09");
    EXPECT_EQ(options.threads, 3u);
    ASSERT_TRUE(options.seed.has_value());
    EXPECT_EQ(*options.seed, 42u);
    EXPECT_EQ(options.out_dir, "/tmp/x");
    EXPECT_EQ(options.resume_path, "/tmp/j.jsonl");
    EXPECT_FALSE(options.trace);
    EXPECT_FALSE(options.timeseries);

    const char *telem[] = {"padc",         "run",           "smoke",
                           "--trace",      "--timeseries",  "--trace-limit",
                           "512"};
    ASSERT_TRUE(parseDriverArgs(7, telem, &options, &error)) << error;
    EXPECT_TRUE(options.trace);
    EXPECT_TRUE(options.timeseries);
    EXPECT_EQ(options.trace_limit, 512u);

    const char *telem2[] = {"padc",          "run", "smoke",
                            "--timeseries",  "--trace-limit",
                            "0",             "--trace"};
    ASSERT_TRUE(parseDriverArgs(7, telem2, &options, &error)) << error;
    EXPECT_TRUE(options.timeseries);
    EXPECT_EQ(options.trace_limit, 0u); // 0 = count-only tracing
    EXPECT_TRUE(options.trace);
}

TEST(ParseDriverArgs, Rejections)
{
    DriverOptions options;
    std::string error;
    const auto fails = [&](std::vector<const char *> argv) {
        argv.insert(argv.begin(), "padc");
        error.clear();
        const bool ok = parseDriverArgs(
            static_cast<int>(argv.size()), argv.data(), &options,
            &error);
        EXPECT_FALSE(error.empty());
        return !ok;
    };
    EXPECT_TRUE(fails({}));
    EXPECT_TRUE(fails({"frobnicate"}));
    EXPECT_TRUE(fails({"run"}));
    EXPECT_TRUE(fails({"run", "smoke", "--threads", "0"}));
    EXPECT_TRUE(fails({"run", "smoke", "--threads", "nope"}));
    EXPECT_TRUE(fails({"run", "smoke", "--threads", "2000"})); // > kMaxThreads
    EXPECT_TRUE(fails({"run", "smoke", "--threads"}));
    EXPECT_TRUE(fails({"run", "smoke", "--seed", "-1"}));
    EXPECT_TRUE(fails({"run", "smoke", "--frob"}));
    EXPECT_TRUE(fails({"list", "stray"}));
    EXPECT_TRUE(fails({"run", "smoke", "--trace-limit", "nope"}));
    EXPECT_TRUE(fails({"run", "smoke", "--trace-limit", "-1"}));
    EXPECT_TRUE(fails({"run", "smoke", "--trace-limit"}));
    EXPECT_TRUE(fails({"run", "smoke", "--corpus", "d"}));

    const auto failsWith = [&](std::vector<const char *> argv,
                               const std::string &diagnostic) {
        return fails(argv) &&
               error.find(diagnostic) != std::string::npos;
    };
    EXPECT_TRUE(failsWith({"run", "smoke", "--json"}, "unknown option"));
    // Machine-readable output has one place, --out: no stdout format
    // and no telemetry path of its own.
    EXPECT_TRUE(
        failsWith({"run", "smoke", "--format", "json"}, "unknown option"));
    EXPECT_TRUE(
        failsWith({"run", "smoke", "--format", "text"}, "unknown option"));
    EXPECT_TRUE(failsWith({"run", "smoke", "--trace=/tmp/t.json"},
                          "unknown option"));
    EXPECT_TRUE(failsWith({"run", "smoke", "--timeseries=/tmp/t.csv"},
                          "unknown option"));
    EXPECT_TRUE(
        failsWith({"run", "smoke", "--trace-limit=5"}, "unknown option"));
    for (const char *command :
         {"serve", "submit", "jobs", "cancel", "metrics", "status"}) {
        EXPECT_TRUE(failsWith({command, "/tmp/x"}, "unknown command"))
            << command;
    }
    EXPECT_TRUE(failsWith({"run", "smoke", "--wait"}, "unknown option"));
    EXPECT_TRUE(
        failsWith({"run", "smoke", "--queue-cap", "4"}, "unknown option"));
}

TEST(DriverList, EnumeratesEveryExperimentExactlyOnce)
{
    std::string out, err;
    ASSERT_EQ(runInProcess({"list"}, &out, &err), 0) << err;

    // First whitespace-delimited token of each line is the name.
    std::set<std::string> listed;
    std::istringstream lines(out);
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        std::istringstream fields(line);
        std::string name;
        fields >> name;
        EXPECT_TRUE(listed.insert(name).second)
            << "duplicate listing: " << name;
        ++count;
    }
    const auto all = ExperimentRegistry::instance().all();
    EXPECT_EQ(count, all.size());
    for (const Experiment *experiment : all)
        EXPECT_EQ(listed.count(experiment->info.name), 1u)
            << experiment->info.name;
}

TEST(DriverRun, UnknownSelectorFailsWithSuggestion)
{
    std::string out, err;
    EXPECT_EQ(runInProcess({"run", "fig9"}, &out, &err), 2);
    EXPECT_NE(err.find("unknown experiment"), std::string::npos) << err;
    EXPECT_NE(err.find("did you mean"), std::string::npos) << err;
    EXPECT_NE(err.find("fig"), std::string::npos) << err;

    // An unknown glob / tag fails the same way, before running anything.
    EXPECT_EQ(runInProcess({"run", "smoke", "zz_no_such*"}, &out, &err), 2);
    EXPECT_NE(err.find("unknown experiment"), std::string::npos) << err;
}

TEST(DriverRun, TraceIsAnUnknownCommand)
{
    // Every workload is synthetic: there is no trace tool to reach.
    std::string out, err;
    EXPECT_EQ(runInProcess({"trace", "info", "f"}, &out, &err), 2);
    EXPECT_NE(err.find("unknown command 'trace'"), std::string::npos)
        << err;
}

TEST(DriverRun, EachCallHonorsItsOwnThreadsAndResume)
{
    // No runner or journal outlives a driverMain call, so later calls
    // in the same process get exactly what their own flags ask for.
    const auto dir = freshDir("per_call");
    const std::string journal = (dir / "sweep.padcjournal").string();
    std::string out, err;
    ASSERT_EQ(runInProcess({"run", "smoke", "--out", (dir / "A").string()},
                           &out, &err),
              0)
        << err;

    ASSERT_EQ(runInProcess({"run", "smoke", "--threads", "2", "--resume",
                            journal, "--out", (dir / "B").string()},
                           &out, &err),
              0)
        << err;
    EXPECT_EQ(err.find("ignored"), std::string::npos) << err;
    std::istringstream lines(slurp(journal));
    std::size_t records = 0;
    for (std::string line; std::getline(lines, line);)
        records += line.rfind("padcj3 ", 0) == 0 ? 1 : 0;
    EXPECT_EQ(records, 2u);

    // Both points now replay from the journal the second call wrote.
    ASSERT_EQ(runInProcess({"run", "smoke", "--resume", journal, "--out",
                            (dir / "C").string()},
                           &out, &err),
              0)
        << err;
    JsonValue document;
    std::string error;
    ASSERT_TRUE(parseJson(slurp(dir / "C" / "BENCH_smoke.json"), &document,
                          &error))
        << error;
    const JsonValue *points = document.find("points");
    ASSERT_NE(points, nullptr);
    ASSERT_EQ(points->array.size(), 2u);
    for (const JsonValue &point : points->array)
        EXPECT_EQ(point.find("attempts")->number, 0.0);
    std::filesystem::remove_all(dir);
}

// --- schema-snapshot validation ------------------------------------

std::string
kindName(JsonValue::Kind kind)
{
    switch (kind) {
      case JsonValue::Kind::Null: return "null";
      case JsonValue::Kind::Bool: return "boolean";
      case JsonValue::Kind::Number: return "number";
      case JsonValue::Kind::String: return "string";
      case JsonValue::Kind::Array: return "array";
      case JsonValue::Kind::Object: return "object";
    }
    return "?";
}

/**
 * Validate @p value against the subset of JSON Schema the snapshot
 * uses: type, required, properties, items, const, pattern.
 */
void
validateAgainst(const JsonValue &schema, const JsonValue &value,
                const std::string &where)
{
    if (const JsonValue *type = schema.find("type")) {
        EXPECT_EQ(kindName(value.kind), type->string) << where;
    }
    if (const JsonValue *expected = schema.find("const")) {
        EXPECT_EQ(value.string, expected->string) << where;
    }
    if (const JsonValue *pattern = schema.find("pattern")) {
        EXPECT_TRUE(std::regex_search(value.string,
                                      std::regex(pattern->string)))
            << where << ": '" << value.string << "' !~ "
            << pattern->string;
    }
    if (const JsonValue *required = schema.find("required")) {
        for (const JsonValue &key : required->array)
            EXPECT_NE(value.find(key.string), nullptr)
                << where << ": missing member '" << key.string << "'";
    }
    if (const JsonValue *properties = schema.find("properties")) {
        for (const auto &[key, sub] : properties->object) {
            if (const JsonValue *member = value.find(key))
                validateAgainst(sub, *member, where + "." + key);
        }
    }
    if (const JsonValue *items = schema.find("items")) {
        for (std::size_t i = 0; i < value.array.size(); ++i)
            validateAgainst(*items, value.array[i],
                            where + "[" + std::to_string(i) + "]");
    }
}

TEST(DriverRun, FailedBenchWriteFailsTheRunAndLeavesNoTemp)
{
    // A directory squats on the BENCH path, so the write cannot land:
    // the run fails naming the path and the reason, and no temp file
    // stays behind.
    const auto dir = freshDir("bench_write");
    const auto bench = dir / "BENCH_smoke.json";
    std::filesystem::create_directories(bench / "occupied");
    std::string out, err;
    EXPECT_EQ(runInProcess({"run", "smoke", "--out", dir.string()}, &out,
                           &err),
              1);
    EXPECT_NE(err.find("cannot write '" + bench.string() + "'"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find(std::strerror(EISDIR)), std::string::npos) << err;
    EXPECT_TRUE(std::filesystem::is_directory(bench / "occupied"));
    EXPECT_FALSE(std::filesystem::exists(dir / "BENCH_smoke.json.tmp"));
    std::filesystem::remove_all(dir);
}

TEST(DriverRun, EmittedFileMatchesSchemaSnapshot)
{
    const auto dir = freshDir("schema");
    std::string out, err;
    ASSERT_EQ(runInProcess({"run", "smoke", "--out", dir.string()}, &out,
                           &err),
              0)
        << err;
    // stdout still carries the experiment's rows.
    EXPECT_NE(out.find("Smoke test"), std::string::npos);

    JsonValue schema;
    std::string error;
    ASSERT_TRUE(parseJson(slurp(PADC_SCHEMA_PATH), &schema, &error))
        << error;
    JsonValue document;
    ASSERT_TRUE(
        parseJson(slurp(dir / "BENCH_smoke.json"), &document, &error))
        << error;
    validateAgainst(schema, document, "$");
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace padc::exp
