/**
 * CLI-level tests of the padc driver (in-process via driverMain):
 * argument parsing, list enumeration, unknown-selector diagnostics,
 * structured JSON output, and schema-snapshot validation of the
 * emitted BENCH_<name>.json files. PADC_SCHEMA_PATH points at the
 * checked-in tests/exp/bench_result_schema.json.
 */

#include "exp/driver.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "exp/json.hh"
#include "exp/registry.hh"

namespace padc::exp
{
namespace
{

int
runDriver(const std::vector<std::string> &args, std::string *out,
          std::string *err)
{
    std::vector<const char *> argv = {"padc"};
    for (const auto &arg : args)
        argv.push_back(arg.c_str());
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int rc =
        driverMain(static_cast<int>(argv.size()), argv.data());
    *out = testing::internal::GetCapturedStdout();
    *err = testing::internal::GetCapturedStderr();
    return rc;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::filesystem::path
freshOutDir(const std::string &name)
{
    // Unique per process: ctest runs this suite both as individual
    // cases and as one whole-binary smoke test, concurrently.
    const auto dir = std::filesystem::temp_directory_path() /
                     ("padc_driver_test_" + name + "." +
                      std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(ParseDriverArgs, CommandsAndFlags)
{
    DriverOptions options;
    std::string error;

    const char *list[] = {"padc", "list"};
    ASSERT_TRUE(parseDriverArgs(2, list, &options, &error)) << error;
    EXPECT_EQ(options.command, DriverOptions::Command::List);

    const char *run[] = {"padc",     "run",      "fig09", "overall",
                         "--threads", "3",       "--seed", "42",
                         "--format", "json",     "--out",  "/tmp/x",
                         "--resume", "/tmp/j.jsonl", "--workers", "4"};
    ASSERT_TRUE(parseDriverArgs(16, run, &options, &error)) << error;
    EXPECT_EQ(options.command, DriverOptions::Command::Run);
    ASSERT_EQ(options.selectors.size(), 2u);
    EXPECT_EQ(options.selectors[0], "fig09");
    EXPECT_EQ(options.threads, 3u);
    EXPECT_EQ(options.workers, 4u);
    ASSERT_TRUE(options.seed.has_value());
    EXPECT_EQ(*options.seed, 42u);
    EXPECT_EQ(options.format, DriverOptions::Format::Json);
    EXPECT_EQ(options.out_dir, "/tmp/x");
    EXPECT_EQ(options.resume_path, "/tmp/j.jsonl");
    EXPECT_FALSE(options.trace);
    EXPECT_FALSE(options.timeseries);

    const char *telem[] = {"padc",          "run",
                           "smoke",         "--trace=/tmp/t.json",
                           "--timeseries",  "--trace-limit",
                           "512"};
    ASSERT_TRUE(parseDriverArgs(7, telem, &options, &error)) << error;
    EXPECT_TRUE(options.trace);
    EXPECT_EQ(options.trace_path, "/tmp/t.json");
    EXPECT_TRUE(options.timeseries);
    EXPECT_TRUE(options.timeseries_path.empty());
    EXPECT_EQ(options.trace_limit, 512u);

    const char *telem2[] = {"padc", "run", "smoke",
                            "--timeseries=/tmp/ts.csv",
                            "--trace-limit=0", "--trace"};
    ASSERT_TRUE(parseDriverArgs(6, telem2, &options, &error)) << error;
    EXPECT_TRUE(options.timeseries);
    EXPECT_EQ(options.timeseries_path, "/tmp/ts.csv");
    EXPECT_EQ(options.trace_limit, 0u); // 0 = count-only tracing
    EXPECT_TRUE(options.trace);
    EXPECT_TRUE(options.trace_path.empty());
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
    EXPECT_TRUE(fails({"run", "smoke", "--workers", "nope"}));
    EXPECT_TRUE(fails({"run", "smoke", "--workers", "-1"}));
    EXPECT_TRUE(fails({"run", "smoke", "--workers", "1025"}));
    EXPECT_TRUE(fails({"run", "smoke", "--workers"}));
    EXPECT_TRUE(fails({"run", "smoke", "--seed", "-1"}));
    EXPECT_TRUE(fails({"run", "smoke", "--format", "xml"}));
    EXPECT_TRUE(fails({"run", "smoke", "--frob"}));
    EXPECT_TRUE(fails({"list", "stray"}));
    EXPECT_TRUE(fails({"run", "smoke", "--trace-limit", "nope"}));
    EXPECT_TRUE(fails({"run", "smoke", "--trace-limit", "-1"}));
    EXPECT_TRUE(fails({"run", "smoke", "--trace-limit"}));
    EXPECT_TRUE(fails({"run", "smoke", "--trace-limit=1x"}));
    EXPECT_TRUE(fails({"run", "smoke", "--trace="}));
    EXPECT_TRUE(fails({"run", "smoke", "--timeseries="}));

    const auto failsWith = [&](std::vector<const char *> argv,
                               const std::string &diagnostic) {
        return fails(argv) &&
               error.find(diagnostic) != std::string::npos;
    };
    // --json belongs to `status`; everywhere else --format json does
    // that job, and the diagnostic says so instead of ignoring it.
    EXPECT_TRUE(failsWith({"run", "smoke", "--json"}, "--format json"));
    for (const char *command :
         {"serve", "submit", "jobs", "cancel", "metrics"}) {
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
    ASSERT_EQ(runDriver({"list"}, &out, &err), 0) << err;

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
    EXPECT_EQ(runDriver({"run", "fig9"}, &out, &err), 2);
    EXPECT_NE(err.find("unknown experiment"), std::string::npos) << err;
    EXPECT_NE(err.find("did you mean"), std::string::npos) << err;
    EXPECT_NE(err.find("fig"), std::string::npos) << err;

    // An unknown glob / tag fails the same way, before running anything.
    EXPECT_EQ(runDriver({"run", "smoke", "zz_no_such*"}, &out, &err), 2);
    EXPECT_NE(err.find("unknown experiment"), std::string::npos) << err;
}

TEST(DriverRun, JsonFormatIsParseableAndStructured)
{
    const auto dir = freshOutDir("json");
    std::string out, err;
    ASSERT_EQ(runDriver({"run", "smoke", "--format", "json", "--out",
                         dir.string()},
                        &out, &err),
              0)
        << err;

    JsonValue root;
    std::string error;
    ASSERT_TRUE(parseJson(out, &root, &error)) << error;
    ASSERT_TRUE(root.isObject());
    EXPECT_EQ(root.find("schema")->string, "padc-bench-results-v1");
    ASSERT_TRUE(root.find("results")->isArray());
    ASSERT_EQ(root.find("results")->array.size(), 1u);

    const JsonValue &result = root.find("results")->array[0];
    EXPECT_EQ(result.find("name")->string, "smoke");
    ASSERT_NE(result.find("config_hash"), nullptr);
    EXPECT_TRUE(std::regex_match(result.find("config_hash")->string,
                                 std::regex("[0-9a-f]{16}")));
    // The smoke experiment is a 2-point sweep with per-point status.
    ASSERT_TRUE(result.find("points")->isArray());
    ASSERT_EQ(result.find("points")->array.size(), 2u);
    for (const JsonValue &point : result.find("points")->array) {
        ASSERT_NE(point.find("status"), nullptr);
        EXPECT_TRUE(point.find("status")->isString());
        EXPECT_NE(point.find("metrics")->object.size(), 0u);
    }
    std::filesystem::remove_all(dir);
}

TEST(DriverRun, EachCallHonorsItsOwnThreadsAndResume)
{
    // No runner or journal outlives a driverMain call, so later calls
    // in the same process get exactly what their own flags ask for.
    const auto dir = freshOutDir("per_call");
    const std::string journal = (dir / "sweep.padcjournal").string();
    std::string out, err;
    ASSERT_EQ(runDriver({"run", "smoke", "--out", (dir / "A").string()},
                        &out, &err),
              0)
        << err;

    ASSERT_EQ(runDriver({"run", "smoke", "--threads", "2", "--resume",
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
    ASSERT_EQ(runDriver({"run", "smoke", "--resume", journal, "--out",
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

TEST(DriverRun, EmittedFileMatchesSchemaSnapshot)
{
    const auto dir = freshOutDir("schema");
    std::string out, err;
    ASSERT_EQ(runDriver({"run", "smoke", "--out", dir.string()}, &out,
                        &err),
              0)
        << err;
    // Text mode still prints the experiment's rows.
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
