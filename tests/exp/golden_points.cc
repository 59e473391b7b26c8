/**
 * @file
 * The golden_points gate: reruns `padc run smoke_grid fig09 --threads 2`
 * through the real driver binary, reads the BENCH_smoke_grid.json and
 * BENCH_fig09.json it writes into PADC_GOLDEN_OUT, and compares every
 * point with the digests committed in tests/exp/golden/points.txt, one
 * line per point (the line is golden_line.hh's goldenLine).
 *
 * The actual lines are always written to points.txt in the build-tree
 * directory PADC_GOLDEN_OUT (next to the BENCH files of the run). On a
 * mismatch the gate prints the first differing point (its label, the
 * expected and actual status, cycles and digest, and the actual
 * metrics) and the `cp` command that accepts the new results; a change
 * that moves simulated results on purpose runs that command and says
 * why in its change log.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "exp/json.hh"
#include "golden_line.hh"

namespace
{

using padc::exp::JsonValue;

/** One point of the run, as its digest line plus what explains it. */
struct Point
{
    std::string line;
    std::string label;
    const JsonValue *metrics = nullptr;
};

/** The experiments of the run, in run order. */
const char *const kExperiments[] = {"smoke_grid", "fig09"};

/** Run the driver; its BENCH files land in PADC_GOLDEN_OUT. */
bool
runDriver()
{
    std::string command = "'" PADC_DRIVER_BIN "' run";
    for (const char *experiment : kExperiments)
        command += std::string(" ") + experiment;
    command += " --threads 2 --out '" PADC_GOLDEN_OUT "' > /dev/null";
    const int status = std::system(command.c_str());
    if (status != 0)
        std::fprintf(stderr, "golden_points: '%s' exited with status %d\n",
                     command.c_str(), status);
    return status == 0;
}

/** Parse PADC_GOLDEN_OUT's BENCH file of @p experiment into @p doc. */
bool
loadBench(const std::string &experiment, JsonValue *doc, std::string *error)
{
    const std::string path =
        PADC_GOLDEN_OUT "/BENCH_" + experiment + ".json";
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    if (padc::exp::parseJson(text, doc, error))
        return true;
    *error = path + ": " + *error;
    return false;
}

/** Append the digest lines of every point of @p result, in run order. */
bool
collectPoints(const JsonValue &result, std::vector<Point> *points)
{
    const JsonValue *name = result.find("name");
    const JsonValue *list = result.find("points");
    if (name == nullptr || list == nullptr || !list->isArray())
        return false;
    for (std::size_t i = 0; i < list->array.size(); ++i) {
        const JsonValue &entry = list->array[i];
        const std::string line =
            padc::exp::goldenLine(name->string, i, entry);
        if (line.empty())
            return false;
        points->push_back(
            {line, entry.find("label")->string, entry.find("metrics")});
    }
    return true;
}

} // namespace

int
main()
{
    if (!runDriver())
        return 1;
    JsonValue docs[std::size(kExperiments)];
    std::vector<Point> actual;
    for (std::size_t k = 0; k < std::size(kExperiments); ++k) {
        std::string error;
        if (!loadBench(kExperiments[k], &docs[k], &error) ||
            !collectPoints(docs[k], &actual)) {
            std::fprintf(stderr, "golden_points: no usable run output %s\n",
                         error.c_str());
            return 1;
        }
    }

    const std::string actual_path = PADC_GOLDEN_OUT "/points.txt";
    {
        std::ofstream out(actual_path);
        for (const Point &point : actual)
            out << point.line << "\n";
    }

    std::vector<std::string> expected;
    {
        std::ifstream in(PADC_GOLDEN_POINTS);
        for (std::string line; std::getline(in, line);)
            expected.push_back(line);
    }

    for (std::size_t i = 0; i < actual.size() || i < expected.size(); ++i) {
        const std::string want = i < expected.size() ? expected[i] : "";
        const std::string got = i < actual.size() ? actual[i].line : "";
        if (want == got)
            continue;
        std::fprintf(stderr,
                     "golden_points: point %zu differs from %s\n"
                     "  label:    %s\n"
                     "  expected: %s\n"
                     "  actual:   %s\n",
                     i, PADC_GOLDEN_POINTS,
                     i < actual.size() ? actual[i].label.c_str()
                                       : "(no such point)",
                     want.empty() ? "(no such point)" : want.c_str(),
                     got.empty() ? "(no such point)" : got.c_str());
        if (i < actual.size()) {
            std::fprintf(stderr, "  actual metrics:\n");
            for (const auto &[name, value] : actual[i].metrics->object)
                std::fprintf(stderr, "    %s %s\n", name.c_str(),
                             value.isNumber()
                                 ? padc::exp::jsonNumber(value.number).c_str()
                                 : "null");
        }
        std::fprintf(stderr,
                     "golden_points: the whole actual file is %s; if the "
                     "change is meant to move results, accept it with\n"
                     "  cp %s %s\n",
                     actual_path.c_str(), actual_path.c_str(),
                     PADC_GOLDEN_POINTS);
        return 1;
    }
    std::printf("golden_points: %zu points match %s\n", actual.size(),
                PADC_GOLDEN_POINTS);
    return 0;
}
