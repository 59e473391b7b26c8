#include "trace/tools.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "common/suggest.hh"
#include "trace/corpus.hh"
#include "trace/format.hh"
#include "trace/import.hh"
#include "workload/generator.hh"
#include "workload/mixes.hh"
#include "workload/profile.hh"

namespace padc::trace
{

namespace
{

int
usageError(const std::string &message)
{
    std::fprintf(stderr, "padc trace: %s\n%s", message.c_str(),
                 traceToolUsage());
    return 2;
}

int
operationError(const std::string &message)
{
    std::fprintf(stderr, "padc trace: %s\n", message.c_str());
    return 1;
}

/** Shared argv cursor: `--flag VALUE` option values. */
class ArgCursor
{
  public:
    ArgCursor(int argc, const char *const *argv, int first)
        : argc_(argc), argv_(argv), i_(first)
    {
    }

    bool done() const { return i_ >= argc_; }
    std::string next() { return argv_[i_++]; }

    /** Value of the option just consumed; nullptr when missing. */
    const char *value()
    {
        return i_ < argc_ ? argv_[i_++] : nullptr;
    }

  private:
    int argc_;
    const char *const *argv_;
    int i_;
};

/**
 * Capture state shared by `capture` and `convert`: write @p ops as
 * PADCTRC2 into the corpus at @p dir under @p name and upsert the
 * manifest entry.
 */
int
storeInCorpus(const std::string &dir, const std::string &name,
              const std::string &source,
              const std::vector<core::TraceOp> &ops,
              std::uint32_t block_ops)
{
    std::error_code dir_error;
    std::filesystem::create_directories(dir, dir_error);
    if (dir_error) {
        return operationError("cannot create corpus directory '" + dir +
                              "': " + dir_error.message());
    }

    const std::string file = name + ".trc";
    std::string error;
    if (!writeTraceFileV2(dir + "/" + file, ops, &error, block_ops))
        return operationError(error);

    Corpus corpus;
    if (!loadOrInitCorpus(dir, &corpus, &error))
        return operationError(error);
    CorpusEntry entry;
    if (!makeEntry(dir, file, name, source, &entry, &error))
        return operationError(error);
    upsertEntry(&corpus, entry);
    if (!saveCorpus(corpus, &error))
        return operationError(error);

    std::printf("wrote %s/%s: %llu ops, %llu bytes (%.2f bytes/op), "
                "footprint %llu lines\n",
                dir.c_str(), file.c_str(),
                static_cast<unsigned long long>(entry.ops),
                static_cast<unsigned long long>(entry.bytes),
                entry.ops > 0 ? static_cast<double>(entry.bytes) /
                                    static_cast<double>(entry.ops)
                              : 0.0,
                static_cast<unsigned long long>(entry.footprint_lines));
    return 0;
}

int
captureCommand(ArgCursor args)
{
    std::string profile;
    std::string dir;
    std::string name;
    std::uint64_t ops = 0;
    std::uint64_t core = 0;
    std::uint64_t seed = 1;
    std::uint64_t block_ops = kDefaultBlockOps;

    while (!args.done()) {
        const std::string arg = args.next();
        if (arg == "--profile") {
            const char *text = args.value();
            if (text == nullptr)
                return usageError("--profile expects a name");
            profile = text;
        } else if (arg == "--out") {
            const char *text = args.value();
            if (text == nullptr)
                return usageError("--out expects a directory");
            dir = text;
        } else if (arg == "--name") {
            const char *text = args.value();
            if (text == nullptr)
                return usageError("--name expects a profile name");
            name = text;
        } else if (arg == "--ops") {
            if (!parseU64(args.value(), &ops) || ops == 0)
                return usageError("--ops expects a positive integer");
        } else if (arg == "--core") {
            if (!parseU64(args.value(), &core))
                return usageError("--core expects a non-negative integer");
        } else if (arg == "--seed") {
            if (!parseU64(args.value(), &seed))
                return usageError("--seed expects a non-negative integer");
        } else if (arg == "--block-ops") {
            if (!parseU64(args.value(), &block_ops) || block_ops == 0 ||
                block_ops > 1u << 20) {
                return usageError(
                    "--block-ops expects an integer in [1, 1048576]");
            }
        } else {
            return usageError("unknown capture option '" + arg + "'");
        }
    }
    if (profile.empty() || dir.empty() || ops == 0) {
        return usageError(
            "capture requires --profile, --out, and --ops");
    }
    if (workload::findProfile(profile) == nullptr) {
        return operationError(
            "unknown profile '" + profile + "'" +
            didYouMean(profile, workload::allProfileNames()));
    }
    if (name.empty()) {
        name = profile + ".c" + std::to_string(core) + ".s" +
               std::to_string(seed);
    }

    // Reproduce the exact mix placement: the same (core, seed) salting
    // runMix applies, so replaying this file on the same core slots
    // into an experiment bit-identically.
    const workload::Mix mix(static_cast<std::size_t>(core) + 1, profile);
    workload::SyntheticTrace generator(workload::traceParamsFor(
        mix, static_cast<std::uint32_t>(core), seed));

    std::vector<core::TraceOp> buffer;
    buffer.reserve(static_cast<std::size_t>(ops));
    for (std::uint64_t i = 0; i < ops; ++i)
        buffer.push_back(generator.next());

    const std::string source = "capture:" + profile + ":core" +
                               std::to_string(core) + ":seed" +
                               std::to_string(seed);
    return storeInCorpus(dir, name, source, buffer,
                         static_cast<std::uint32_t>(block_ops));
}

int
convertCommand(ArgCursor args)
{
    std::string in;
    std::string format;
    std::string dir;
    std::string name;
    std::uint64_t block_ops = kDefaultBlockOps;

    while (!args.done()) {
        const std::string arg = args.next();
        if (arg == "--in") {
            const char *text = args.value();
            if (text == nullptr)
                return usageError("--in expects a file");
            in = text;
        } else if (arg == "--format") {
            const char *text = args.value();
            if (text == nullptr)
                return usageError("--format expects csv|champsim|trace");
            format = text;
        } else if (arg == "--out") {
            const char *text = args.value();
            if (text == nullptr)
                return usageError("--out expects a directory");
            dir = text;
        } else if (arg == "--name") {
            const char *text = args.value();
            if (text == nullptr)
                return usageError("--name expects a profile name");
            name = text;
        } else if (arg == "--block-ops") {
            if (!parseU64(args.value(), &block_ops) || block_ops == 0 ||
                block_ops > 1u << 20) {
                return usageError(
                    "--block-ops expects an integer in [1, 1048576]");
            }
        } else {
            return usageError("unknown convert option '" + arg + "'");
        }
    }
    if (in.empty() || format.empty() || dir.empty() || name.empty()) {
        return usageError(
            "convert requires --in, --format, --out, and --name");
    }

    std::vector<core::TraceOp> ops;
    std::string error;
    ImportStats stats;
    if (format == "csv") {
        if (!importCsvMemtrace(in, &ops, &error, &stats))
            return operationError(in + ": " + error);
    } else if (format == "champsim") {
        if (!importChampSim(in, &ops, &error, &stats))
            return operationError(in + ": " + error);
    } else if (format == "trace") {
        // Re-block an existing PADCTRC2 file.
        if (!readTraceFileV2(in, &ops, &error))
            return operationError(in + ": " + error);
        stats.lines = ops.size();
        stats.ops = ops.size();
    } else {
        return usageError("--format expects csv|champsim|trace, got '" +
                          format + "'");
    }
    if (ops.empty())
        return operationError(in + ": no operations imported");

    std::printf("imported %llu ops from %llu records (%llu skipped)\n",
                static_cast<unsigned long long>(stats.ops),
                static_cast<unsigned long long>(stats.lines),
                static_cast<unsigned long long>(stats.skipped));
    const std::string source = "import:" + format + ":" + in;
    return storeInCorpus(dir, name, source, ops,
                         static_cast<std::uint32_t>(block_ops));
}

int
infoCommand(ArgCursor args)
{
    std::vector<std::string> files;
    while (!args.done()) {
        const std::string arg = args.next();
        if (!arg.empty() && arg[0] == '-')
            return usageError("unknown info option '" + arg + "'");
        files.push_back(arg);
    }
    if (files.empty())
        return usageError("info expects trace files");

    int failures = 0;
    for (const std::string &file : files) {
        TraceFileInfo info;
        std::string error;
        if (!probeTraceFile(file, &info, &error)) {
            std::fprintf(stderr, "padc trace: %s: %s\n", file.c_str(),
                         error.c_str());
            ++failures;
            continue;
        }
        std::printf("%s: padctrc2, %llu ops, %llu bytes (%.2f bytes/op), "
                    "%llu blocks of %u ops, checksum 0x%016llx\n",
                    file.c_str(),
                    static_cast<unsigned long long>(info.op_count),
                    static_cast<unsigned long long>(info.file_bytes),
                    info.op_count > 0
                        ? static_cast<double>(info.file_bytes) /
                              static_cast<double>(info.op_count)
                        : 0.0,
                    static_cast<unsigned long long>(info.num_blocks),
                    info.block_ops,
                    static_cast<unsigned long long>(info.checksum));
    }
    return failures > 0 ? 1 : 0;
}

int
verifyCommand(ArgCursor args)
{
    std::vector<std::string> files;
    std::string corpus_dir;
    while (!args.done()) {
        const std::string arg = args.next();
        if (arg == "--corpus") {
            const char *text = args.value();
            if (text == nullptr)
                return usageError("--corpus expects a directory");
            corpus_dir = text;
        } else if (!arg.empty() && arg[0] == '-') {
            return usageError("unknown verify option '" + arg + "'");
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty() && corpus_dir.empty())
        return usageError("verify expects trace files or --corpus DIR");

    int failures = 0;
    for (const std::string &file : files) {
        TraceFileInfo info;
        std::string error;
        if (!verifyTraceFile(file, &info, &error)) {
            std::fprintf(stderr, "padc trace: %s: %s\n", file.c_str(),
                         error.c_str());
            ++failures;
            continue;
        }
        std::printf("%s: ok (%llu ops, %llu loads, %llu stores, "
                    "footprint %llu lines)\n",
                    file.c_str(),
                    static_cast<unsigned long long>(info.op_count),
                    static_cast<unsigned long long>(info.loads),
                    static_cast<unsigned long long>(info.stores),
                    static_cast<unsigned long long>(info.distinct_lines));
    }
    if (!corpus_dir.empty()) {
        Corpus corpus;
        std::string error;
        if (!loadCorpus(corpus_dir, &corpus, &error)) {
            std::fprintf(stderr, "padc trace: %s\n", error.c_str());
            ++failures;
        } else if (!verifyCorpus(corpus, &error)) {
            std::fprintf(stderr, "padc trace: corpus %s:\n%s\n",
                         corpus_dir.c_str(), error.c_str());
            ++failures;
        } else {
            std::printf("corpus %s: ok (%zu traces)\n", corpus_dir.c_str(),
                        corpus.entries.size());
        }
    }
    return failures > 0 ? 1 : 0;
}

} // namespace

const char *
traceToolUsage()
{
    return "usage: padc trace <subcommand> [options]\n"
           "\n"
           "subcommands:\n"
           "  capture --profile NAME --out DIR --ops N\n"
           "          [--core N] [--seed N] [--name NAME] [--block-ops N]\n"
           "      record a synthetic profile's stream (mix-placed: the\n"
           "      same per-(core, seed) salting experiments use) into\n"
           "      the corpus at DIR\n"
           "  convert --in FILE --format csv|champsim|trace\n"
           "          --out DIR --name NAME [--block-ops N]\n"
           "      normalize an external or existing trace to PADCTRC2\n"
           "      in the corpus at DIR\n"
           "  info FILE...\n"
           "      print format, op count, block shape (header-only)\n"
           "  verify FILE... | verify --corpus DIR\n"
           "      fully decode and checksum-verify traces or a corpus\n";
}

int
traceToolMain(int argc, const char *const *argv)
{
    // argv: padc trace <subcommand> ...
    if (argc < 3)
        return usageError("missing subcommand");
    const std::string subcommand = argv[2];
    ArgCursor args(argc, argv, 3);
    try {
        if (subcommand == "capture")
            return captureCommand(args);
        if (subcommand == "convert")
            return convertCommand(args);
        if (subcommand == "info")
            return infoCommand(args);
        if (subcommand == "verify")
            return verifyCommand(args);
        if (subcommand == "help" || subcommand == "--help") {
            std::printf("%s", traceToolUsage());
            return 0;
        }
    } catch (const std::exception &e) {
        return operationError(e.what());
    }
    return usageError("unknown subcommand '" + subcommand + "'");
}

} // namespace padc::trace
