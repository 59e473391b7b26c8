/**
 * @file
 * Trace corpus manifests.
 *
 * A corpus is a directory of trace files described by a `corpus.json`
 * manifest (schema "padc-trace-corpus-v1"). Each entry records the
 * profile name the trace registers under, the file it lives in
 * (relative to the corpus directory), where it came from, and enough
 * fingerprint (op count, byte size, whole-file checksum, line
 * footprint) to detect a stale or corrupted file before a run consumes
 * it. `padc trace capture|convert` upsert entries; `padc --corpus DIR`
 * loads a manifest and registers every entry as a trace-backed
 * workload profile.
 *
 * Manifest layout:
 *
 *     {
 *       "schema": "padc-trace-corpus-v1",
 *       "traces": [
 *         {
 *           "name": "libquantum_06.c0",
 *           "file": "libquantum_06.c0.trc",
 *           "source": "capture:libquantum_06",
 *           "format": "padctrc2",
 *           "ops": 2000000,
 *           "bytes": 1048576,
 *           "checksum": "0x1234abcd5678ef90",
 *           "footprint_lines": 131072
 *         }
 *       ]
 *     }
 *
 * Checksums are hex strings, not JSON numbers: the parser stores
 * numbers as doubles, which cannot hold all 64 bits.
 */

#ifndef PADC_TRACE_CORPUS_HH
#define PADC_TRACE_CORPUS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace padc::trace
{

/** One manifest entry; see file comment for field meanings. */
struct CorpusEntry
{
    std::string name;   ///< workload profile name it registers under
    std::string file;   ///< trace file, relative to the corpus dir
    std::string source; ///< provenance ("capture:...", "import:csv:...")
    std::string format; ///< always "padctrc2"
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;        ///< whole-file payload FNV-1a
    std::uint64_t footprint_lines = 0; ///< distinct cache lines touched
};

/** A loaded manifest plus the directory it governs. */
struct Corpus
{
    std::string dir;
    std::vector<CorpusEntry> entries;
};

/** `<dir>/corpus.json`. */
std::string corpusManifestPath(const std::string &dir);

/** `<corpus.dir>/<entry.file>`. */
std::string corpusFilePath(const Corpus &corpus, const CorpusEntry &entry);

/**
 * Load `<dir>/corpus.json`.
 * @return false with a diagnostic when the manifest is missing,
 *         unparseable, has the wrong schema, or entries lack required
 *         fields or record a format other than "padctrc2".
 */
bool loadCorpus(const std::string &dir, Corpus *out,
                std::string *error = nullptr);

/**
 * Load `<dir>/corpus.json` if present, else an empty corpus for @p dir
 * (the state before the first capture). Parse errors still fail.
 */
bool loadOrInitCorpus(const std::string &dir, Corpus *out,
                      std::string *error = nullptr);

/** Write `<corpus.dir>/corpus.json` (atomic tmp + rename). */
bool saveCorpus(const Corpus &corpus, std::string *error = nullptr);

/** Find an entry by profile name; nullptr when absent. */
const CorpusEntry *findEntry(const Corpus &corpus, const std::string &name);

/** Insert @p entry, replacing any existing entry of the same name. */
void upsertEntry(Corpus *corpus, CorpusEntry entry);

/**
 * Build the manifest entry for an on-disk trace file by probing its
 * header and fully decoding it (checksum + footprint).
 * @param file path relative to @p dir.
 * @return false with a diagnostic when the file is unreadable/corrupt.
 */
bool makeEntry(const std::string &dir, const std::string &file,
               const std::string &name, const std::string &source,
               CorpusEntry *out, std::string *error = nullptr);

/**
 * Re-verify every entry against its file: decodes each trace and
 * compares op count, byte size, and checksum against the manifest.
 * Checks all entries before returning; diagnostics accumulate into
 * @p error one per line.
 */
bool verifyCorpus(const Corpus &corpus, std::string *error = nullptr);

/**
 * Register every entry as a trace-backed workload profile (streaming
 * replay factory). Skips names that are already registered with the
 * same file; fails on conflicts or unknown files.
 */
bool registerCorpus(const Corpus &corpus, std::string *error = nullptr);

} // namespace padc::trace

#endif // PADC_TRACE_CORPUS_HH
