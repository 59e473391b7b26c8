#include "trace/corpus.hh"

#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>

#include "common/atomic_file.hh"
#include "exp/json.hh"
#include "trace/format.hh"
#include "trace/stream.hh"
#include "workload/trace_profile.hh"

namespace padc::trace
{

namespace
{

bool
fail(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

std::string
toHex64(std::uint64_t value)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

bool
parseHex64(const std::string &text, std::uint64_t *out)
{
    if (text.size() < 3 || text[0] != '0' ||
        (text[1] != 'x' && text[1] != 'X')) {
        return false;
    }
    std::uint64_t value = 0;
    for (std::size_t i = 2; i < text.size(); ++i) {
        const char c = text[i];
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F')
            digit = c - 'A' + 10;
        else
            return false;
        if (i - 2 >= 16)
            return false;
        value = (value << 4) | static_cast<std::uint64_t>(digit);
    }
    *out = value;
    return true;
}

/** Read a whole file into @p out; false when unreadable. */
bool
slurp(const std::string &path, std::string *out)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        return false;
    out->clear();
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0)
        out->append(buf, got);
    std::fclose(file);
    return true;
}

bool
fileExists(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        return false;
    std::fclose(file);
    return true;
}

const char *kSchema = "padc-trace-corpus-v1";

/** The one trace format a manifest entry may record. */
const char *kFormat = "padctrc2";

/** Pull one string member; false + diagnostic when absent/mistyped. */
bool
getString(const exp::JsonValue &object, const std::string &key,
          std::string *out, std::string *error)
{
    const exp::JsonValue *value = object.find(key);
    if (value == nullptr || !value->isString())
        return fail(error, "entry missing string field '" + key + "'");
    *out = value->string;
    return true;
}

bool
getCount(const exp::JsonValue &object, const std::string &key,
         std::uint64_t *out, std::string *error)
{
    const exp::JsonValue *value = object.find(key);
    if (value == nullptr || !value->isNumber() || value->number < 0)
        return fail(error, "entry missing count field '" + key + "'");
    *out = static_cast<std::uint64_t>(value->number);
    return true;
}

/**
 * Corpus entries registered as workload profiles so far, name -> file
 * path. registerTraceProfile() itself has no notion of provenance; this
 * side table makes re-registering the same corpus idempotent while
 * catching two different files claiming one name.
 */
std::mutex registered_mutex;
std::map<std::string, std::string> &
registeredFiles()
{
    static std::map<std::string, std::string> files;
    return files;
}

} // namespace

std::string
corpusManifestPath(const std::string &dir)
{
    return dir + "/corpus.json";
}

std::string
corpusFilePath(const Corpus &corpus, const CorpusEntry &entry)
{
    return corpus.dir + "/" + entry.file;
}

bool
loadCorpus(const std::string &dir, Corpus *out, std::string *error)
{
    const std::string path = corpusManifestPath(dir);
    std::string text;
    if (!slurp(path, &text))
        return fail(error, "cannot open corpus manifest: " + path);

    exp::JsonValue root;
    std::string parse_error;
    if (!exp::parseJson(text, &root, &parse_error))
        return fail(error, path + ": " + parse_error);
    if (!root.isObject())
        return fail(error, path + ": manifest is not a JSON object");

    const exp::JsonValue *schema = root.find("schema");
    if (schema == nullptr || !schema->isString() ||
        schema->string != kSchema) {
        return fail(error, path + ": missing or unsupported schema (want " +
                               std::string(kSchema) + ")");
    }

    const exp::JsonValue *traces = root.find("traces");
    if (traces == nullptr || !traces->isArray())
        return fail(error, path + ": missing 'traces' array");

    Corpus corpus;
    corpus.dir = dir;
    for (std::size_t i = 0; i < traces->array.size(); ++i) {
        const exp::JsonValue &item = traces->array[i];
        std::string entry_error;
        CorpusEntry entry;
        std::string checksum_text;
        if (!item.isObject() ||
            !getString(item, "name", &entry.name, &entry_error) ||
            !getString(item, "file", &entry.file, &entry_error) ||
            !getString(item, "source", &entry.source, &entry_error) ||
            !getString(item, "format", &entry.format, &entry_error) ||
            !getCount(item, "ops", &entry.ops, &entry_error) ||
            !getCount(item, "bytes", &entry.bytes, &entry_error) ||
            !getString(item, "checksum", &checksum_text, &entry_error) ||
            !getCount(item, "footprint_lines", &entry.footprint_lines,
                      &entry_error)) {
            if (entry_error.empty())
                entry_error = "entry is not an object";
            return fail(error, path + ": traces[" + std::to_string(i) +
                                   "]: " + entry_error);
        }
        if (entry.format != kFormat) {
            return fail(error,
                        path + ": traces[" + std::to_string(i) +
                            "]: unsupported format '" + entry.format +
                            "' (want " + kFormat + ")" +
                            (entry.format == "padctrc1"
                                 ? "; PADCTRC1 is no longer supported"
                                 : ""));
        }
        if (!parseHex64(checksum_text, &entry.checksum)) {
            return fail(error, path + ": traces[" + std::to_string(i) +
                                   "]: bad checksum '" + checksum_text +
                                   "' (want 0x-prefixed hex)");
        }
        corpus.entries.push_back(std::move(entry));
    }
    *out = std::move(corpus);
    return true;
}

bool
loadOrInitCorpus(const std::string &dir, Corpus *out, std::string *error)
{
    if (!fileExists(corpusManifestPath(dir))) {
        out->dir = dir;
        out->entries.clear();
        return true;
    }
    return loadCorpus(dir, out, error);
}

bool
saveCorpus(const Corpus &corpus, std::string *error)
{
    exp::JsonWriter json;
    json.beginObject();
    json.member("schema", kSchema);
    json.beginArray("traces");
    for (const CorpusEntry &entry : corpus.entries) {
        json.beginObject();
        json.member("name", entry.name);
        json.member("file", entry.file);
        json.member("source", entry.source);
        json.member("format", entry.format);
        json.member("ops", entry.ops);
        json.member("bytes", entry.bytes);
        json.member("checksum", toHex64(entry.checksum));
        json.member("footprint_lines", entry.footprint_lines);
        json.endObject();
    }
    json.endArray();
    json.endObject();

    AtomicFile file(corpusManifestPath(corpus.dir));
    if (!file.ok())
        return fail(error, file.error());
    const std::string &text = json.str();
    if (!file.write(text.data(), text.size()) || !file.write("\n", 1) ||
        !file.commit()) {
        return fail(error, file.error());
    }
    return true;
}

const CorpusEntry *
findEntry(const Corpus &corpus, const std::string &name)
{
    for (const CorpusEntry &entry : corpus.entries) {
        if (entry.name == name)
            return &entry;
    }
    return nullptr;
}

void
upsertEntry(Corpus *corpus, CorpusEntry entry)
{
    for (CorpusEntry &existing : corpus->entries) {
        if (existing.name == entry.name) {
            existing = std::move(entry);
            return;
        }
    }
    corpus->entries.push_back(std::move(entry));
}

bool
makeEntry(const std::string &dir, const std::string &file,
          const std::string &name, const std::string &source,
          CorpusEntry *out, std::string *error)
{
    TraceFileInfo info;
    if (!verifyTraceFile(dir + "/" + file, &info, error))
        return false;
    out->name = name;
    out->file = file;
    out->source = source;
    out->format = kFormat;
    out->ops = info.op_count;
    out->bytes = info.file_bytes;
    out->checksum = info.checksum;
    out->footprint_lines = info.distinct_lines;
    return true;
}

bool
verifyCorpus(const Corpus &corpus, std::string *error)
{
    std::string problems;
    for (const CorpusEntry &entry : corpus.entries) {
        const std::string path = corpusFilePath(corpus, entry);
        TraceFileInfo info;
        std::string file_error;
        if (!verifyTraceFile(path, &info, &file_error)) {
            problems += entry.name + ": " + file_error + "\n";
            continue;
        }
        if (info.op_count != entry.ops) {
            problems += entry.name + ": manifest records " +
                        std::to_string(entry.ops) + " ops but " + path +
                        " holds " + std::to_string(info.op_count) + "\n";
        }
        if (info.file_bytes != entry.bytes) {
            problems += entry.name + ": manifest records " +
                        std::to_string(entry.bytes) + " bytes but " +
                        path + " is " + std::to_string(info.file_bytes) +
                        "\n";
        }
        if (info.checksum != entry.checksum) {
            problems += entry.name + ": checksum mismatch (manifest " +
                        toHex64(entry.checksum) + ", file " +
                        toHex64(info.checksum) + ")\n";
        }
    }
    if (problems.empty())
        return true;
    // Drop the trailing newline.
    problems.pop_back();
    return fail(error, problems);
}

bool
registerCorpus(const Corpus &corpus, std::string *error)
{
    for (const CorpusEntry &entry : corpus.entries) {
        const std::string path = corpusFilePath(corpus, entry);
        {
            std::lock_guard<std::mutex> lock(registered_mutex);
            auto it = registeredFiles().find(entry.name);
            if (it != registeredFiles().end() &&
                !workload::isTraceProfile(entry.name)) {
                // The workload registry was cleared (tests) since this
                // name was recorded; the side table entry is stale.
                registeredFiles().erase(it);
                it = registeredFiles().end();
            }
            if (it != registeredFiles().end()) {
                if (it->second == path)
                    continue; // same corpus loaded twice: idempotent
                return fail(error, "trace profile '" + entry.name +
                                       "' already registered from " +
                                       it->second);
            }
        }
        // Fail now, not at first use inside a worker thread, when the
        // file is missing or unreadable.
        TraceFileInfo info;
        if (!probeTraceFile(path, &info, error))
            return false;
        try {
            workload::registerTraceProfile(entry.name, [path]() {
                return std::make_unique<StreamingFileTrace>(path);
            });
        } catch (const std::logic_error &e) {
            return fail(error, e.what());
        }
        std::lock_guard<std::mutex> lock(registered_mutex);
        registeredFiles()[entry.name] = path;
    }
    return true;
}

} // namespace padc::trace
