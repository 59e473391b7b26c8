#include "sim/journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "common/fields.hh"
#include "common/fnv.hh"
#include "common/parse.hh"
#include "exp/json.hh"

namespace padc::sim
{

namespace
{

// --- hashing ----------------------------------------------------------

/**
 * FNV-1a over typed fields, from the canonical offset basis; the
 * sweep-point fingerprint.
 */
class Fnv
{
  public:
    void
    u64(std::uint64_t v)
    {
        unsigned char bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<unsigned char>(v >> (8 * i));
        hash_ = fnv1a(bytes, sizeof(bytes), hash_);
    }

    void
    d(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        hash_ = fnv1a(s.data(), s.size(), hash_);
    }

    std::uint64_t
    digest() const
    {
        return hash_;
    }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/**
 * Fold @p value into @p h by its field table: bools, enums and
 * integers as u64, doubles as their bits, strings as length + bytes,
 * arrays element by element, vectors as length + elements.
 */
template <typename T>
void
hashValue(Fnv &h, const T &value)
{
    if constexpr (fields::Tabled<T>) {
        forEachField(value, [&h](const char *, const auto &member) {
            hashValue(h, member);
        });
    } else if constexpr (std::is_same_v<T, double>) {
        h.d(value);
    } else if constexpr (std::is_same_v<T, std::string>) {
        h.str(value);
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
        h.u64(static_cast<std::uint64_t>(value));
    } else {
        if constexpr (fields::kIsVector<T>)
            h.u64(value.size());
        for (const auto &element : value)
            hashValue(h, element);
    }
}

// --- record codec -----------------------------------------------------

bool
fail(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

/**
 * Write @p value as member @p key of the open object, or as the next
 * element of the open array when @p key is null. Tabled structs become
 * objects, vectors and arrays become arrays (of members only), u64s
 * and enums decimal strings (see the file comment of journal.hh).
 */
template <typename T>
void
put(exp::JsonWriter &w, const char *key, const T &value)
{
    if constexpr (fields::Tabled<T>) {
        if (key != nullptr)
            w.beginObject(key);
        else
            w.beginObject();
        forEachField(value, [&w](const char *name, const auto &member) {
            put(w, name, member);
        });
        w.endObject();
    } else if constexpr (fields::kIsVector<T> || fields::kIsArray<T>) {
        w.beginArray(key);
        for (const auto &element : value)
            put(w, nullptr, element);
        w.endArray();
    } else if constexpr (std::is_same_v<T, bool>) {
        w.member(key, value);
    } else if constexpr (std::is_same_v<T, double> ||
                         std::is_same_v<T, std::string>) {
        if (key != nullptr)
            w.member(key, value);
        else
            w.element(value);
    } else {
        static_assert(std::is_unsigned_v<T> || std::is_enum_v<T>);
        const std::string text =
            std::to_string(static_cast<std::uint64_t>(value));
        if (key != nullptr)
            w.member(key, text);
        else
            w.element(text);
    }
}

/**
 * Read what put() wrote for @p value (the JSON at dotted @p path) into
 * @p out. A missing or mistyped value, or a vector longer than
 * kMaxCores, fails naming @p path.
 */
template <typename T>
bool
get(const exp::JsonValue *value, const std::string &path, T *out,
    std::string *error)
{
    const auto bad = [&] {
        return fail(error, "missing or mistyped member '" + path + "'");
    };
    if (value == nullptr)
        return bad();
    if constexpr (fields::Tabled<T>) {
        if (!value->isObject())
            return bad();
        bool ok = true;
        forEachField(*out, [&](const char *name, auto &member) {
            ok = ok && get(value->find(name),
                           path.empty() ? name : path + "." + name,
                           &member, error);
        });
        return ok;
    } else if constexpr (fields::kIsVector<T> || fields::kIsArray<T>) {
        if (!value->isArray())
            return bad();
        const std::size_t n = value->array.size();
        if constexpr (fields::kIsVector<T>) {
            if (n > memctrl::kMaxCores)
                return fail(error, "member '" + path + "' has " +
                                       std::to_string(n) +
                                       " elements; the limit is " +
                                       std::to_string(memctrl::kMaxCores));
            out->clear();
            out->resize(n);
        } else if (n != out->size()) {
            return bad();
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (!get(&value->array[i], path + "[" + std::to_string(i) + "]",
                     &(*out)[i], error))
                return false;
        }
        return true;
    } else if constexpr (std::is_same_v<T, bool>) {
        if (value->kind != exp::JsonValue::Kind::Bool)
            return bad();
        *out = value->boolean;
    } else if constexpr (std::is_same_v<T, double>) {
        if (!value->isNumber())
            return bad();
        *out = value->number;
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (!value->isString())
            return bad();
        *out = value->string;
    } else {
        using Raw = typename std::conditional_t<std::is_enum_v<T>,
                                                std::underlying_type<T>,
                                                std::type_identity<T>>::type;
        std::uint64_t raw = 0;
        if (!value->isString() ||
            !parseU64(value->string.c_str(), &raw) ||
            raw > std::numeric_limits<Raw>::max())
            return bad();
        *out = static_cast<T>(raw);
    }
    return true;
}

/** get() of a sweep result, which must also carry a known status. */
template <typename T>
bool
getResult(const exp::JsonValue *value, const std::string &path,
          Result<T> *out, std::string *error)
{
    if (!get(value, path, out, error))
        return false;
    if (out->outcome.status > PointStatus::Failed)
        return fail(error, "unknown point status " +
                               std::to_string(static_cast<unsigned>(
                                   out->outcome.status)));
    return true;
}

/** Line tag of the current format; see the file comment of journal.hh. */
constexpr char kLineTag[] = "padcj3";

/** A line's kind: 'r' for runSweep results, 'e' for evaluateSweep. */
template <typename T>
constexpr char kKind = std::is_same_v<T, RunMetrics> ? 'r' : 'e';

// --- the file ---------------------------------------------------------

/** write(2) all of @p text to @p fd, retrying EINTR; false on an error. */
bool
writeAll(int fd, const std::string &text)
{
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** Whether @p path is non-empty and its last byte is not '\n'. */
bool
hasTornTail(const std::string &path)
{
    std::FILE *in = std::fopen(path.c_str(), "rb");
    if (in == nullptr)
        return false;
    const bool torn =
        std::fseek(in, -1, SEEK_END) == 0 && std::fgetc(in) != '\n';
    std::fclose(in);
    return torn;
}

/**
 * Open (creating if absent) @p path for appending and terminate a torn
 * last line, so the next record cannot merge into it.
 * @throws std::runtime_error naming the path when it cannot be opened.
 */
int
openForAppend(const std::string &path)
{
    const bool torn = hasTornTail(path);
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) {
        const int err = errno;
        throw std::runtime_error("SweepJournal: cannot open '" + path +
                                 "' for appending: " + std::strerror(err));
    }
    if (torn)
        writeAll(fd, "\n");
    return fd;
}

} // namespace

std::uint64_t
sweepPointKey(const SweepPoint &point)
{
    Fnv h;
    hashValue(h, point);
    return h.digest();
}

template <typename T>
std::string
encodeRecord(const Result<T> &result)
{
    exp::JsonWriter writer(exp::JsonWriter::Layout::OneLine);
    put(writer, nullptr, result);
    return writer.str();
}

template <typename T>
bool
decodeRecord(const std::string &text, Result<T> *out, std::string *error)
{
    exp::JsonValue root;
    return exp::parseJson(text, &root, error) &&
           getResult(&root, "", out, error);
}

template std::string encodeRecord(const Result<RunMetrics> &);
template std::string encodeRecord(const Result<MixEvaluation> &);
template bool decodeRecord(const std::string &, Result<RunMetrics> *,
                           std::string *);
template bool decodeRecord(const std::string &, Result<MixEvaluation> *,
                           std::string *);

SweepJournal::SweepJournal(const std::string &path)
    : loaded_(load(path, &entries_)), fd_(openForAppend(path))
{
    const char *fsync_env = std::getenv("PADC_JOURNAL_FSYNC");
    fsync_each_ = fsync_env != nullptr &&
                  (std::strcmp(fsync_env, "1") == 0 ||
                   std::strcmp(fsync_env, "always") == 0);
}

SweepJournal::~SweepJournal()
{
    ::close(fd_);
}

std::size_t
SweepJournal::load(const std::string &path,
                   std::map<EntryKey, std::string> *entries)
{
    // Whatever a previous (possibly killed) run managed to append; a
    // missing file loads nothing. This runs before fd_ opens, so a torn
    // tail is still unterminated here: getline() reaches the end of the
    // file reading it, and it is skipped.
    std::ifstream in(path, std::ios::binary);
    for (std::string line; std::getline(in, line) && !in.eof();) {
        std::istringstream tokens(line);
        std::string tag, kind, key_hex;
        if (!(tokens >> tag >> kind >> key_hex) || tag != kLineTag ||
            kind.size() != 1) {
            continue;
        }
        char *end = nullptr;
        const std::uint64_t key = std::strtoull(key_hex.c_str(), &end, 16);
        if (end == key_hex.c_str() || *end != '\0')
            continue;
        std::string body;
        std::getline(tokens >> std::ws, body);
        // Validate the payload now so a corrupt line surfaces as a miss
        // at load time, not a broken result mid-sweep.
        bool valid = false;
        if (kind[0] == 'e') {
            Result<MixEvaluation> probe;
            valid = decodeRecord(body, &probe, nullptr);
        } else if (kind[0] == 'r') {
            Result<RunMetrics> probe;
            valid = decodeRecord(body, &probe, nullptr);
        }
        if (valid)
            (*entries)[{kind[0], key}] = body;
    }
    // A point recorded twice (say by two processes sharing the file)
    // is one entry, not two.
    return entries->size();
}

bool
SweepJournal::lookupLine(char kind, std::uint64_t key, std::string *line)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find({kind, key});
    if (it == entries_.end())
        return false;
    *line = it->second;
    return true;
}

void
SweepJournal::recordLine(char kind, std::uint64_t key,
                         const std::string &body)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!entries_.emplace(EntryKey{kind, key}, body).second)
        return; // already recorded (e.g. duplicate point in one sweep)

    char head[32];
    std::snprintf(head, sizeof(head), "%s %c %llx ", kLineTag, kind,
                  static_cast<unsigned long long>(key));
    // Best-effort: a failed append must not stop the sweep. One write(2)
    // per record keeps concurrent writers' lines whole (journal.hh).
    if (writeAll(fd_, head + body + '\n') && fsync_each_)
        ::fsync(fd_);
}

template <typename T>
bool
SweepJournal::lookup(std::uint64_t key, Result<T> *out)
{
    std::string body;
    return lookupLine(kKind<T>, key, &body) &&
           decodeRecord(body, out, nullptr);
}

template <typename T>
void
SweepJournal::record(std::uint64_t key, const Result<T> &result)
{
    recordLine(kKind<T>, key, encodeRecord(result));
}

template bool SweepJournal::lookup(std::uint64_t, Result<RunMetrics> *);
template bool SweepJournal::lookup(std::uint64_t, Result<MixEvaluation> *);
template void SweepJournal::record(std::uint64_t, const Result<RunMetrics> &);
template void SweepJournal::record(std::uint64_t,
                                   const Result<MixEvaluation> &);

} // namespace padc::sim
