#include "sim/journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "common/fields.hh"
#include "common/parse.hh"
#include "exp/json.hh"

namespace padc::sim
{

namespace
{

// --- hashing ----------------------------------------------------------

/** FNV-1a over typed fields; the canonical sweep-point fingerprint. */
class Fnv
{
  public:
    void
    byte(unsigned char b)
    {
        hash_ ^= b;
        hash_ *= 0x100000001b3ULL;
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>(v >> (8 * i)));
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
        for (const char c : s)
            byte(static_cast<unsigned char>(c));
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
{
    // Load whatever a previous (possibly killed) run managed to append.
    bool torn_tail = false; // file ends without '\n' (killed mid-write)
    if (std::FILE *in = std::fopen(path.c_str(), "rb")) {
        std::string line;
        int c = 0;
        bool complete = false;
        auto consume = [&] {
            // A line missing its terminating '\n' is an append the
            // previous process died inside; drop it.
            if (!complete || line.empty())
                return;
            std::istringstream tokens(line);
            std::string tag, kind, key_hex;
            if (!(tokens >> tag >> kind >> key_hex) || tag != kLineTag ||
                kind.size() != 1) {
                return;
            }
            char *end = nullptr;
            const std::uint64_t key =
                std::strtoull(key_hex.c_str(), &end, 16);
            if (end == key_hex.c_str() || *end != '\0')
                return;
            std::string body;
            std::getline(tokens >> std::ws, body);
            // Validate the payload now so a corrupt line surfaces as a
            // miss at load time, not a broken result mid-sweep.
            bool valid = false;
            if (kind[0] == 'e') {
                Result<MixEvaluation> probe;
                valid = decodeRecord(body, &probe, nullptr);
            } else if (kind[0] == 'r') {
                Result<RunMetrics> probe;
                valid = decodeRecord(body, &probe, nullptr);
            }
            if (!valid)
                return;
            entries_[{kind[0], key}] = body;
            ++loaded_;
        };
        while ((c = std::fgetc(in)) != EOF) {
            if (c == '\n') {
                complete = true;
                consume();
                line.clear();
                complete = false;
            } else {
                line.push_back(static_cast<char>(c));
            }
        }
        consume(); // trailing line without '\n': dropped by `complete`
        torn_tail = !line.empty();
        std::fclose(in);
    }

    // O_APPEND + one write(2) per record is what makes concurrent
    // writers (other threads, other processes) line-atomic.
    append_fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (append_fd_ < 0)
        throw std::runtime_error("SweepJournal: cannot open '" + path +
                                 "' for appending");

    // Terminate a torn tail now; otherwise the next record would merge
    // into the partial line and BOTH would be unparseable on reload.
    if (torn_tail) {
        const char nl = '\n';
        while (::write(append_fd_, &nl, 1) < 0 && errno == EINTR) {
        }
    }

    const char *fsync_env = std::getenv("PADC_JOURNAL_FSYNC");
    fsync_each_ = fsync_env != nullptr &&
                  (std::strcmp(fsync_env, "1") == 0 ||
                   std::strcmp(fsync_env, "always") == 0);
}

SweepJournal::~SweepJournal()
{
    if (append_fd_ >= 0)
        ::close(append_fd_);
}

std::size_t
SweepJournal::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

bool
SweepJournal::lookupLine(char kind, std::uint64_t key, std::string *line)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find({kind, key});
    if (it == entries_.end())
        return false;
    *line = it->second;
    ++hits_;
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
    std::string line = head;
    line += body;
    line += '\n';

    // The whole line in one write(2): with O_APPEND this is atomic with
    // respect to other writers of the same file, and a kill mid-write
    // can only tear THIS line (which the loader then drops).
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n =
            ::write(append_fd_, line.data() + off, line.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return; // journal is best-effort; the sweep must go on
        }
        off += static_cast<std::size_t>(n);
    }
    if (fsync_each_)
        ::fsync(append_fd_);
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
