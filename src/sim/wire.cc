#include "sim/wire.hh"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>

#include "common/fields.hh"
#include "common/parse.hh"

namespace padc::sim::wire
{

namespace
{

// --- low-level pipe I/O -----------------------------------------------

bool
writeAll(int fd, const char *data, std::size_t size)
{
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n = ::write(fd, data + off, size - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
readAll(int fd, char *data, std::size_t size)
{
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n = ::read(fd, data + off, size - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // EOF mid-frame
        off += static_cast<std::size_t>(n);
    }
    return true;
}

// --- table-driven JSON codec -------------------------------------------

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
 * and enums decimal strings (see the file comment of wire.hh).
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

/** get() of the member @p key of @p object. */
template <typename T>
bool
getMember(const exp::JsonValue &object, const char *key, T *out,
          std::string *error)
{
    return get(object.find(key), key, out, error);
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

constexpr char kHelloTag[] = "padc-worker-hello-v1";
constexpr char kTaskTag[] = "padc-worker-task-v1";
constexpr char kResultTag[] = "padc-worker-result-v1";

const char *
kindName(WireTask::Kind kind)
{
    return kind == WireTask::Kind::Eval ? "eval" : "run";
}

} // namespace

// --- frame I/O --------------------------------------------------------

bool
writeFrame(int fd, const std::string &payload)
{
    if (payload.size() > kMaxFramePayload)
        return false;
    const auto size = static_cast<std::uint32_t>(payload.size());
    std::string frame;
    frame.reserve(4 + payload.size());
    for (int i = 0; i < 4; ++i)
        frame.push_back(static_cast<char>((size >> (8 * i)) & 0xff));
    frame += payload;
    return writeAll(fd, frame.data(), frame.size());
}

bool
readFrame(int fd, std::string *payload)
{
    unsigned char header[4];
    if (!readAll(fd, reinterpret_cast<char *>(header), sizeof(header)))
        return false;
    const std::uint32_t size =
        static_cast<std::uint32_t>(header[0]) |
        (static_cast<std::uint32_t>(header[1]) << 8) |
        (static_cast<std::uint32_t>(header[2]) << 16) |
        (static_cast<std::uint32_t>(header[3]) << 24);
    if (size > kMaxFramePayload)
        return false;
    payload->assign(size, '\0');
    return size == 0 || readAll(fd, payload->data(), size);
}

void
FrameBuffer::feed(const char *data, std::size_t n)
{
    pending_.append(data, n);
}

bool
FrameBuffer::next(std::string *payload)
{
    if (corrupt_ || pending_.size() < 4)
        return false;
    const auto b = [&](std::size_t i) {
        return static_cast<std::uint32_t>(
            static_cast<unsigned char>(pending_[i]));
    };
    const std::uint32_t size =
        b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
    if (size > kMaxFramePayload) {
        corrupt_ = true;
        return false;
    }
    if (pending_.size() < 4 + static_cast<std::size_t>(size))
        return false;
    *payload = pending_.substr(4, size);
    pending_.erase(0, 4 + static_cast<std::size_t>(size));
    return true;
}

// --- payloads ---------------------------------------------------------

void
encodePoint(exp::JsonWriter &writer, const std::string &key,
            const SweepPoint &point)
{
    put(writer, key.c_str(), point);
}

bool
decodePoint(const exp::JsonValue &value, SweepPoint *out,
            std::string *error)
{
    return get(&value, "", out, error);
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

std::string
encodeHello()
{
    exp::JsonWriter writer;
    writer.beginObject();
    writer.member("padc", kHelloTag);
    writer.endObject();
    return writer.str();
}

std::string
encodeTask(const WireTask &task)
{
    exp::JsonWriter writer;
    writer.beginObject();
    writer.member("padc", kTaskTag);
    writer.member("kind", kindName(task.kind));
    put(writer, "index", task.index);
    put(writer, "attempt", task.attempt);
    put(writer, "point", task.point);
    if (task.kind == WireTask::Kind::Eval) {
        put(writer, "alone_config", task.alone_base);
        put(writer, "alone_options", task.alone_options);
    }
    writer.endObject();
    return writer.str();
}

std::string
encodeResult(const WireResult &result)
{
    exp::JsonWriter writer;
    writer.beginObject();
    writer.member("padc", kResultTag);
    writer.member("kind", kindName(result.kind));
    put(writer, "index", result.index);
    if (result.kind == WireTask::Kind::Eval)
        put(writer, "result", result.eval);
    else
        put(writer, "result", result.run);
    put(writer, "worker", result.worker);
    writer.endObject();
    return writer.str();
}

namespace
{

bool
decodeKind(const exp::JsonValue &root, WireTask::Kind *kind,
           std::string *error)
{
    std::string text;
    if (!getMember(root, "kind", &text, error))
        return false;
    if (text == "run")
        *kind = WireTask::Kind::Run;
    else if (text == "eval")
        *kind = WireTask::Kind::Eval;
    else
        return fail(error, "unknown task kind '" + text + "'");
    return true;
}

bool
parseTagged(const std::string &payload, const char *expected_tag,
            exp::JsonValue *root, std::string *error)
{
    if (!exp::parseJson(payload, root, error))
        return false;
    std::string tag;
    if (!getMember(*root, "padc", &tag, error))
        return false;
    if (tag != expected_tag)
        return fail(error, "unexpected payload tag '" + tag + "'");
    return true;
}

} // namespace

bool
decodeTask(const std::string &payload, WireTask *out, std::string *error)
{
    exp::JsonValue root;
    if (!parseTagged(payload, kTaskTag, &root, error) ||
        !decodeKind(root, &out->kind, error) ||
        !getMember(root, "index", &out->index, error) ||
        !getMember(root, "attempt", &out->attempt, error) ||
        !getMember(root, "point", &out->point, error)) {
        return false;
    }
    return out->kind != WireTask::Kind::Eval ||
           (getMember(root, "alone_config", &out->alone_base, error) &&
            getMember(root, "alone_options", &out->alone_options, error));
}

bool
decodeResult(const std::string &payload, WireResult *out,
             std::string *error)
{
    exp::JsonValue root;
    if (!exp::parseJson(payload, &root, error))
        return false;
    std::string tag;
    if (!getMember(root, "padc", &tag, error))
        return false;
    if (tag == kHelloTag) {
        out->hello = true;
        return true;
    }
    if (tag != kResultTag)
        return fail(error, "unexpected payload tag '" + tag + "'");
    out->hello = false;
    if (!decodeKind(root, &out->kind, error) ||
        !getMember(root, "index", &out->index, error) ||
        !getMember(root, "worker", &out->worker, error))
        return false;
    if (out->kind == WireTask::Kind::Eval)
        return getResult(root.find("result"), "result", &out->eval, error);
    return getResult(root.find("result"), "result", &out->run, error);
}

// --- fault injection --------------------------------------------------

FaultSpec
parseFaultSpec(const char *text)
{
    FaultSpec spec;
    if (text == nullptr || *text == '\0')
        return spec;

    const auto warn = [&] {
        std::fprintf(stderr,
                     "padc: warning: invalid PADC_FAULT_INJECT=\"%s\" "
                     "(want crash:<every>, hang:<every>, "
                     "exit:<code>:<every>, or poison:<index>); faults "
                     "disabled\n",
                     text);
        return FaultSpec{};
    };

    const std::string value = text;
    const std::size_t colon = value.find(':');
    if (colon == std::string::npos)
        return warn();
    const std::string mode = value.substr(0, colon);
    const std::string rest = value.substr(colon + 1);

    std::uint64_t number = 0;
    if (mode == "crash" || mode == "hang") {
        if (!parseU64(rest.c_str(), &number) || number == 0)
            return warn();
        spec.mode = mode == "crash" ? FaultSpec::Mode::Crash
                                    : FaultSpec::Mode::Hang;
        spec.every = number;
        return spec;
    }
    if (mode == "poison") {
        if (!parseU64(rest.c_str(), &number))
            return warn();
        spec.mode = FaultSpec::Mode::Poison;
        spec.poison_index = number;
        return spec;
    }
    if (mode == "exit") {
        const std::size_t second = rest.find(':');
        if (second == std::string::npos)
            return warn();
        std::uint64_t code = 0;
        if (!parseU64(rest.substr(0, second).c_str(), &code) ||
            code > 255 ||
            !parseU64(rest.substr(second + 1).c_str(), &number) ||
            number == 0) {
            return warn();
        }
        spec.mode = FaultSpec::Mode::Exit;
        spec.exit_code = static_cast<int>(code);
        spec.every = number;
        return spec;
    }
    return warn();
}

FaultSpec
envFaultSpec()
{
    return parseFaultSpec(std::getenv("PADC_FAULT_INJECT"));
}

bool
faultFires(const FaultSpec &spec, std::uint64_t index,
           std::uint32_t attempt)
{
    switch (spec.mode) {
      case FaultSpec::Mode::None:
        return false;
      case FaultSpec::Mode::Crash:
      case FaultSpec::Mode::Hang:
      case FaultSpec::Mode::Exit:
        // Attempt 0 only: the retry always succeeds, keeping the merged
        // sweep bit-identical to a fault-free run.
        return attempt == 0 && (index + 1) % spec.every == 0;
      case FaultSpec::Mode::Poison:
        // Every attempt: this is the schedule that exercises quarantine.
        return index == spec.poison_index;
    }
    return false;
}

} // namespace padc::sim::wire
