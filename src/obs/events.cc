#include "obs/events.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "exp/json.hh"

namespace padc::obs
{

std::string
formatEvent(const Event &event)
{
    // Hand-rolled single-line object: JsonWriter pretty-prints across
    // lines, and JSONL needs exactly one line per record.
    std::string out = "{\"padc\":";
    out += exp::jsonQuote(kEventSchema);
    out += ",\"ev\":";
    out += exp::jsonQuote(event.type);
    out += ",\"t_ms\":";
    out += std::to_string(event.t_ms);
    out += ",\"point\":";
    out += std::to_string(event.point);
    out += ",\"attempt\":";
    out += std::to_string(event.attempt);
    out += ",\"detail\":";
    out += exp::jsonQuote(event.detail);
    out += "}";
    return out;
}

EventLog::EventLog(const std::string &path)
{
    // Detect a torn trailing line left by a previous killed process:
    // a non-empty file whose last byte is not '\n'.
    bool torn_tail = false;
    if (std::FILE *in = std::fopen(path.c_str(), "rb")) {
        int c = 0;
        int last = '\n';
        while ((c = std::fgetc(in)) != EOF)
            last = c;
        torn_tail = last != '\n';
        std::fclose(in);
    }

    // O_APPEND + one write(2) per record keeps concurrent writers
    // line-atomic (same contract as the sweep journal).
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
        error_ = "EventLog: cannot open '" + path +
                 "' for appending: " + std::strerror(errno);
        return;
    }

    // Terminate the torn tail now; otherwise the next record would
    // merge into the partial line and BOTH would be lost on load.
    if (torn_tail) {
        const char nl = '\n';
        while (::write(fd_, &nl, 1) < 0 && errno == EINTR) {
        }
    }
}

EventLog::~EventLog()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
EventLog::record(const Event &event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0)
        return false;
    std::string line = formatEvent(event);
    line += '\n';
    // The whole line in one write(2): atomic w.r.t. other O_APPEND
    // writers, and a kill mid-write can only tear THIS line.
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n = ::write(fd_, line.data() + off,
                                  line.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false; // best-effort; observation must not kill the run
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
EventLog::load(const std::string &path, std::vector<Event> *out,
               std::string *error)
{
    out->clear();
    std::FILE *in = std::fopen(path.c_str(), "rb");
    if (in == nullptr) {
        if (error != nullptr)
            *error = "EventLog: cannot read '" + path +
                     "': " + std::strerror(errno);
        return false;
    }
    std::string line;
    int c = 0;
    bool complete = false;
    auto consume = [&] {
        // Torn (unterminated) or malformed lines are skipped, exactly
        // like journal replay drops them.
        if (!complete || line.empty())
            return;
        exp::JsonValue parsed;
        if (!exp::parseJson(line, &parsed, nullptr) || !parsed.isObject())
            return;
        const exp::JsonValue *tag = parsed.find("padc");
        if (tag == nullptr || !tag->isString() ||
            tag->string != kEventSchema) {
            return;
        }
        Event event;
        if (const exp::JsonValue *v = parsed.find("ev"))
            event.type = v->string;
        if (const exp::JsonValue *v = parsed.find("t_ms"))
            event.t_ms = static_cast<std::uint64_t>(v->number);
        if (const exp::JsonValue *v = parsed.find("point"))
            event.point = static_cast<std::int64_t>(v->number);
        if (const exp::JsonValue *v = parsed.find("attempt"))
            event.attempt = static_cast<std::uint64_t>(v->number);
        if (const exp::JsonValue *v = parsed.find("detail"))
            event.detail = v->string;
        out->push_back(std::move(event));
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
    std::fclose(in);
    return true;
}

} // namespace padc::obs
