#include "obs/events.hh"

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

bool
EventLog::record(const Event &event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Best-effort: observation must not kill the run.
    return file_.append(formatEvent(event));
}

bool
EventLog::load(const std::string &path, std::vector<Event> *out,
               std::string *error)
{
    out->clear();
    // Malformed lines are skipped, exactly like journal replay drops
    // them; forEachLine already skips a torn tail.
    const auto visit = [out](const std::string &line) {
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
    if (!LineFile::forEachLine(path, visit, error)) {
        if (error != nullptr)
            error->insert(0, "EventLog: ");
        return false;
    }
    return true;
}

} // namespace padc::obs
