#include "obs/status.hh"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hh"
#include "exp/json.hh"

namespace padc::obs
{

std::uint64_t
steadyNowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

RateEstimator::RateEstimator(std::size_t window)
    : window_(window == 0 ? 1 : window)
{
}

void
RateEstimator::notePoint(std::uint64_t now_ms)
{
    ++noted_;
    times_.push_back(now_ms);
    while (times_.size() > window_)
        times_.pop_front();
}

double
RateEstimator::ratePerSec(std::uint64_t now_ms) const
{
    if (times_.size() < 2)
        return 0.0;
    const std::uint64_t span_ms =
        now_ms > times_.front() ? now_ms - times_.front() : 1;
    return static_cast<double>(times_.size()) * 1000.0 /
           static_cast<double>(span_ms == 0 ? 1 : span_ms);
}

double
RateEstimator::etaSeconds(std::uint64_t now_ms,
                          std::uint64_t remaining) const
{
    const double rate = ratePerSec(now_ms);
    if (rate <= 0.0)
        return -1.0;
    return static_cast<double>(remaining) / rate;
}

std::string
formatStatus(const SweepStatus &status)
{
    exp::JsonWriter writer;
    writer.beginObject();
    writer.member("schema", kStatusSchema);
    writer.member("state", status.state);
    writer.member("experiment", status.experiment);
    writer.member("total", status.total);
    writer.member("done", status.done);
    writer.member("executed", status.executed);
    writer.member("replayed", status.replayed);
    writer.member("failed", status.failed);
    writer.member("elapsed_seconds", status.elapsed_seconds);
    writer.member("rate_per_sec", status.rate_per_sec);
    writer.member("eta_seconds", status.eta_seconds);
    writer.endObject();
    return writer.str();
}

bool
writeStatusFile(const std::string &path, const SweepStatus &status,
                std::string *error)
{
    const std::string doc = formatStatus(status) + "\n";
    AtomicFile file(path);
    if (!file.ok() || !file.write(doc.data(), doc.size()) ||
        !file.commit()) {
        if (error != nullptr)
            *error = file.error();
        return false;
    }
    return true;
}

bool
loadStatusFile(const std::string &path, SweepStatus *out,
               std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr)
            *error = "cannot read '" + path + "'";
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();

    exp::JsonValue parsed;
    std::string parse_error;
    if (!exp::parseJson(text.str(), &parsed, &parse_error)) {
        if (error != nullptr)
            *error = "'" + path + "': " + parse_error;
        return false;
    }
    const exp::JsonValue *schema = parsed.find("schema");
    if (schema == nullptr || !schema->isString() ||
        schema->string != kStatusSchema) {
        if (error != nullptr)
            *error = "'" + path + "' is not a " +
                     std::string(kStatusSchema) + " document";
        return false;
    }

    SweepStatus status;
    auto str = [&parsed](const char *key, std::string *dst) {
        if (const exp::JsonValue *v = parsed.find(key); v && v->isString())
            *dst = v->string;
    };
    auto u64 = [&parsed](const char *key, std::uint64_t *dst) {
        if (const exp::JsonValue *v = parsed.find(key); v && v->isNumber())
            *dst = static_cast<std::uint64_t>(v->number);
    };
    auto f64 = [&parsed](const char *key, double *dst) {
        if (const exp::JsonValue *v = parsed.find(key); v && v->isNumber())
            *dst = v->number;
    };
    str("state", &status.state);
    str("experiment", &status.experiment);
    u64("total", &status.total);
    u64("done", &status.done);
    u64("executed", &status.executed);
    u64("replayed", &status.replayed);
    u64("failed", &status.failed);
    f64("elapsed_seconds", &status.elapsed_seconds);
    f64("rate_per_sec", &status.rate_per_sec);
    f64("eta_seconds", &status.eta_seconds);
    *out = status;
    return true;
}

namespace
{

std::string
formatEta(double eta_seconds)
{
    if (eta_seconds < 0.0)
        return "--";
    char buf[32];
    if (eta_seconds >= 3600.0) {
        std::snprintf(buf, sizeof(buf), "%.1fh", eta_seconds / 3600.0);
    } else if (eta_seconds >= 60.0) {
        std::snprintf(buf, sizeof(buf), "%.1fm", eta_seconds / 60.0);
    } else {
        std::snprintf(buf, sizeof(buf), "%.1fs", eta_seconds);
    }
    return buf;
}

} // namespace

std::string
renderProgressLine(const SweepStatus &status)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "[padc] %s %llu/%llu done (%llu replayed) | %.2f pts/s ETA %s",
        status.experiment.empty() ? "sweep" : status.experiment.c_str(),
        static_cast<unsigned long long>(status.done),
        static_cast<unsigned long long>(status.total),
        static_cast<unsigned long long>(status.replayed),
        status.rate_per_sec, formatEta(status.eta_seconds).c_str());
    return buf;
}

std::string
renderStatusReport(const SweepStatus &status)
{
    std::ostringstream os;
    os << "sweep '"
       << (status.experiment.empty() ? "?" : status.experiment) << "': "
       << status.state << " -- " << status.done << "/" << status.total
       << " points";
    if (status.replayed > 0)
        os << " (" << status.replayed << " replayed)";
    os << "\n";
    os << "  executed " << status.executed << ", failed " << status.failed
       << "\n";
    char line[128];
    std::snprintf(line, sizeof(line),
                  "  rate %.2f pts/s, ETA %s, elapsed %.1fs\n",
                  status.rate_per_sec,
                  formatEta(status.eta_seconds).c_str(),
                  status.elapsed_seconds);
    os << line;
    return os.str();
}

} // namespace padc::obs
