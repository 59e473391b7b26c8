/**
 * @file
 * Minimal JSON support for the experiment layer.
 *
 * The writer produces the machine-readable `BENCH_<name>.json` result
 * files; the parser decodes the sweep journal's records and lets the
 * test suite validate emitted files against the checked-in schema
 * snapshot without an external dependency. Doubles are written with the shortest decimal form that
 * round-trips bit-exactly, so a parse of our own output reproduces
 * every metric.
 */

#ifndef PADC_EXP_JSON_HH
#define PADC_EXP_JSON_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace padc::exp
{

/** Serialize @p text as a JSON string literal, quotes included. */
std::string jsonQuote(const std::string &text);

/**
 * Serialize a finite double as the shortest decimal that parses back
 * to the same bits; non-finite values serialize as null (JSON has no
 * NaN/Inf).
 */
std::string jsonNumber(double value);

/**
 * Incremental writer for the subset of JSON the result files use:
 * nested objects and arrays, string/number/bool members. Produces
 * 2-space-indented output (or, for line-oriented files such as the
 * sweep journal, the same document on one line) with deterministic
 * member order (insertion order -- the caller controls it).
 */
class JsonWriter
{
  public:
    enum class Layout
    {
        Pretty,  ///< one member per line, 2-space indent
        OneLine, ///< no line breaks (string escapes keep it one line)
    };

    explicit JsonWriter(Layout layout = Layout::Pretty);

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    void beginObject();            ///< anonymous (root or array element)
    void beginObject(const std::string &key);
    void endObject();

    void beginArray(const std::string &key);
    void endArray();

    void member(const std::string &key, const std::string &value);
    void member(const std::string &key, const char *value);
    void member(const std::string &key, double value);
    void member(const std::string &key, std::uint64_t value);
    void member(const std::string &key, bool value);

    /** String element of the innermost array. */
    void element(const std::string &value);

    /** Number element of the innermost array (shortest round-trip). */
    void element(double value);

    /** The document; valid once every begin* has been closed. */
    const std::string &str() const { return out_; }

  private:
    void indent();
    void comma();

    Layout layout_;
    std::string out_;
    std::vector<bool> first_in_scope_; ///< per nesting level
};

/**
 * Parsed JSON value (recursive). Object member order is not preserved
 * (std::map) -- the parser exists for validation, not round-tripping.
 */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;
};

/**
 * Parse a complete JSON document.
 * @return true and fill @p out on success; false with a position +
 *         message in @p error on malformed input.
 */
bool parseJson(const std::string &text, JsonValue *out,
               std::string *error = nullptr);

} // namespace padc::exp

#endif // PADC_EXP_JSON_HH
