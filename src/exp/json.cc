#include "exp/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace padc::exp
{

std::string
jsonQuote(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    out += '"';
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    // Shortest of %.15g / %.16g / %.17g that round-trips exactly.
    for (const int precision : {15, 16, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
        if (std::strtod(buf, nullptr) == value)
            break;
    }
    // Bare exponents/integers are valid JSON already; "nan"/"inf" were
    // filtered above.
    return buf;
}

JsonWriter::JsonWriter(Layout layout) : layout_(layout)
{
    first_in_scope_.push_back(true);
}

void
JsonWriter::indent()
{
    if (layout_ == Layout::OneLine)
        return;
    out_ += '\n';
    out_.append(2 * (first_in_scope_.size() - 1), ' ');
}

void
JsonWriter::comma()
{
    if (!first_in_scope_.back())
        out_ += ',';
    first_in_scope_.back() = false;
    if (first_in_scope_.size() > 1)
        indent();
}

void
JsonWriter::beginObject()
{
    comma();
    out_ += '{';
    first_in_scope_.push_back(true);
}

void
JsonWriter::beginObject(const std::string &key)
{
    comma();
    out_ += jsonQuote(key) + ": {";
    first_in_scope_.push_back(true);
}

void
JsonWriter::endObject()
{
    const bool empty = first_in_scope_.back();
    first_in_scope_.pop_back();
    if (!empty)
        indent();
    out_ += '}';
}

void
JsonWriter::beginArray(const std::string &key)
{
    comma();
    out_ += jsonQuote(key) + ": [";
    first_in_scope_.push_back(true);
}

void
JsonWriter::endArray()
{
    const bool empty = first_in_scope_.back();
    first_in_scope_.pop_back();
    if (!empty)
        indent();
    out_ += ']';
}

void
JsonWriter::member(const std::string &key, const std::string &value)
{
    comma();
    out_ += jsonQuote(key) + ": " + jsonQuote(value);
}

void
JsonWriter::member(const std::string &key, const char *value)
{
    member(key, std::string(value));
}

void
JsonWriter::member(const std::string &key, double value)
{
    comma();
    out_ += jsonQuote(key) + ": " + jsonNumber(value);
}

void
JsonWriter::member(const std::string &key, std::uint64_t value)
{
    // 64-bit counters can exceed the 2^53 exact-double range; emit
    // them as decimal integers (valid JSON; parsers that read them as
    // doubles lose precision only beyond 2^53).
    comma();
    out_ += jsonQuote(key) + ": " + std::to_string(value);
}

void
JsonWriter::member(const std::string &key, bool value)
{
    comma();
    out_ += jsonQuote(key) + ": " + (value ? "true" : "false");
}

void
JsonWriter::element(const std::string &value)
{
    comma();
    out_ += jsonQuote(value);
}

void
JsonWriter::element(double value)
{
    comma();
    out_ += jsonNumber(value);
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

namespace
{

/** Recursive-descent parser over a NUL-free string. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    parseDocument(JsonValue *out)
    {
        skipSpace();
        if (!parseValue(out))
            return false;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const std::string &message)
    {
        if (error_ != nullptr && error_->empty()) {
            *error_ = "offset " + std::to_string(pos_) + ": " + message;
        }
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    parseValue(JsonValue *out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            out->kind = JsonValue::Kind::String;
            return parseString(&out->string);
        }
        if (literal("null")) {
            out->kind = JsonValue::Kind::Null;
            return true;
        }
        if (literal("true")) {
            out->kind = JsonValue::Kind::Bool;
            out->boolean = true;
            return true;
        }
        if (literal("false")) {
            out->kind = JsonValue::Kind::Bool;
            out->boolean = false;
            return true;
        }
        return parseNumber(out);
    }

    bool
    parseNumber(JsonValue *out)
    {
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        const double value = std::strtod(start, &end);
        if (end == start)
            return fail("expected a value");
        // strtod accepts inf/nan/hex, a leading '+', and leading zeros,
        // none of which JSON does; walk the slice with JSON's grammar.
        const char *p = start;
        if (*p == '-')
            ++p;
        if (*p == '0') {
            ++p;
        } else if (*p >= '1' && *p <= '9') {
            while (*p >= '0' && *p <= '9')
                ++p;
        } else {
            return fail("malformed number");
        }
        if (*p == '.') {
            ++p;
            if (*p < '0' || *p > '9')
                return fail("malformed number");
            while (*p >= '0' && *p <= '9')
                ++p;
        }
        if (*p == 'e' || *p == 'E') {
            ++p;
            if (*p == '+' || *p == '-')
                ++p;
            if (*p < '0' || *p > '9')
                return fail("malformed number");
            while (*p >= '0' && *p <= '9')
                ++p;
        }
        if (p != end)
            return fail("malformed number");
        pos_ += static_cast<std::size_t>(end - start);
        out->kind = JsonValue::Kind::Number;
        out->number = value;
        return true;
    }

    bool
    parseString(std::string *out)
    {
        ++pos_; // opening quote
        out->clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                *out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': *out += '"'; break;
              case '\\': *out += '\\'; break;
              case '/': *out += '/'; break;
              case 'b': *out += '\b'; break;
              case 'f': *out += '\f'; break;
              case 'n': *out += '\n'; break;
              case 'r': *out += '\r'; break;
              case 't': *out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape digit");
                }
                // Validation-oriented: keep BMP escapes as UTF-8.
                if (code < 0x80) {
                    *out += static_cast<char>(code);
                } else if (code < 0x800) {
                    *out += static_cast<char>(0xC0 | (code >> 6));
                    *out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    *out += static_cast<char>(0xE0 | (code >> 12));
                    *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    *out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default: return fail("unknown escape character");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseArray(JsonValue *out)
    {
        ++pos_; // '['
        out->kind = JsonValue::Kind::Array;
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue element;
            skipSpace();
            if (!parseValue(&element))
                return false;
            out->array.push_back(std::move(element));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            const char c = text_[pos_++];
            if (c == ']')
                return true;
            if (c != ',')
                return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseObject(JsonValue *out)
    {
        ++pos_; // '{'
        out->kind = JsonValue::Kind::Object;
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected a member name");
            std::string key;
            if (!parseString(&key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_++] != ':')
                return fail("expected ':' after member name");
            skipSpace();
            JsonValue value;
            if (!parseValue(&value))
                return false;
            out->object.emplace(std::move(key), std::move(value));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            const char c = text_[pos_++];
            if (c == '}')
                return true;
            if (c != ',')
                return fail("expected ',' or '}' in object");
        }
    }

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue *out, std::string *error)
{
    if (error != nullptr)
        error->clear();
    Parser parser(text, error);
    return parser.parseDocument(out);
}

} // namespace padc::exp
