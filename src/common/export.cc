#include "common/export.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace elfsim {

std::string
formatDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

void
JsonWriter::indent()
{
    for (std::size_t i = 0; i < stack.size(); ++i)
        out << "  ";
}

void
JsonWriter::sep()
{
    if (afterKey) {
        afterKey = false;
        return;
    }
    if (stack.empty())
        return;
    if (!stack.back().first)
        out << ",";
    stack.back().first = false;
    if (pretty) {
        out << "\n";
        indent();
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    sep();
    out << "{";
    stack.push_back({true});
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    sep();
    out << "[";
    stack.push_back({true});
    return *this;
}

void
JsonWriter::close(char c)
{
    const bool empty = stack.back().first;
    stack.pop_back();
    if (!empty && pretty) {
        out << "\n";
        indent();
    }
    out << c;
    if (stack.empty() && pretty)
        out << "\n";
}

JsonWriter &
JsonWriter::endObject()
{
    close('}');
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    close(']');
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    if (!stack.back().first)
        out << ",";
    stack.back().first = false;
    if (pretty) {
        out << "\n";
        indent();
    }
    writeString(k);
    out << (pretty ? ": " : ":");
    afterKey = true;
    return *this;
}

void
JsonWriter::writeString(std::string_view s)
{
    out << '"';
    for (const char c : s) {
        switch (c) {
          case '"': out << "\\\""; break;
          case '\\': out << "\\\\"; break;
          case '\n': out << "\\n"; break;
          case '\t': out << "\\t"; break;
          case '\r': out << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out << buf;
            } else {
                out << c;
            }
        }
    }
    out << '"';
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    sep();
    writeString(v);
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    sep();
    out << formatDouble(v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    sep();
    out << v;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    sep();
    out << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    sep();
    out << "null";
    return *this;
}

} // namespace elfsim
