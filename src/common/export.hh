/**
 * @file
 * Machine-readable output sink: a streaming JSON writer. Everything
 * the simulator prints as text can also leave through it, losslessly:
 * doubles are formatted with shortest-round-trip precision, so
 * re-parsing an export reproduces the exact bits and a deterministic
 * computation serializes to byte-identical output.
 */

#ifndef ELFSIM_COMMON_EXPORT_HH
#define ELFSIM_COMMON_EXPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace elfsim {

/** Format a double with shortest round-trip precision ("null" for
 *  non-finite values, which JSON cannot represent). */
std::string formatDouble(double v);

/**
 * Minimal streaming JSON emitter (objects, arrays, keyed fields) with
 * two-space pretty-printing, or single-line compact output (one
 * record per line). Purely append-only: the caller
 * provides a well-formed begin/key/value/end sequence; nesting depth
 * is tracked only for commas and indentation.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os, bool pretty = true)
        : out(os), pretty(pretty)
    {
    }

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit the key of the next field (inside an object). */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(bool v);
    JsonWriter &null();

    JsonWriter &field(std::string_view k, std::string_view v)
    { key(k); return value(v); }
    JsonWriter &field(std::string_view k, const char *v)
    { key(k); return value(std::string_view(v)); }
    JsonWriter &field(std::string_view k, double v)
    { key(k); return value(v); }
    JsonWriter &field(std::string_view k, std::uint64_t v)
    { key(k); return value(v); }
    JsonWriter &field(std::string_view k, bool v)
    { key(k); return value(v); }

  private:
    void sep();
    void indent();
    void close(char c);
    void writeString(std::string_view s);

    std::ostream &out;
    bool pretty;
    struct Level { bool first; };
    std::vector<Level> stack;
    bool afterKey = false;
};

} // namespace elfsim

#endif // ELFSIM_COMMON_EXPORT_HH
