/**
 * @file
 * Minimal recursive-descent JSON parser — the read half of the export
 * pipeline (common/export.hh is the write half). Reads sweep specs
 * (sim/sweep_spec.hh) and exported results documents
 * (runResultFromJson in sim/export.hh).
 *
 * Numbers keep their raw token text: asU64() re-parses the exact
 * digits (no 53-bit double truncation of 64-bit counters) and
 * asDouble() goes through strtod, which inverts the writer's
 * shortest-round-trip formatting bit-exactly — so a result that is
 * parsed from an export and re-serialized is byte-identical to the
 * original.
 *
 * All parse and type errors throw ParseError (common/error.hh).
 */

#ifndef ELFSIM_COMMON_JSON_HH
#define ELFSIM_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace elfsim {
namespace json {

/** One parsed JSON value; a tree of these is a document. */
class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind() const { return k; }
    bool isNull() const { return k == Kind::Null; }

    bool asBool() const;
    /** Exact unsigned 64-bit integer; throws on sign/fraction/range. */
    std::uint64_t asU64() const;
    double asDouble() const;
    const std::string &asString() const;

    const std::vector<Value> &array() const;
    std::size_t size() const { return array().size(); }
    const Value &operator[](std::size_t i) const { return array()[i]; }

    /** Object member lookup; nullptr when absent (or not an object). */
    const Value *find(std::string_view key) const;
    /** Object member lookup; throws ParseError when absent. */
    const Value &at(std::string_view key) const;

    /** Object members in document order. */
    const std::vector<std::pair<std::string, Value>> &members() const;

  private:
    friend class Parser;

    Kind k = Kind::Null;
    bool boolean = false;
    std::string text; ///< string value, or a number's raw token
    std::vector<Value> elems;
    std::vector<std::pair<std::string, Value>> fields;
};

/** Parse one complete document; trailing garbage is an error. */
Value parse(std::string_view text);

} // namespace json
} // namespace elfsim

#endif // ELFSIM_COMMON_JSON_HH
