/**
 * @file
 * Generic operations over counter structs.
 *
 * A counter struct lists each of its fields once, as ("name", member)
 * pairs, in a static `visitFields(self, v)`; @a self is the struct,
 * const or not. A field is either a leaf — an 8-byte unsigned integer
 * or a double — or another such struct, which nests its fields under
 * its name. Everything else that touches the counters is derived here
 * from that one list: window deltas, accumulation, checkpoint bytes
 * and the printed "group.field value" lines. A field order change is
 * therefore a checkpoint layout change.
 */

#ifndef ELFSIM_COMMON_STAT_FIELDS_HH
#define ELFSIM_COMMON_STAT_FIELDS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <string>
#include <type_traits>

#include "common/logging.hh"

namespace elfsim {
namespace stats {

/** Is @a F a leaf counter (rather than a nested counter struct)? */
template <typename F>
constexpr bool isLeaf = std::is_arithmetic_v<std::remove_cv_t<F>>;

/** Most fields one struct may list (zip() buffers their addresses). */
constexpr std::size_t maxFields = 32;

/**
 * Call @a f(name, a_field, b_field) for each field of @a a paired
 * with the same field of @a b.
 */
template <typename T, typename F>
void
zip(T &a, const T &b, F &&f)
{
    std::array<const void *, maxFields> other{};
    std::size_t n = 0;
    T::visitFields(b, [&](const char *, const auto &x) {
        ELFSIM_ASSERT(n < maxFields, "counter struct exceeds maxFields");
        other[n++] = &x;
    });
    std::size_t i = 0;
    T::visitFields(a, [&](const char *name, auto &x) {
        using X = std::remove_reference_t<decltype(x)>;
        f(name, x, *static_cast<const X *>(other[i++]));
    });
}

/** Apply @a op(leaf_a, leaf_b) to every leaf pair of @a a and @a b. */
template <typename T, typename Op>
void
combine(T &a, const T &b, Op op)
{
    zip(a, b, [&](const char *, auto &x, const auto &y) {
        if constexpr (isLeaf<std::remove_reference_t<decltype(x)>>)
            op(x, y);
        else
            combine(x, y, op);
    });
}

/** Fieldwise @a acc += @a d. */
template <typename T>
void
add(T &acc, const T &d)
{
    combine(acc, d, [](auto &x, const auto &y) { x += y; });
}

/** Fieldwise @a now - @a since (counters are monotonic). */
template <typename T>
T
delta(T now, const T &since)
{
    combine(now, since, [](auto &x, const auto &y) { x -= y; });
    return now;
}

/** Call @a f(full_name, value) for every leaf of @a x, depth first,
 *  each named "prefix.field" ("prefix.group.field" when nested). */
template <typename T, typename F>
void
forEachLeaf(const std::string &prefix, const T &x, F &&f)
{
    T::visitFields(x, [&](const char *name, const auto &v) {
        const std::string full = prefix + "." + name;
        if constexpr (isLeaf<std::remove_reference_t<decltype(v)>>)
            f(full, v);
        else
            forEachLeaf(full, v, f);
    });
}

/**
 * Write or read, as @a ar does (a Serializer or a Deserializer, see
 * common/serialize.hh), every leaf of @a x in field order: integers
 * as u64, doubles by their bit pattern.
 */
template <typename Ar, typename T>
void
checkpoint(Ar &ar, T &x)
{
    std::remove_cv_t<T>::visitFields(x, [&](const char *, auto &v) {
        using V = std::remove_cv_t<std::remove_reference_t<decltype(v)>>;
        if constexpr (isLeaf<V>) {
            static_assert(std::is_floating_point_v<V> || sizeof(V) == 8,
                          "checkpointed counters are u64");
            ar(v);
        } else {
            checkpoint(ar, v);
        }
    });
}

/** One aligned "name value" line; integers print exactly, doubles
 *  with the stream's default six significant digits. */
template <typename N>
void
printLine(std::ostream &os, const std::string &name, N value)
{
    os << std::left << std::setw(44) << name << ' ' << std::right
       << std::setw(16) << value << '\n';
}

/** Print every leaf of @a x as a "group.field value" line. */
template <typename T>
void
print(std::ostream &os, const std::string &group, const T &x)
{
    forEachLeaf(group, x, [&os](const std::string &name, auto v) {
        printLine(os, name, v);
    });
}

} // namespace stats
} // namespace elfsim

#endif // ELFSIM_COMMON_STAT_FIELDS_HH
