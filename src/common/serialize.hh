/**
 * @file
 * Flat byte-buffer serialization for warm-state checkpoints.
 *
 * Each warmed structure lists its checkpointed state once, in a static
 * `visitWarmState(self, ar)` (@a self const or not, as in the counter
 * structs' `visitFields`). @a ar is a Serializer or a Deserializer:
 * both take the same reference-taking field operations and carry a
 * compile-time `loading` flag, so one list writes the payload and
 * reads it back, and the two directions cannot drift apart.
 *
 *   ar(a, b, ...)     write or read each field in order: bool as one
 *                     byte (0 or 1), an integer or enum as its own
 *                     width, a double by its bit pattern, and a
 *                     structure with a visitWarmState through it
 *   ar.check(v, what) a value the layout depends on (a table size, a
 *                     presence flag): written from the live structure,
 *                     and on load read and required to equal it
 *
 * Effects that only a load has (a clamp, an index wrap, a cache bump)
 * sit in one `if constexpr (Ar::loading)` block of their structure.
 * Counter structs go through stats::checkpoint (common/stat_fields.hh).
 *
 * The encoding is fixed-width little-endian, with no field tags and no
 * varints, because a checkpoint is only ever read back by the exact
 * binary layout that wrote it: the artifact key (see
 * workload/checkpoint_store.hh) hashes the format version along with
 * the full configuration, so any layout change changes the key and a
 * stale payload is never parsed.
 *
 * Deserializer throws ParseError on underrun, on a failed check, and
 * on a length prefix the bytes left cannot hold (8 bytes per element,
 * tested before anything is sized from it). Callers treat that as
 * "checkpoint unusable, fall back to fast-forward", never as a failed
 * simulation.
 */

#ifndef ELFSIM_COMMON_SERIALIZE_HH
#define ELFSIM_COMMON_SERIALIZE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hh"

namespace elfsim {

/** @a v with its bytes in little-endian order on this host (its own
 *  inverse: a no-op on little-endian hosts, a byte swap otherwise). */
template <typename T>
constexpr T
littleEndian(T v)
{
    if constexpr (std::endian::native == std::endian::little) {
        return v;
    } else {
        T r = 0;
        for (unsigned i = 0; i < sizeof(T); ++i)
            r = T((r << 8) | ((v >> (8 * i)) & 0xff));
        return r;
    }
}

/** Append-only little-endian byte-buffer writer. */
class Serializer
{
  public:
    /** Field operations write. */
    static constexpr bool loading = false;

    /** Write each of @a fields in order. */
    template <typename... T>
    void
    operator()(const T &...fields)
    {
        (field(fields), ...);
    }

    /** Write @a live, which the loader checks against its own. */
    template <typename T>
    void
    check(const T &live, const char *)
    {
        field(live);
    }

    void
    u8(std::uint8_t v)
    {
        buf.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        appendLe(v);
    }

    void
    u32(std::uint32_t v)
    {
        appendLe(v);
    }

    void
    u64(std::uint64_t v)
    {
        appendLe(v);
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    boolean(bool v)
    {
        u8(v ? 1 : 0);
    }

    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf.insert(buf.end(), p, p + len);
    }

    /** Length-prefixed u64 vector. */
    void
    u64Vec(const std::vector<std::uint64_t> &v)
    {
        u64(v.size());
        for (std::uint64_t x : v)
            u64(x);
    }

    const std::vector<std::uint8_t> &data() const { return buf; }
    std::size_t size() const { return buf.size(); }

  private:
    template <typename T>
    void
    field(const T &v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            boolean(v);
        } else if constexpr (std::is_enum_v<T>) {
            field(std::underlying_type_t<T>(v));
        } else if constexpr (std::is_same_v<T, double>) {
            f64(v);
        } else if constexpr (std::is_integral_v<T>) {
            appendLe(std::make_unsigned_t<T>(v));
        } else {
            T::visitWarmState(v, *this);
        }
    }

    /** Append @a v as sizeof(T) little-endian bytes, in one copy. */
    template <typename T>
    void
    appendLe(T v)
    {
        v = littleEndian(v);
        const std::size_t at = buf.size();
        buf.resize(at + sizeof(T));
        std::memcpy(buf.data() + at, &v, sizeof(T));
    }

    std::vector<std::uint8_t> buf;
};

/** Sequential reader over a serialized byte buffer. */
class Deserializer
{
  public:
    /** Field operations read. */
    static constexpr bool loading = true;

    Deserializer(const std::uint8_t *data, std::size_t len)
        : ptr(data), end(data + len)
    {}

    explicit Deserializer(const std::vector<std::uint8_t> &v)
        : Deserializer(v.data(), v.size())
    {}

    /** Read each of @a fields in order. */
    template <typename... T>
    void
    operator()(T &...fields)
    {
        (field(fields), ...);
    }

    /** Read the writer's value of a layout-fixing quantity; a
     *  payload whose value differs from @a live is a ParseError. */
    template <typename T>
    void
    check(const T &live, const char *what)
    {
        T got{};
        field(got);
        if (got != live)
            throw ParseError(std::string("checkpoint: ") + what +
                             " mismatch");
    }

    /** A u64 length prefix of 8-byte elements. A length the bytes
     *  left cannot hold is a ParseError, so nothing is ever sized
     *  from it. */
    std::size_t
    length()
    {
        const std::uint64_t n = u64();
        if (n > remaining() / 8)
            throw ParseError("checkpoint: length exceeds the payload");
        return std::size_t(n);
    }

    std::uint8_t
    u8()
    {
        need(1);
        return *ptr++;
    }

    std::uint16_t
    u16()
    {
        return readLe<std::uint16_t>();
    }

    std::uint32_t
    u32()
    {
        return readLe<std::uint32_t>();
    }

    std::uint64_t
    u64()
    {
        return readLe<std::uint64_t>();
    }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    bool
    boolean()
    {
        std::uint8_t v = u8();
        if (v > 1)
            throw ParseError("checkpoint: bad boolean byte");
        return v != 0;
    }

    void
    bytes(void *out, std::size_t len)
    {
        need(len);
        std::memcpy(out, ptr, len);
        ptr += len;
    }

    /** Length-prefixed u64 vector of at most @a max_len elements. */
    std::vector<std::uint64_t>
    u64Vec(std::size_t max_len = std::size_t(1) << 32)
    {
        const std::size_t n = length();
        if (n > max_len)
            throw ParseError("checkpoint: vector length out of range");
        std::vector<std::uint64_t> v;
        v.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            v.push_back(u64());
        return v;
    }

    std::size_t remaining() const { return std::size_t(end - ptr); }

    /** Loads must consume the payload exactly; anything else means
     *  the layout drifted from the writer's. */
    void
    expectEnd() const
    {
        if (ptr != end)
            throw ParseError("checkpoint: trailing bytes after load");
    }

  private:
    template <typename T>
    void
    field(T &v)
    {
        if constexpr (std::is_same_v<T, bool>) {
            v = boolean();
        } else if constexpr (std::is_enum_v<T>) {
            v = T(readLe<std::underlying_type_t<T>>());
        } else if constexpr (std::is_same_v<T, double>) {
            v = f64();
        } else if constexpr (std::is_integral_v<T>) {
            v = T(readLe<std::make_unsigned_t<T>>());
        } else {
            T::visitWarmState(v, *this);
        }
    }

    void
    need(std::size_t n) const
    {
        if (std::size_t(end - ptr) < n)
            throw ParseError("checkpoint: payload truncated");
    }

    /** Read sizeof(T) little-endian bytes, in one copy. */
    template <typename T>
    T
    readLe()
    {
        need(sizeof(T));
        T v;
        std::memcpy(&v, ptr, sizeof(T));
        ptr += sizeof(T);
        return littleEndian(v);
    }

    const std::uint8_t *ptr;
    const std::uint8_t *end;
};

} // namespace elfsim

#endif // ELFSIM_COMMON_SERIALIZE_HH
