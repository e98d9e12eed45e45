/**
 * @file
 * Flat byte-buffer serialization for warm-state checkpoints.
 *
 * Components expose `saveState(Serializer &)` / `loadState(Deserializer
 * &)` pairs that write and read fixed-width little-endian scalars into
 * a growable byte vector. The encoding is deliberately dumb — no field
 * tags, no varints — because a checkpoint is only ever read back by
 * the exact binary layout that wrote it: the artifact key (see
 * workload/checkpoint_store.hh) hashes the format version along with
 * the full configuration, so any layout change changes the key and a
 * stale payload is never parsed.
 *
 * Deserializer throws ParseError on underrun or on a failed bounds
 * check, which callers treat as "checkpoint unusable, fall back to
 * fast-forward" — never as a failed simulation.
 */

#ifndef ELFSIM_COMMON_SERIALIZE_HH
#define ELFSIM_COMMON_SERIALIZE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
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
    Deserializer(const std::uint8_t *data, std::size_t len)
        : ptr(data), end(data + len)
    {}

    explicit Deserializer(const std::vector<std::uint8_t> &v)
        : Deserializer(v.data(), v.size())
    {}

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

    /** Length-prefixed u64 vector; @a max_len guards absurd sizes. */
    std::vector<std::uint64_t>
    u64Vec(std::size_t max_len = std::size_t(1) << 32)
    {
        std::uint64_t n = u64();
        if (n > max_len)
            throw ParseError("checkpoint: vector length out of range");
        std::vector<std::uint64_t> v;
        v.reserve(std::size_t(n));
        for (std::uint64_t i = 0; i < n; ++i)
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
