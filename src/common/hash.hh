/**
 * @file
 * Streaming content hashing for cache keys and payload checksums.
 *
 * Two hashes, neither cryptographic (they detect staleness and
 * corruption, not adversaries), both stable across standard libraries,
 * hosts and process runs, which an on-disk cache key must be:
 *
 *   - Fnv1a: FNV-1a over 64 bits, one byte at a time. For keys and
 *     other small inputs: content keys, configuration fingerprints,
 *     test digests.
 *   - Checksum64: four multiply-rotate lanes over 32-byte stripes of
 *     little-endian words. For bulk payloads: the compiled-trace and
 *     checkpoint artifact checksums, which it verifies at memory
 *     bandwidth where byte-wise FNV-1a is about ten times slower.
 *
 * artifactPath names the file a content key gives an on-disk artifact.
 */

#ifndef ELFSIM_COMMON_HASH_HH
#define ELFSIM_COMMON_HASH_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace elfsim {

/** Incremental FNV-1a 64-bit hasher. */
class Fnv1a
{
  public:
    /** Fold a raw byte range into the hash. */
    Fnv1a &
    bytes(const void *data, std::size_t len)
    {
        const unsigned char *p = static_cast<const unsigned char *>(data);
        std::uint64_t x = state;
        for (std::size_t i = 0; i < len; ++i) {
            x ^= p[i];
            x *= prime;
        }
        state = x;
        return *this;
    }

    /** Fold one unsigned 64-bit value (endianness-independent). */
    Fnv1a &
    u64(std::uint64_t v)
    {
        unsigned char b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<unsigned char>(v >> (8 * i));
        return bytes(b, sizeof(b));
    }

    /** Fold a double by its bit pattern. */
    Fnv1a &
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        return u64(bits);
    }

    /** Fold a string's characters (length included, so "ab"+"c" and
     *  "a"+"bc" hash differently). */
    Fnv1a &
    str(std::string_view s)
    {
        u64(s.size());
        return bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return state; }

  private:
    static constexpr std::uint64_t offsetBasis = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t prime = 0x100000001b3ull;

    std::uint64_t state = offsetBasis;
};

/** One-shot convenience: FNV-1a of a byte range. */
inline std::uint64_t
fnv1a(const void *data, std::size_t len)
{
    return Fnv1a().bytes(data, len).value();
}

/**
 * Incremental bulk checksum.
 *
 * Lane k of four absorbs the little-endian 64-bit words at offsets
 * 32i + 8k of the input, one round per word, so a stripe costs four
 * independent dependency chains. value() chains the four lanes, the
 * total length, and the bytes past the last whole stripe (whole words,
 * then the final partial word zero-padded) through the same round.
 *
 * The round, rotl(acc + w * p2, 31) * p1, is a bijection of either
 * input with the other held fixed (add, rotate, multiply by an odd
 * constant), and every step is one round. So a change confined to one
 * 8-byte word at an 8-aligned offset of the input always changes the
 * value, as a change to one byte does for FNV-1a. Feeding the input in
 * pieces gives the same value as one call.
 */
class Checksum64
{
  public:
    /** Fold a raw byte range into the checksum. */
    Checksum64 &
    bytes(const void *data, std::size_t len)
    {
        if (len == 0)
            return *this; // data may be null
        const unsigned char *p = static_cast<const unsigned char *>(data);
        total += len;
        if (pendLen != 0) {
            const std::size_t take = std::min(len, stripeBytes - pendLen);
            std::memcpy(pend + pendLen, p, take);
            pendLen += take;
            p += take;
            len -= take;
            if (pendLen < stripeBytes)
                return *this;
            absorb(pend, stripeBytes);
            pendLen = 0;
        }
        const std::size_t whole = len - len % stripeBytes;
        absorb(p, whole);
        pendLen = len - whole;
        std::memcpy(pend, p + whole, pendLen);
        return *this;
    }

    /** Fold one unsigned 64-bit value as its 8 little-endian bytes. */
    Checksum64 &
    u64(std::uint64_t v)
    {
        unsigned char b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<unsigned char>(v >> (8 * i));
        return bytes(b, sizeof(b));
    }

    /** Checksum of everything fed so far (feeding may continue). */
    std::uint64_t
    value() const
    {
        std::uint64_t h = 0;
        for (std::uint64_t l : lane)
            h = round(h, l);
        h = round(h, total);
        std::size_t i = 0;
        for (; i + 8 <= pendLen; i += 8)
            h = round(h, word(pend + i));
        if (i < pendLen) {
            unsigned char last[8] = {};
            std::memcpy(last, pend + i, pendLen - i);
            h = round(h, word(last));
        }
        return h;
    }

  private:
    static constexpr std::size_t stripeBytes = 32;
    static constexpr std::uint64_t p1 = 0x9e3779b185ebca87ull;
    static constexpr std::uint64_t p2 = 0xc2b2ae3d27d4eb4full;

    static std::uint64_t
    round(std::uint64_t acc, std::uint64_t w)
    {
        return std::rotl(acc + w * p2, 31) * p1;
    }

    /** The little-endian 64-bit word at @a p (any alignment). */
    static std::uint64_t
    word(const unsigned char *p)
    {
        std::uint64_t w;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(&w, p, sizeof(w));
        } else {
            w = 0;
            for (int i = 0; i < 8; ++i)
                w |= std::uint64_t(p[i]) << (8 * i);
        }
        return w;
    }

    /** Run the lanes over @a len bytes, a multiple of stripeBytes. */
    void
    absorb(const unsigned char *p, std::size_t len)
    {
        std::uint64_t a = lane[0], b = lane[1], c = lane[2], d = lane[3];
        for (const unsigned char *end = p + len; p != end;
             p += stripeBytes) {
            a = round(a, word(p));
            b = round(b, word(p + 8));
            c = round(c, word(p + 16));
            d = round(d, word(p + 24));
        }
        lane[0] = a;
        lane[1] = b;
        lane[2] = c;
        lane[3] = d;
    }

    std::uint64_t lane[4] = {p1 + p2, p2, 0, 0 - p1};
    std::uint64_t total = 0;                ///< bytes fed so far
    unsigned char pend[stripeBytes] = {};   ///< partial stripe
    std::size_t pendLen = 0;
};

/**
 * Path of the artifact for content key @a key in @a dir:
 * "<dir>/<name>-<16 hex digits><ext>". Characters of @a name other
 * than [A-Za-z0-9._-] become '_', keeping the name shell- and
 * filesystem-friendly; an empty @a name becomes @a fallback.
 */
inline std::string
artifactPath(const std::string &dir, const std::string &name,
             std::uint64_t key, const char *ext, const char *fallback)
{
    std::string safe;
    safe.reserve(name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                        c == '.';
        safe.push_back(ok ? c : '_');
    }
    if (safe.empty())
        safe = fallback;
    static const char digits[] = "0123456789abcdef";
    std::string hex(16, '0');
    for (int i = 15; i >= 0; --i) {
        hex[std::size_t(i)] = digits[key & 0xf];
        key >>= 4;
    }
    return dir + "/" + safe + "-" + hex + ext;
}

} // namespace elfsim

#endif // ELFSIM_COMMON_HASH_HH
