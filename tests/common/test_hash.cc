/**
 * @file
 * Checksum64: feeding in pieces equals one call, a change to any one
 * bit changes the value, and one known answer pins the function
 * (changing it orphans every trace and checkpoint artifact on disk).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/hash.hh"
#include "common/random.hh"

using namespace elfsim;

namespace {

std::vector<unsigned char>
randomBytes(std::size_t n)
{
    Rng rng(0x5eed);
    std::vector<unsigned char> out(n);
    for (unsigned char &b : out)
        b = static_cast<unsigned char>(rng.next() >> 56);
    return out;
}

std::uint64_t
checksum(const std::vector<unsigned char> &buf)
{
    return Checksum64().bytes(buf.data(), buf.size()).value();
}

} // namespace

TEST(Checksum64, PiecesMatchOneCallAtEverySplit)
{
    const std::vector<unsigned char> buf = randomBytes(1024);
    const std::uint64_t whole = checksum(buf);
    for (std::size_t split = 0; split <= buf.size(); ++split) {
        Checksum64 c;
        c.bytes(buf.data(), split);
        c.bytes(buf.data() + split, buf.size() - split);
        ASSERT_EQ(c.value(), whole) << "split at " << split;
    }
}

TEST(Checksum64, ChunkedFeedsMatchOneCall)
{
    const std::vector<unsigned char> buf = randomBytes(1024);
    const std::uint64_t whole = checksum(buf);
    for (std::size_t chunk = 1; chunk <= 40; ++chunk) {
        Checksum64 c;
        for (std::size_t at = 0; at < buf.size(); at += chunk)
            c.bytes(buf.data() + at, std::min(chunk, buf.size() - at));
        ASSERT_EQ(c.value(), whole) << "chunks of " << chunk;
    }

    // u64() feeds a value's little-endian bytes.
    const std::uint64_t v = 0x0123456789abcdefull;
    const unsigned char le[8] = {0xef, 0xcd, 0xab, 0x89,
                                 0x67, 0x45, 0x23, 0x01};
    EXPECT_EQ(Checksum64().u64(v).value(),
              Checksum64().bytes(le, sizeof(le)).value());
}

// Every prefix length exercises a different mix of whole stripes,
// whole tail words and a partial word; flipping any one bit of any of
// them must change the value.
TEST(Checksum64, EverySingleBitFlipChangesTheValue)
{
    const std::vector<unsigned char> buf = randomBytes(100);
    for (std::size_t len : {std::size_t(1), std::size_t(7),
                            std::size_t(31), std::size_t(32),
                            std::size_t(69), std::size_t(100)}) {
        std::vector<unsigned char> prefix(buf.begin(), buf.begin() + len);
        const std::uint64_t base = checksum(prefix);
        for (std::size_t i = 0; i < len; ++i)
            for (int bit = 0; bit < 8; ++bit) {
                prefix[i] ^= static_cast<unsigned char>(1u << bit);
                ASSERT_NE(checksum(prefix), base)
                    << "len " << len << " byte " << i << " bit " << bit;
                prefix[i] ^= static_cast<unsigned char>(1u << bit);
            }
    }
}

TEST(Checksum64, KnownAnswerIsPinned)
{
    // Bytes 0..116: three whole stripes, then two whole tail words and
    // a 5-byte partial word.
    std::vector<unsigned char> buf(117);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<unsigned char>(i);
    EXPECT_EQ(checksum(buf), 0x6e8d1cac291f9f29ull);
    EXPECT_EQ(Checksum64().value(), 0xe8c7b9489f69ac29ull);
}
