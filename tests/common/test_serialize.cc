#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hh"
#include "common/serialize.hh"

using namespace elfsim;

namespace {

enum class Kind : std::uint8_t { A, B };

/** A structure that lists one field of each encoded kind. */
struct Sample
{
    bool flag = false;
    Kind kind = Kind::A;
    std::uint16_t u16 = 0;
    unsigned u32 = 0;
    std::int64_t s64 = 0;
    double x = 0;
    std::vector<std::uint8_t> table = std::vector<std::uint8_t>(3);

    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        ar(self.flag, self.kind, self.u16, self.u32, self.s64, self.x);
        ar.check(self.table.size(), "sample table");
        for (auto &b : self.table)
            ar(b);
    }
};

} // namespace

TEST(Serialize, OneFieldListWritesEachWidthAndReadsItBack)
{
    Sample a;
    a.flag = true;
    a.kind = Kind::B;
    a.u16 = 0xbeef;
    a.u32 = 0xdeadbeef;
    a.s64 = -2;
    a.x = 0.25;
    a.table = {1, 2, 3};
    Serializer s;
    s(a);
    EXPECT_EQ(s.size(), 1u + 1 + 2 + 4 + 8 + 8 + 8 + 3);

    Deserializer raw(s.data());
    EXPECT_TRUE(raw.boolean());
    EXPECT_EQ(raw.u8(), 1u);
    EXPECT_EQ(raw.u16(), 0xbeefu);
    EXPECT_EQ(raw.u32(), 0xdeadbeefu);
    EXPECT_EQ(raw.u64(), std::uint64_t(-2));
    EXPECT_EQ(raw.f64(), 0.25);
    EXPECT_EQ(raw.u64(), 3u);

    Sample b;
    Deserializer d(s.data());
    d(b);
    d.expectEnd();
    EXPECT_TRUE(b.flag);
    EXPECT_EQ(b.kind, Kind::B);
    EXPECT_EQ(b.u16, 0xbeefu);
    EXPECT_EQ(b.u32, 0xdeadbeefu);
    EXPECT_EQ(b.s64, -2);
    EXPECT_EQ(b.x, 0.25);
    EXPECT_EQ(b.table, a.table);

    // A loader whose own value differs rejects the payload.
    Sample shorter;
    shorter.table.resize(2);
    Deserializer mismatch(s.data());
    EXPECT_THROW(mismatch(shorter), ParseError);
}

// A length prefix sizes nothing before the bytes it promises are
// known to be there: 2^32 elements with 8 bytes left is a ParseError,
// not a 32 GiB reservation.
TEST(Serialize, LengthBeyondTheBytesLeftIsAParseError)
{
    Serializer s;
    s.u64(std::uint64_t(1) << 32);
    s.u64(7);
    Deserializer d(s.data());
    EXPECT_THROW(d.u64Vec(), ParseError);

    Serializer fits;
    fits.u64Vec({5, 6});
    Deserializer ok(fits.data());
    EXPECT_EQ(ok.u64Vec(), (std::vector<std::uint64_t>{5, 6}));
    ok.expectEnd();
}
