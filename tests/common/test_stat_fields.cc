#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "common/stat_fields.hh"

using namespace elfsim;

namespace {

struct Inner
{
    std::uint64_t n = 0;
    double x = 0;

    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("n", self.n);
        v("x", self.x);
    }
};

struct Outer
{
    std::uint64_t count = 0;
    double seconds = 0;
    Inner inner;

    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("count", self.count);
        v("seconds", self.seconds);
        v("inner", self.inner);
    }
};

bool
same(const Outer &a, const Outer &b)
{
    return a.count == b.count && a.seconds == b.seconds &&
           a.inner.n == b.inner.n && a.inner.x == b.inner.x;
}

} // namespace

TEST(StatFields, DeltaAddAndSaveLoadRoundTrip)
{
    const Outer before{10, 0.5, {3, 1.25}};
    const Outer after{25, 2.0, {7, 4.0}};

    const Outer d = stats::delta(after, before);
    EXPECT_EQ(d.count, 15u);
    EXPECT_EQ(d.seconds, 1.5);
    EXPECT_EQ(d.inner.n, 4u);
    EXPECT_EQ(d.inner.x, 2.75);

    Outer acc = before;
    stats::add(acc, d);
    EXPECT_TRUE(same(acc, after));

    // Checkpoint bytes: every leaf in visit order, integers as u64
    // and doubles by their bit pattern.
    Serializer s;
    stats::checkpoint(s, after);
    Deserializer raw(s.data());
    EXPECT_EQ(raw.u64(), 25u);
    EXPECT_EQ(raw.f64(), 2.0);
    EXPECT_EQ(raw.u64(), 7u);
    EXPECT_EQ(raw.f64(), 4.0);
    raw.expectEnd();

    Outer loaded;
    Deserializer in(s.data());
    stats::checkpoint(in, loaded);
    in.expectEnd();
    EXPECT_TRUE(same(loaded, after));
}

TEST(StatFields, PrintNamesNestedLeaves)
{
    std::ostringstream os;
    stats::print(os, "grp", Outer{42, 0.375, {7, 1.5}});
    std::istringstream in(os.str());
    std::vector<std::string> tokens;
    for (std::string t; in >> t;)
        tokens.push_back(t);
    const std::vector<std::string> want = {
        "grp.count", "42", "grp.seconds", "0.375",
        "grp.inner.n", "7", "grp.inner.x", "1.5"};
    EXPECT_EQ(tokens, want);
}
