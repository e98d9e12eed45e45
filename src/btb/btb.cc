#include "btb/btb.hh"

#include "common/logging.hh"

namespace elfsim {

BtbLevel::BtbLevel(const BtbLevelParams &params)
    : params(params),
      assoc_(params.assoc == 0 ? params.entries : params.assoc),
      ways(params.entries)
{
    ELFSIM_ASSERT(params.entries % assoc_ == 0,
                  "BTB '%s': %u entries not divisible by %u ways",
                  params.name.c_str(), params.entries, assoc_);
}

const BtbEntry *
BtbLevel::lookup(Addr pc)
{
    const unsigned set = setOf(pc);
    ++useTick;
    for (unsigned w = 0; w < assoc_; ++w) {
        Way &way = ways[set * assoc_ + w];
        if (way.entry.valid && way.entry.startPC == pc) {
            way.lastUse = useTick;
            ++st.hits;
            return &way.entry;
        }
    }
    ++st.misses;
    return nullptr;
}

void
BtbLevel::insert(const BtbEntry &entry)
{
    const unsigned set = setOf(entry.startPC);
    ++useTick;
    Way *victim = nullptr;
    // Overwrite in place (amendment/split), else an invalid way, else
    // the LRU way.
    for (unsigned w = 0; w < assoc_; ++w) {
        Way &way = ways[set * assoc_ + w];
        if (way.entry.valid && way.entry.startPC == entry.startPC) {
            victim = &way;
            break;
        }
    }
    if (!victim) {
        for (unsigned w = 0; w < assoc_; ++w) {
            Way &way = ways[set * assoc_ + w];
            if (!way.entry.valid) {
                victim = &way;
                break;
            }
        }
    }
    if (!victim) {
        victim = &ways[set * assoc_];
        for (unsigned w = 1; w < assoc_; ++w) {
            Way &way = ways[set * assoc_ + w];
            if (way.lastUse < victim->lastUse)
                victim = &way;
        }
    }
    victim->entry = entry;
    victim->lastUse = useTick;
}

bool
BtbLevel::present(Addr pc) const
{
    const unsigned set = setOf(pc);
    for (unsigned w = 0; w < assoc_; ++w) {
        const Way &way = ways[set * assoc_ + w];
        if (way.entry.valid && way.entry.startPC == pc)
            return true;
    }
    return false;
}

bool
BtbLevel::updateIfPresent(const BtbEntry &entry)
{
    const unsigned set = setOf(entry.startPC);
    for (unsigned w = 0; w < assoc_; ++w) {
        Way &way = ways[set * assoc_ + w];
        if (way.entry.valid && way.entry.startPC == entry.startPC) {
            way.entry = entry;
            return true;
        }
    }
    return false;
}

void
BtbLevel::reset()
{
    for (Way &w : ways)
        w = Way{};
    st = BtbLevelStats{};
}

MultiBtb::MultiBtb(const MultiBtbParams &params) : params(params)
{
    levels.emplace_back(params.l0);
    levels.emplace_back(params.l1);
    levels.emplace_back(params.l2);
}

BtbLookupResult
MultiBtb::lookup(Addr pc)
{
    ++st.lookups;
    BtbLookupResult res;
    for (unsigned l = 0; l < levels.size(); ++l) {
        if (const BtbEntry *e = levels[l].lookup(pc)) {
            res.hit = true;
            res.level = static_cast<int>(l);
            res.latency = levels[l].config().latency;
            res.entry = *e;
            ++st.levelHits[l];
            // Promote into the inner levels.
            for (unsigned inner = 0; inner < l; ++inner)
                levels[inner].insert(*e);
            return res;
        }
    }
    return res;
}

void
MultiBtb::insert(const BtbEntry &entry)
{
    ELFSIM_ASSERT(entry.valid && entry.numInsts >= 1 &&
                      entry.numInsts <= btbMaxInsts,
                  "inserting malformed BTB entry");
    // Keep the L0 coherent if it already caches this entry
    // (amendment/split must not leave a stale copy inside).
    levels[0].updateIfPresent(entry);
    levels[1].insert(entry);
    levels[2].insert(entry);
}

bool
MultiBtb::present(Addr pc) const
{
    for (const BtbLevel &l : levels) {
        if (l.present(pc))
            return true;
    }
    return false;
}

void
MultiBtb::reset()
{
    for (BtbLevel &l : levels)
        l.reset();
    st = MultiBtbStats{};
}

double
MultiBtb::cumulativeHitRate(unsigned l) const
{
    if (st.lookups == 0)
        return 0.0;
    std::uint64_t hits = 0;
    for (unsigned i = 0; i <= l && i < 3; ++i)
        hits += st.levelHits[i];
    return static_cast<double>(hits) /
           static_cast<double>(st.lookups);
}

} // namespace elfsim
