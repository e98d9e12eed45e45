#include "btb/btb.hh"

#include "common/logging.hh"
#include "common/stat_fields.hh"

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

namespace {

void
saveEntry(Serializer &s, const BtbEntry &e)
{
    s.boolean(e.valid);
    s.u64(e.startPC);
    s.u8(e.numInsts);
    s.u8(std::uint8_t(e.termination));
    for (const BtbSlot &slot : e.slots) {
        s.boolean(slot.valid);
        s.u8(slot.offset);
        s.u8(std::uint8_t(slot.kind));
        s.u64(slot.target);
    }
}

void
loadEntry(Deserializer &d, BtbEntry &e)
{
    e.valid = d.boolean();
    e.startPC = d.u64();
    e.numInsts = d.u8();
    const std::uint8_t term = d.u8();
    if (term > std::uint8_t(BtbTermination::MaxInsts))
        throw ParseError("btb: bad termination byte");
    e.termination = BtbTermination(term);
    for (BtbSlot &slot : e.slots) {
        slot.valid = d.boolean();
        slot.offset = d.u8();
        const std::uint8_t kind = d.u8();
        if (kind > std::uint8_t(BranchKind::Return))
            throw ParseError("btb: bad branch kind byte");
        slot.kind = BranchKind(kind);
        slot.target = d.u64();
    }
}

} // namespace

void
BtbLevel::saveState(Serializer &s) const
{
    s.u64(ways.size());
    for (const Way &w : ways) {
        saveEntry(s, w.entry);
        s.u64(w.lastUse);
    }
    s.u64(useTick);
    stats::save(s, st);
}

void
BtbLevel::loadState(Deserializer &d)
{
    if (d.u64() != ways.size())
        throw ParseError("btb: level geometry mismatch");
    for (Way &w : ways) {
        loadEntry(d, w.entry);
        w.lastUse = d.u64();
    }
    useTick = d.u64();
    stats::load(d, st);
}

void
MultiBtb::saveState(Serializer &s) const
{
    for (const BtbLevel &l : levels)
        l.saveState(s);
    stats::save(s, st);
}

void
MultiBtb::loadState(Deserializer &d)
{
    for (BtbLevel &l : levels)
        l.loadState(d);
    stats::load(d, st);
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
