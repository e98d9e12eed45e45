/**
 * @file
 * Branch Target Cache: small direct-mapped, partially-tagged target
 * table. Used as the L0 indirect target predictor of the decoupled
 * fetcher (64 entries, 12-bit tags, 1 cycle) and as the IND-ELF
 * coupled predictor.
 */

#ifndef ELFSIM_BPRED_BTC_HH
#define ELFSIM_BPRED_BTC_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace elfsim {

/** BTC parameters. */
struct BtcParams
{
    unsigned entries = 64;
    unsigned tagBits = 12;
};

/** Direct-mapped partially-tagged branch target cache. */
class BranchTargetCache
{
  public:
    explicit BranchTargetCache(const BtcParams &params = {})
        : params(params), table(params.entries)
    {}

    /** @return predicted target, or invalidAddr on miss. */
    Addr
    predict(Addr pc) const
    {
        const Entry &e = table[index(pc)];
        return (e.valid && e.tag == tag(pc)) ? e.target : invalidAddr;
    }

    /** Install/update the target for @a pc. */
    void
    update(Addr pc, Addr target)
    {
        Entry &e = table[index(pc)];
        e.valid = true;
        e.tag = tag(pc);
        e.target = target;
    }

    /** Invalidate everything. */
    void
    reset()
    {
        for (Entry &e : table)
            e = Entry{};
    }

    /** Storage cost in bytes (target + tag per entry). */
    double
    storageBytes() const
    {
        return params.entries * (8.0 + params.tagBits / 8.0);
    }

    /** Checkpoint the full table (see common/serialize.hh). */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        ar.check(self.table.size(), "btc geometry");
        for (auto &e : self.table)
            ar(e.valid, e.tag, e.target);
    }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint32_t tag = 0;
        Addr target = invalidAddr;
    };

    std::size_t
    index(Addr pc) const
    {
        return (pc / instBytes) % params.entries;
    }
    std::uint32_t
    tag(Addr pc) const
    {
        return (pc / instBytes / params.entries) &
               ((1u << params.tagBits) - 1);
    }

    BtcParams params;
    std::vector<Entry> table;
};

} // namespace elfsim

#endif // ELFSIM_BPRED_BTC_HH
