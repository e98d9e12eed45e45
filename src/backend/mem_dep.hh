/**
 * @file
 * PC-based memory-dependence filter (paper Table II): a violating
 * load/store pair is recorded; when the load's PC is renamed again,
 * it waits for the matching older store instead of speculating past
 * it.
 */

#ifndef ELFSIM_BACKEND_MEM_DEP_HH
#define ELFSIM_BACKEND_MEM_DEP_HH

#include <cstdint>
#include <vector>

#include "common/stat_fields.hh"
#include "common/types.hh"

namespace elfsim {

/** Memory-dependence filter counters. */
struct MemDepStats
{
    std::uint64_t trainings = 0; ///< violations recorded

    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("trainings", self.trainings);
    }
};

/** The violating-pair filter. */
class MemDepPredictor
{
  public:
    /**
     * @param entries Direct-mapped table size.
     * @param max_uses An entry expires after this many filtered loads
     *        without a new violation — a permanent entry would
     *        serialize a hot load/store pair forever once a single
     *        (possibly wrong-path-induced) violation trained it.
     */
    explicit MemDepPredictor(unsigned entries = 256,
                             unsigned max_uses = 64);

    /** @return the recorded store PC for @a load_pc (invalidAddr if
     *  the load has no recorded violation). Counts a use; the entry
     *  ages out after max_uses. */
    Addr storeFor(Addr load_pc);

    /** Record a violation between @a load_pc and @a store_pc. */
    void train(Addr load_pc, Addr store_pc);

    /** Forget everything. */
    void reset();

    const MemDepStats &stats() const { return st; }

    /** Checkpoint the violation table (see common/serialize.hh). */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        ar.check(self.table.size(), "mem_dep geometry");
        for (auto &e : self.table)
            ar(e.loadPC, e.storePC, e.uses);
        stats::checkpoint(ar, self.st);
    }

  private:
    struct Entry
    {
        Addr loadPC = invalidAddr;
        Addr storePC = invalidAddr;
        unsigned uses = 0;
    };

    std::size_t
    index(Addr pc) const
    {
        return (pc / instBytes) % table.size();
    }

    std::vector<Entry> table;
    unsigned maxUses;
    MemDepStats st;
};

} // namespace elfsim

#endif // ELFSIM_BACKEND_MEM_DEP_HH
