/**
 * @file
 * Bimodal conditional branch predictor: a PC-indexed table of
 * saturating counters. Used standalone as the COND-ELF coupled
 * predictor (2K entries, 3-bit) and inside TAGE as the base predictor.
 */

#ifndef ELFSIM_BPRED_BIMODAL_HH
#define ELFSIM_BPRED_BIMODAL_HH

#include <vector>

#include "common/sat_counter.hh"
#include "common/types.hh"

namespace elfsim {

/** Bimodal predictor parameters. */
struct BimodalParams
{
    unsigned entries = 2048;
    unsigned counterBits = 3;
};

/** PC-indexed saturating-counter direction predictor. */
class Bimodal
{
  public:
    explicit Bimodal(const BimodalParams &params = {});

    /** Predicted direction for @a pc. */
    bool predict(Addr pc) const { return entry(pc).isTaken(); }

    /**
     * @return true iff the counter for @a pc is saturated. COND-ELF
     * only speculates past a conditional when its 3-bit counter is
     * saturated (the paper's filtering mechanism).
     */
    bool saturated(Addr pc) const { return entry(pc).isSaturated(); }

    /** Train with the resolved direction. */
    void update(Addr pc, bool taken) { entry(pc).update(taken); }

    /** Reset all counters to weakly not-taken. */
    void reset();

    unsigned numEntries() const { return params.entries; }

    /** Storage cost in bytes (for the Table II report). */
    double
    storageBytes() const
    {
        return params.entries * params.counterBits / 8.0;
    }

    /** Checkpoint the counter table (see common/serialize.hh). */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        ar.check(self.table.size(), "bimodal geometry");
        for (auto &c : self.table)
            ar(c);
    }

  private:
    SatCounter &entry(Addr pc) { return table[index(pc)]; }
    const SatCounter &entry(Addr pc) const { return table[index(pc)]; }
    std::size_t
    index(Addr pc) const
    {
        return (pc / instBytes) % params.entries;
    }

    BimodalParams params;
    std::vector<SatCounter> table;
};

} // namespace elfsim

#endif // ELFSIM_BPRED_BIMODAL_HH
