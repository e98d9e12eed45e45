/**
 * @file
 * ITTAGE indirect target predictor (Seznec, "A 64-Kbytes ITTAGE
 * indirect branch predictor", CBP-3 2011) — the paper's L1 indirect
 * predictor (4 tagged tables, 3-cycle access, 32KB budget), backed in
 * the front-end by the 1-cycle L0 Branch Target Cache.
 *
 * Uses the same speculative/architectural history split as Tage.
 */

#ifndef ELFSIM_BPRED_ITTAGE_HH
#define ELFSIM_BPRED_ITTAGE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/history.hh"
#include "common/random.hh"
#include "common/sat_counter.hh"
#include "common/types.hh"

namespace elfsim {

/** Compile-time cap on ITTAGE tagged tables. */
constexpr unsigned ittageMaxTables = 8;

/** ITTAGE parameters. Defaults approximate the paper's 32KB budget. */
struct IttageParams
{
    unsigned numTables = 4;
    unsigned tableEntriesLog2 = 9;  ///< 512 entries per tagged table
    unsigned baseEntriesLog2 = 9;   ///< 512-entry tagless base table
    unsigned tagBits = 11;
    unsigned minHist = 4;
    unsigned maxHist = 128;
    unsigned uResetPeriod = 1 << 17;
    std::uint64_t allocSeed = 0x17a6; ///< allocation-RNG seed
};

/** Carried from predict() to update(). */
struct IttagePrediction
{
    Addr target = invalidAddr;   ///< predicted target (invalid = miss)
    int provider = -1;           ///< providing table; -1 = base
    bool baseHit = false;
    bool valid = false;          ///< a real prediction was made
    std::array<std::uint32_t, ittageMaxTables> indices{};
    std::array<std::uint32_t, ittageMaxTables> tags{};
    std::uint32_t baseIndex = 0;
};

/** The ITTAGE predictor. */
class Ittage
{
  public:
    explicit Ittage(const IttageParams &params = {});

    /** Predict the target of the indirect branch at @a pc. */
    IttagePrediction
    predict(Addr pc) const
    {
        return predictWith(spec, pc);
    }

    /** Predict with the architectural history (for commit training
     *  of branches that had no front-end prediction). */
    IttagePrediction
    predictArch(Addr pc) const
    {
        return predictWith(arch, pc);
    }

    /** Push one speculative history bit (same stream as TAGE). */
    void pushSpec(Addr pc, bool bit) { push(spec, pc, bit); ++specGen; }

    /** Push the resolved bit into the architectural history. */
    void pushArch(Addr pc, bool bit) { push(arch, pc, bit); ++archGen; }

    /** Restore the speculative history from the architectural one. */
    void resetSpecToArch() { spec = arch; ++specGen; }

    /** Train with the resolved target. */
    void update(Addr pc, const IttagePrediction &pred, Addr target);

    double storageBytes() const;

    /** Checkpoint the full warm state (tables, histories, RNG; see
     *  common/serialize.hh). A load invalidates the lookup memos. */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        ar.check(self.tables.size(), "ittage tagged-table geometry");
        for (auto &e : self.tables)
            ar(e);
        ar.check(self.base.size(), "ittage base-table geometry");
        for (auto &e : self.base)
            ar(e);
        ar(self.spec, self.arch, self.updateCount, self.allocRng);
        if constexpr (Ar::loading) {
            ++self.specGen;
            ++self.archGen;
        }
    }

    const IttageParams &config() const { return params; }

  private:
    struct Entry
    {
        std::uint16_t tag = 0;
        Addr target = invalidAddr;
        SatCounter conf;    ///< 2-bit hysteresis
        std::uint8_t useful = 0;
        bool valid = false;

        template <typename Self, typename Ar>
        static void
        visitWarmState(Self &self, Ar &ar)
        {
            ar(self.tag, self.target, self.conf, self.useful, self.valid);
        }
    };

    struct HistState
    {
        GlobalHistory ghr{1024};
        std::uint64_t pathHist = 0;
        std::vector<FoldedHistory> indexFold;
        std::vector<FoldedHistory> tagFold;

        template <typename Self, typename Ar>
        static void
        visitWarmState(Self &self, Ar &ar)
        {
            ar(self.ghr, self.pathHist);
            for (std::size_t t = 0; t < self.indexFold.size(); ++t)
                ar(self.indexFold[t], self.tagFold[t]);
        }
    };

    /** Memoized predictWith result for one (history, pc) lookup. */
    struct PredMemo
    {
        Addr pc = invalidAddr;
        std::uint64_t gen = 0;
        IttagePrediction pred;
    };

    IttagePrediction predictWith(const HistState &h, Addr pc) const;
    void push(HistState &h, Addr pc, bool bit);
    std::uint32_t tableIndex(const HistState &h, Addr pc,
                             unsigned t) const;
    std::uint16_t tableTag(const HistState &h, Addr pc,
                           unsigned t) const;

    /** Tagged entry t/idx in the flat table-major array. */
    Entry &
    entry(unsigned t, std::uint32_t idx)
    {
        return tables[(std::size_t(t) << params.tableEntriesLog2) + idx];
    }
    const Entry &
    entry(unsigned t, std::uint32_t idx) const
    {
        return tables[(std::size_t(t) << params.tableEntriesLog2) + idx];
    }

    IttageParams params;
    std::vector<unsigned> histLengths;
    /** All tagged tables, table-major in one contiguous array. */
    std::vector<Entry> tables;
    std::vector<Entry> base; ///< tagless, always "hits" once trained

    HistState spec;
    HistState arch;

    std::uint64_t updateCount = 0;
    mutable Rng allocRng;

    /** Generation counters invalidating the lookup memos whenever the
     *  matching history or any table content changes. */
    std::uint64_t specGen = 1;
    std::uint64_t archGen = 1;
    mutable PredMemo specMemo;
    mutable PredMemo archMemo;
};

} // namespace elfsim

#endif // ELFSIM_BPRED_ITTAGE_HH
