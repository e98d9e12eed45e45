/**
 * @file
 * TAGE conditional branch predictor (Seznec, "A New Case for the TAGE
 * Branch Predictor", MICRO 2011) — the paper's 32KB decoupled
 * conditional predictor (8 tagged tables backed by a bimodal base).
 *
 * History management follows the standard speculative/architectural
 * split: the *speculative* history is pushed at prediction time and
 * is what predict() uses; the *architectural* history is pushed at
 * commit. On a pipeline flush the core restores the speculative
 * history from the architectural one and replays the resolved
 * outcomes of the still-in-flight older branches (the functional
 * equivalent of restoring a checkpoint-queue entry; the checkpoint
 * queue itself is modeled structurally in bpred/checkpoint.hh).
 */

#ifndef ELFSIM_BPRED_TAGE_HH
#define ELFSIM_BPRED_TAGE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/history.hh"
#include "common/random.hh"
#include "common/sat_counter.hh"
#include "common/types.hh"

namespace elfsim {

/** Compile-time cap on tagged tables (sizes prediction arrays). */
constexpr unsigned tageMaxTables = 12;

/** TAGE parameters. Defaults approximate the paper's 32KB budget. */
struct TageParams
{
    unsigned numTables = 8;        ///< tagged tables
    unsigned baseEntriesLog2 = 14; ///< 16K-entry 2-bit bimodal base
    unsigned tableEntriesLog2 = 10;///< 1K entries per tagged table
    unsigned tagBits = 11;
    unsigned ctrBits = 3;
    unsigned minHist = 4;          ///< shortest history length
    unsigned maxHist = 256;        ///< longest history length
    unsigned uResetPeriod = 1 << 18; ///< useful-bit aging period
    std::uint64_t allocSeed = 0xa11c; ///< allocation-RNG seed
};

/**
 * Everything the consumer needs to carry from predict() to update():
 * the prediction itself, the provider components, and the table
 * indices/tags computed with the at-prediction history.
 */
struct TagePrediction
{
    bool taken = false;        ///< final TAGE prediction
    bool baseTaken = false;    ///< bimodal base prediction (the
                               ///< component used on L0 BTB hits)
    int provider = -1;         ///< providing tagged table; -1 = base
    int alt = -1;              ///< alternate provider; -1 = base
    bool altTaken = false;
    bool providerWeak = false; ///< provider counter near midpoint
    bool valid = false;        ///< a real prediction was made
    std::array<std::uint32_t, tageMaxTables> indices{};
    std::array<std::uint32_t, tageMaxTables> tags{};
    std::uint32_t baseIndex = 0;
};

/** The TAGE predictor. */
class Tage
{
  public:
    explicit Tage(const TageParams &params = {});

    /** Predict @a pc with the current speculative history. */
    TagePrediction predict(Addr pc) const { return predictWith(spec, pc); }

    /**
     * Predict @a pc with the architectural history. Used to train on
     * branches that never received a front-end prediction (e.g.
     * branches fetched in ELF coupled mode): on the correct path the
     * architectural history at commit equals the speculative history
     * the front-end would have used.
     */
    TagePrediction
    predictArch(Addr pc) const
    {
        return predictWith(arch, pc);
    }

    /**
     * Speculatively push one history bit (for every predicted
     * conditional with its predicted direction, and 'true' for every
     * taken non-conditional control transfer).
     */
    void pushSpec(Addr pc, bool bit) { push(spec, pc, bit); ++specGen; }

    /** Push the resolved bit into the architectural history. */
    void pushArch(Addr pc, bool bit) { push(arch, pc, bit); ++archGen; }

    /** Restore the speculative history from the architectural one. */
    void resetSpecToArch() { spec = arch; ++specGen; }

    /**
     * Train with the resolved direction. @a pred must be the
     * prediction object produced for this dynamic branch.
     */
    void update(Addr pc, const TagePrediction &pred, bool taken);

    /** Storage cost in bytes. */
    double storageBytes() const;

    /** Checkpoint the full warm state (tables, histories, RNG; see
     *  common/serialize.hh). A load invalidates the lookup memos. */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        ar.check(self.tables.size(), "tage tagged-table geometry");
        for (auto &e : self.tables)
            ar(e.tag, e.ctr, e.useful, e.valid);
        ar.check(self.base.size(), "tage base-table geometry");
        for (auto &c : self.base)
            ar(c);
        ar(self.spec, self.arch, self.useAltOnNA, self.updateCount,
           self.allocRng);
        if constexpr (Ar::loading) {
            ++self.specGen;
            ++self.archGen;
        }
    }

    const TageParams &config() const { return params; }

  private:
    struct TaggedEntry
    {
        std::uint16_t tag = 0;
        SatCounter ctr;
        std::uint8_t useful = 0;
        bool valid = false;
    };

    /** One complete history state (GHR + path + per-table folds). */
    struct HistState
    {
        GlobalHistory ghr{1024};
        std::uint64_t pathHist = 0;
        std::vector<FoldedHistory> indexFold;
        std::vector<FoldedHistory> tagFold0;
        std::vector<FoldedHistory> tagFold1;

        template <typename Self, typename Ar>
        static void
        visitWarmState(Self &self, Ar &ar)
        {
            ar(self.ghr, self.pathHist);
            for (std::size_t t = 0; t < self.indexFold.size(); ++t)
                ar(self.indexFold[t], self.tagFold0[t], self.tagFold1[t]);
        }
    };

    /** Memoized predictWith result for one (history, pc) lookup. */
    struct PredMemo
    {
        Addr pc = invalidAddr;
        std::uint64_t gen = 0;
        TagePrediction pred;
    };

    TagePrediction predictWith(const HistState &h, Addr pc) const;
    void push(HistState &h, Addr pc, bool bit);
    std::uint32_t tableIndex(const HistState &h, Addr pc,
                             unsigned t) const;
    std::uint16_t tableTag(const HistState &h, Addr pc,
                           unsigned t) const;
    std::uint32_t
    baseIndexOf(Addr pc) const
    {
        return (pc / instBytes) & ((1u << params.baseEntriesLog2) - 1);
    }

    /** Tagged entry t/idx in the flat table-major array. */
    TaggedEntry &
    entry(unsigned t, std::uint32_t idx)
    {
        return tables[(std::size_t(t) << params.tableEntriesLog2) + idx];
    }
    const TaggedEntry &
    entry(unsigned t, std::uint32_t idx) const
    {
        return tables[(std::size_t(t) << params.tableEntriesLog2) + idx];
    }

    TageParams params;
    std::vector<unsigned> histLengths;
    /** All tagged tables, table-major in one contiguous array. */
    std::vector<TaggedEntry> tables;
    std::vector<SatCounter> base;

    HistState spec;
    HistState arch;

    SatCounter useAltOnNA; ///< prefer altpred for weak new entries
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

#endif // ELFSIM_BPRED_TAGE_HH
