/**
 * @file
 * Three-level Branch Target Buffer (paper Table II):
 *   L0: 24-entry fully associative, 0-cycle (output drives next input)
 *   L1: 256-entry 4-way associative, 1 cycle
 *   L2: 4K-entry 8-way associative, 3 cycles
 *
 * Entries are established at retire (BtbBuilder) into L1+L2; hits at
 * an outer level promote the entry into the inner levels.
 */

#ifndef ELFSIM_BTB_BTB_HH
#define ELFSIM_BTB_BTB_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "btb/btb_entry.hh"
#include "common/stat_fields.hh"
#include "common/types.hh"

namespace elfsim {

/** Geometry of one BTB level. */
struct BtbLevelParams
{
    std::string name = "btb";
    unsigned entries = 256;
    unsigned assoc = 4;       ///< 0 = fully associative
    Cycle latency = 1;
};

/** Per-level BTB counters; the field order is the checkpoint's. */
struct BtbLevelStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("hits", self.hits);
        v("misses", self.misses);
    }
};

/** One set-associative (or fully associative) BTB level. */
class BtbLevel
{
  public:
    explicit BtbLevel(const BtbLevelParams &params);

    /** @return entry starting exactly at @a pc, or nullptr. */
    const BtbEntry *lookup(Addr pc);

    /** Side-effect-free presence probe. */
    bool present(Addr pc) const;

    /** Insert/overwrite the entry at its startPC. */
    void insert(const BtbEntry &entry);

    /**
     * Overwrite the entry only if this level already holds one at the
     * same startPC (used to keep inner levels coherent on amendment).
     * @return true iff an update happened.
     */
    bool updateIfPresent(const BtbEntry &entry);

    /** Drop all entries. */
    void reset();

    const BtbLevelParams &config() const { return params; }
    const BtbLevelStats &stats() const { return st; }

    /** Checkpoint contents, recency state, and hit/miss counters. */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        ar.check(self.ways.size(), "btb level geometry");
        for (auto &w : self.ways)
            ar(w.entry, w.lastUse);
        ar(self.useTick);
        stats::checkpoint(ar, self.st);
    }

  private:
    struct Way
    {
        BtbEntry entry;
        std::uint64_t lastUse = 0;
    };

    unsigned numSets() const { return params.entries / assoc_; }

    /**
     * Set index with XOR-folded upper PC bits. Entry start addresses
     * cluster on 16-instruction strides (MaxInsts splits), so using
     * the low bits directly would leave most sets cold.
     */
    unsigned
    setOf(Addr pc) const
    {
        const std::uint64_t p = pc / instBytes;
        return (p ^ (p >> 9) ^ (p >> 17)) % numSets();
    }

    BtbLevelParams params;
    unsigned assoc_;
    std::vector<Way> ways; // set-major
    std::uint64_t useTick = 0;
    BtbLevelStats st;
};

/** Result of a hierarchical BTB probe. */
struct BtbLookupResult
{
    bool hit = false;
    int level = -1;          ///< 0/1/2; -1 on miss
    Cycle latency = 0;       ///< access latency of the hitting level
    BtbEntry entry{};        ///< copy of the hitting entry
};

/** Parameters of the 3-level hierarchy. */
struct MultiBtbParams
{
    BtbLevelParams l0{"btb.l0", 24, 0, 0};
    BtbLevelParams l1{"btb.l1", 256, 4, 1};
    BtbLevelParams l2{"btb.l2", 4096, 8, 3};
};

/** Hierarchy probe counters; the field order is the checkpoint's. */
struct MultiBtbStats
{
    std::uint64_t lookups = 0;
    std::array<std::uint64_t, 3> levelHits{}; ///< hits at exactly level l

    template <typename Self, typename V>
    static void
    visitFields(Self &self, V &&v)
    {
        v("lookups", self.lookups);
        v("hits_l0", self.levelHits[0]);
        v("hits_l1", self.levelHits[1]);
        v("hits_l2", self.levelHits[2]);
    }
};

/** The 3-level BTB. */
class MultiBtb
{
  public:
    explicit MultiBtb(const MultiBtbParams &params = {});

    /**
     * Probe all levels for an entry starting at @a pc; promotes outer
     * hits into inner levels.
     */
    BtbLookupResult lookup(Addr pc);

    /** Establish (insert) an entry into L1 and L2. */
    void insert(const BtbEntry &entry);

    /** Drop all entries at all levels. */
    void reset();

    /** Side-effect-free presence probe (no stats, no promotion). */
    bool present(Addr pc) const;

    /** Total probes. */
    std::uint64_t lookups() const { return st.lookups; }

    /** Probes that hit at exactly level @a l. */
    std::uint64_t
    hitsAtLevel(unsigned l) const
    {
        return st.levelHits[l];
    }

    /** Fraction of probes hitting at level <= @a l (paper metric). */
    double cumulativeHitRate(unsigned l) const;

    BtbLevel &level(unsigned l) { return levels[l]; }
    const MultiBtbParams &config() const { return params; }

    /** Call @a v(name, counters) for the hierarchy, then each level. */
    template <typename V>
    void
    visitStats(V &&v) const
    {
        v("btb", st);
        for (const BtbLevel &l : levels)
            v(l.config().name.c_str(), l.stats());
    }

    /** Checkpoint all levels plus the hierarchy's probe counters. */
    template <typename Self, typename Ar>
    static void
    visitWarmState(Self &self, Ar &ar)
    {
        for (auto &l : self.levels)
            ar(l);
        stats::checkpoint(ar, self.st);
    }

  private:
    MultiBtbParams params;
    std::vector<BtbLevel> levels;
    MultiBtbStats st;
};

} // namespace elfsim

#endif // ELFSIM_BTB_BTB_HH
