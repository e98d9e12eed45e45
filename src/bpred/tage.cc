#include "bpred/tage.hh"

#include <cmath>

#include "common/logging.hh"

namespace elfsim {

Tage::Tage(const TageParams &params)
    : params(params), useAltOnNA(4, 8), allocRng(params.allocSeed)
{
    ELFSIM_ASSERT(params.numTables >= 1 &&
                      params.numTables <= tageMaxTables,
                  "bad TAGE table count %u", params.numTables);
    ELFSIM_ASSERT(params.maxHist < 1024, "history exceeds GHR storage");

    // Geometric history lengths from minHist to maxHist.
    histLengths.resize(params.numTables);
    const double ratio =
        params.numTables > 1
            ? std::pow(double(params.maxHist) / params.minHist,
                       1.0 / (params.numTables - 1))
            : 1.0;
    double h = params.minHist;
    for (unsigned t = 0; t < params.numTables; ++t) {
        histLengths[t] = std::max<unsigned>(1, unsigned(h + 0.5));
        if (t > 0 && histLengths[t] <= histLengths[t - 1])
            histLengths[t] = histLengths[t - 1] + 1;
        h *= ratio;
    }

    const std::size_t entries = 1ull << params.tableEntriesLog2;
    tables.assign(params.numTables * entries, TaggedEntry{});
    for (auto &e : tables) {
        e.ctr = SatCounter(params.ctrBits, 0);
        e.ctr.resetWeak();
    }

    for (HistState *h2 : {&spec, &arch}) {
        h2->indexFold.resize(params.numTables);
        h2->tagFold0.resize(params.numTables);
        h2->tagFold1.resize(params.numTables);
        for (unsigned t = 0; t < params.numTables; ++t) {
            h2->indexFold[t] =
                FoldedHistory(histLengths[t], params.tableEntriesLog2);
            h2->tagFold0[t] =
                FoldedHistory(histLengths[t], params.tagBits);
            h2->tagFold1[t] =
                FoldedHistory(histLengths[t], params.tagBits - 1);
        }
    }

    base.assign(1ull << params.baseEntriesLog2, SatCounter(2, 1));
}

std::uint32_t
Tage::tableIndex(const HistState &h, Addr pc, unsigned t) const
{
    const std::uint64_t p = pc / instBytes;
    const std::uint64_t v =
        p ^ (p >> (params.tableEntriesLog2 - (t % 4))) ^
        h.indexFold[t].value() ^
        (h.pathHist &
         ((1ull << std::min(16u, histLengths[t])) - 1));
    return v & ((1u << params.tableEntriesLog2) - 1);
}

std::uint16_t
Tage::tableTag(const HistState &h, Addr pc, unsigned t) const
{
    const std::uint64_t p = pc / instBytes;
    const std::uint64_t v =
        p ^ h.tagFold0[t].value() ^ (h.tagFold1[t].value() << 1);
    return v & ((1u << params.tagBits) - 1);
}

TagePrediction
Tage::predictWith(const HistState &h, Addr pc) const
{
    // Lookup memo: checkpoint and commit paths re-predict the same pc
    // against an unchanged history; reuse the indices/tags instead of
    // recomputing every table's fold/hash.
    const bool isSpec = &h == &spec;
    PredMemo &memo = isSpec ? specMemo : archMemo;
    const std::uint64_t gen = isSpec ? specGen : archGen;
    if (memo.pc == pc && memo.gen == gen)
        return memo.pred;

    TagePrediction pred;
    pred.valid = true;
    pred.baseIndex = baseIndexOf(pc);
    pred.baseTaken = base[pred.baseIndex].isTaken();

    for (unsigned t = 0; t < params.numTables; ++t) {
        pred.indices[t] = tableIndex(h, pc, t);
        pred.tags[t] = tableTag(h, pc, t);
    }

    // Provider = hitting table with the longest history; alt = next.
    for (int t = int(params.numTables) - 1; t >= 0; --t) {
        const TaggedEntry &e = entry(t, pred.indices[t]);
        if (e.valid && e.tag == pred.tags[t]) {
            if (pred.provider < 0) {
                pred.provider = t;
            } else {
                pred.alt = t;
                break;
            }
        }
    }

    if (pred.provider >= 0) {
        const TaggedEntry &p =
            entry(pred.provider, pred.indices[pred.provider]);
        const bool providerTaken = p.ctr.isTaken();
        pred.providerWeak = p.ctr.isWeak();
        if (pred.alt >= 0) {
            const TaggedEntry &a =
                entry(pred.alt, pred.indices[pred.alt]);
            pred.altTaken = a.ctr.isTaken();
        } else {
            pred.altTaken = pred.baseTaken;
        }
        // Newly-allocated weak entries may be worse than altpred.
        if (pred.providerWeak && useAltOnNA.isTaken())
            pred.taken = pred.altTaken;
        else
            pred.taken = providerTaken;
    } else {
        pred.altTaken = pred.baseTaken;
        pred.taken = pred.baseTaken;
    }

    memo.pc = pc;
    memo.gen = gen;
    memo.pred = pred;
    return pred;
}

void
Tage::push(HistState &h, Addr pc, bool bit)
{
    for (unsigned t = 0; t < params.numTables; ++t) {
        const unsigned len = histLengths[t];
        const bool old = h.ghr.bitAt(len - 1);
        h.indexFold[t].update(bit, old);
        h.tagFold0[t].update(bit, old);
        h.tagFold1[t].update(bit, old);
    }
    h.ghr.push(bit);
    h.pathHist = (h.pathHist << 1) ^ ((pc / instBytes) & 0x3f);
}

void
Tage::update(Addr pc, const TagePrediction &pred, bool taken)
{
    (void)pc;
    ELFSIM_ASSERT(pred.valid, "training TAGE with an empty prediction");
    ++updateCount;
    ++specGen;
    ++archGen;

    // Periodic aging of useful bits.
    if (updateCount % params.uResetPeriod == 0) {
        for (auto &e : tables)
            e.useful >>= 1;
    }

    const bool mispredicted = pred.taken != taken;

    if (pred.provider >= 0) {
        TaggedEntry &p =
            entry(pred.provider, pred.indices[pred.provider]);
        // Track whether altpred would have been better for weak
        // entries.
        if (pred.providerWeak && pred.altTaken != p.ctr.isTaken()) {
            if (pred.altTaken == taken)
                useAltOnNA.increment();
            else
                useAltOnNA.decrement();
        }
        p.ctr.update(taken);
        // Useful when the final prediction was right and alt wrong.
        if (pred.taken == taken && pred.altTaken != taken) {
            if (p.useful < 3)
                ++p.useful;
        } else if (pred.taken != taken && pred.altTaken == taken) {
            if (p.useful > 0)
                --p.useful;
        }
    } else {
        base[pred.baseIndex].update(taken);
    }

    // Also train the base when it provided the alt prediction.
    if (pred.provider >= 0 && pred.alt < 0)
        base[pred.baseIndex].update(taken);

    // Allocate a new entry in a longer-history table on misprediction.
    if (mispredicted && pred.provider < int(params.numTables) - 1) {
        const unsigned start = pred.provider + 1;
        int chosen = -1;
        unsigned seen = 0;
        for (unsigned t = start; t < params.numTables; ++t) {
            const TaggedEntry &e = entry(t, pred.indices[t]);
            if (!e.valid || e.useful == 0) {
                ++seen;
                // First candidate wins with probability 2/3.
                if (chosen < 0 ||
                    (seen == 2 && allocRng.chance(1.0 / 3)))
                    chosen = int(t);
                if (seen == 2)
                    break;
            }
        }
        if (chosen >= 0) {
            TaggedEntry &e = entry(chosen, pred.indices[chosen]);
            e.valid = true;
            e.tag = pred.tags[chosen];
            e.ctr = SatCounter(params.ctrBits, 0);
            e.ctr.resetWeak();
            e.ctr.update(taken);
            e.useful = 0;
        } else {
            // No victim: age the candidates.
            for (unsigned t = start; t < params.numTables; ++t) {
                TaggedEntry &e = entry(t, pred.indices[t]);
                if (e.useful > 0)
                    --e.useful;
            }
        }
    }
}

double
Tage::storageBytes() const
{
    const double taggedBits =
        double(params.numTables) * double(1ull << params.tableEntriesLog2) *
        (params.tagBits + params.ctrBits + 2 + 1);
    const double baseBits = double(1ull << params.baseEntriesLog2) * 2;
    return (taggedBits + baseBits) / 8.0;
}

} // namespace elfsim
