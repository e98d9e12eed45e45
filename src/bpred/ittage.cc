#include "bpred/ittage.hh"

#include <cmath>

#include "common/logging.hh"

namespace elfsim {

Ittage::Ittage(const IttageParams &params)
    : params(params), allocRng(params.allocSeed)
{
    ELFSIM_ASSERT(params.numTables >= 1 &&
                      params.numTables <= ittageMaxTables,
                  "bad ITTAGE table count %u", params.numTables);

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
    tables.assign(params.numTables * entries, Entry{});
    for (auto &e : tables)
        e.conf = SatCounter(2, 0);

    for (HistState *hs : {&spec, &arch}) {
        hs->indexFold.resize(params.numTables);
        hs->tagFold.resize(params.numTables);
        for (unsigned t = 0; t < params.numTables; ++t) {
            hs->indexFold[t] =
                FoldedHistory(histLengths[t], params.tableEntriesLog2);
            hs->tagFold[t] = FoldedHistory(histLengths[t], params.tagBits);
        }
    }

    base.assign(1ull << params.baseEntriesLog2, Entry{});
    for (auto &e : base)
        e.conf = SatCounter(2, 0);
}

std::uint32_t
Ittage::tableIndex(const HistState &h, Addr pc, unsigned t) const
{
    const std::uint64_t p = pc / instBytes;
    const std::uint64_t v =
        p ^ (p >> (1 + t)) ^ h.indexFold[t].value() ^
        (h.pathHist & ((1ull << std::min(16u, histLengths[t])) - 1));
    return v & ((1u << params.tableEntriesLog2) - 1);
}

std::uint16_t
Ittage::tableTag(const HistState &h, Addr pc, unsigned t) const
{
    const std::uint64_t p = pc / instBytes;
    return (p ^ (h.tagFold[t].value() << 1) ^ h.tagFold[t].value()) &
           ((1u << params.tagBits) - 1);
}

IttagePrediction
Ittage::predictWith(const HistState &h, Addr pc) const
{
    // Lookup memo: see Tage::predictWith.
    const bool isSpec = &h == &spec;
    PredMemo &memo = isSpec ? specMemo : archMemo;
    const std::uint64_t gen = isSpec ? specGen : archGen;
    if (memo.pc == pc && memo.gen == gen)
        return memo.pred;

    IttagePrediction pred;
    pred.valid = true;
    pred.baseIndex =
        (pc / instBytes) & ((1u << params.baseEntriesLog2) - 1);

    for (unsigned t = 0; t < params.numTables; ++t) {
        pred.indices[t] = tableIndex(h, pc, t);
        pred.tags[t] = tableTag(h, pc, t);
    }

    for (int t = int(params.numTables) - 1; t >= 0; --t) {
        const Entry &e = entry(t, pred.indices[t]);
        if (e.valid && e.tag == pred.tags[t]) {
            pred.provider = t;
            pred.target = e.target;
            break;
        }
    }

    if (pred.provider < 0) {
        const Entry &b = base[pred.baseIndex];
        if (b.valid) {
            pred.baseHit = true;
            pred.target = b.target;
        }
    }

    memo.pc = pc;
    memo.gen = gen;
    memo.pred = pred;
    return pred;
}

void
Ittage::push(HistState &h, Addr pc, bool bit)
{
    for (unsigned t = 0; t < params.numTables; ++t) {
        const unsigned len = histLengths[t];
        const bool old = h.ghr.bitAt(len - 1);
        h.indexFold[t].update(bit, old);
        h.tagFold[t].update(bit, old);
    }
    h.ghr.push(bit);
    h.pathHist = (h.pathHist << 2) ^ ((pc / instBytes) & 0xff);
}

void
Ittage::update(Addr pc, const IttagePrediction &pred, Addr target)
{
    (void)pc;
    ELFSIM_ASSERT(pred.valid, "training ITTAGE with empty prediction");
    ++updateCount;
    ++specGen;
    ++archGen;
    if (updateCount % params.uResetPeriod == 0) {
        for (auto &e : tables)
            e.useful >>= 1;
    }

    const bool correct =
        pred.target != invalidAddr && pred.target == target;

    if (pred.provider >= 0) {
        Entry &e = entry(pred.provider, pred.indices[pred.provider]);
        if (e.target == target) {
            e.conf.increment();
            if (e.useful < 3)
                ++e.useful;
        } else {
            if (e.conf.raw() == 0) {
                e.target = target;
                e.conf.increment();
            } else {
                e.conf.decrement();
            }
            if (e.useful > 0)
                --e.useful;
        }
    } else {
        Entry &b = base[pred.baseIndex];
        if (!b.valid) {
            b.valid = true;
            b.target = target;
            b.conf = SatCounter(2, 1);
        } else if (b.target == target) {
            b.conf.increment();
        } else if (b.conf.raw() == 0) {
            b.target = target;
            b.conf = SatCounter(2, 1);
        } else {
            b.conf.decrement();
        }
    }

    // Allocate in a longer-history table on a wrong/missing target.
    if (!correct && pred.provider < int(params.numTables) - 1) {
        const unsigned start = pred.provider + 1;
        int chosen = -1;
        unsigned seen = 0;
        for (unsigned t = start; t < params.numTables; ++t) {
            const Entry &e = entry(t, pred.indices[t]);
            if (!e.valid || e.useful == 0) {
                ++seen;
                if (chosen < 0 ||
                    (seen == 2 && allocRng.chance(1.0 / 3)))
                    chosen = int(t);
                if (seen == 2)
                    break;
            }
        }
        if (chosen >= 0) {
            Entry &e = entry(chosen, pred.indices[chosen]);
            e.valid = true;
            e.tag = pred.tags[chosen];
            e.target = target;
            e.conf = SatCounter(2, 1);
            e.useful = 0;
        } else {
            for (unsigned t = start; t < params.numTables; ++t) {
                Entry &e = entry(t, pred.indices[t]);
                if (e.useful > 0)
                    --e.useful;
            }
        }
    }
}

double
Ittage::storageBytes() const
{
    const double perEntryBits = params.tagBits + 64 + 2 + 2 + 1;
    const double taggedBits = double(params.numTables) *
                              double(1ull << params.tableEntriesLog2) *
                              perEntryBits;
    const double baseBits =
        double(1ull << params.baseEntriesLog2) * (64 + 2 + 1);
    return (taggedBits + baseBits) / 8.0;
}

} // namespace elfsim
