#include "cache/prefetch.hh"

#include "common/stat_fields.hh"

namespace elfsim {

StridePrefetcher::StridePrefetcher(const StridePrefetcherParams &params,
                                   Cache &target)
    : params(params), target(target), table(params.tableEntries)
{
}

void
StridePrefetcher::train(Addr pc, Addr addr, Cycle now)
{
    ++st.trained;
    Entry &e = table[(pc / instBytes) % table.size()];
    if (e.tag != pc) {
        e = Entry{};
        e.tag = pc;
        e.lastAddr = addr;
        return;
    }

    const std::int64_t stride =
        static_cast<std::int64_t>(addr) -
        static_cast<std::int64_t>(e.lastAddr);
    if (stride != 0 && stride == e.stride) {
        if (e.conf < params.confThreshold)
            ++e.conf;
    } else {
        e.stride = stride;
        e.conf = 0;
    }
    e.lastAddr = addr;

    if (e.conf >= params.confThreshold && e.stride != 0) {
        for (unsigned d = 0; d < params.degree; ++d) {
            const std::int64_t lead =
                e.stride * static_cast<std::int64_t>(
                               params.distance + d);
            const Addr target_addr =
                static_cast<Addr>(static_cast<std::int64_t>(addr) + lead);
            target.prefetch(target_addr, now);
            ++st.issued;
        }
    }
}

void
StridePrefetcher::reset()
{
    for (Entry &e : table)
        e = Entry{};
}

void
StridePrefetcher::saveState(Serializer &s) const
{
    s.u64(table.size());
    for (const Entry &e : table) {
        s.u64(e.tag);
        s.u64(e.lastAddr);
        s.u64(std::uint64_t(e.stride));
        s.u32(e.conf);
    }
    stats::save(s, st);
}

void
StridePrefetcher::loadState(Deserializer &d)
{
    if (d.u64() != table.size())
        throw ParseError("stride_pf: geometry mismatch");
    for (Entry &e : table) {
        e.tag = d.u64();
        e.lastAddr = d.u64();
        e.stride = std::int64_t(d.u64());
        e.conf = d.u32();
    }
    stats::load(d, st);
}

} // namespace elfsim
