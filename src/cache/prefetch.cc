#include "cache/prefetch.hh"

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

} // namespace elfsim
