#include "backend/mem_dep.hh"

namespace elfsim {

MemDepPredictor::MemDepPredictor(unsigned entries, unsigned max_uses)
    : table(entries), maxUses(max_uses)
{
}

Addr
MemDepPredictor::storeFor(Addr load_pc)
{
    Entry &e = table[index(load_pc)];
    if (e.loadPC != load_pc)
        return invalidAddr;
    if (++e.uses > maxUses) {
        e = Entry{};
        return invalidAddr;
    }
    return e.storePC;
}

void
MemDepPredictor::train(Addr load_pc, Addr store_pc)
{
    Entry &e = table[index(load_pc)];
    e.loadPC = load_pc;
    e.storePC = store_pc;
    e.uses = 0;
    ++st.trainings;
}

void
MemDepPredictor::reset()
{
    for (Entry &e : table)
        e = Entry{};
}

} // namespace elfsim
