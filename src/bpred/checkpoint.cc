#include "bpred/checkpoint.hh"

#include "common/logging.hh"

namespace elfsim {

CheckpointQueue::CheckpointQueue(std::size_t capacity)
    : cap(capacity), entries(capacity), payloads(capacity)
{
    ELFSIM_ASSERT(capacity > 0, "checkpoint queue needs capacity");
}

std::uint64_t
CheckpointQueue::allocate(SeqNum seq, bool payload_valid)
{
    ELFSIM_ASSERT(!full(), "checkpoint queue overflow");
    ELFSIM_ASSERT(entries.empty() || entries.back().seq <= seq,
                  "checkpoints must be allocated in fetch order");
    const std::uint64_t id = nextId++;
    entries.push(Entry{id, seq, payload_valid});
    // Squashed ids are reused: clear what their last owner left.
    payloads[id % cap] = CheckpointPayload{};
    return id;
}

long
CheckpointQueue::find(std::uint64_t id) const
{
    if (entries.empty() || id < entries.front().id ||
        id > entries.back().id)
        return -1;
    // Ids are dense within the live window (squash removes a
    // contiguous tail, retire a contiguous head), so index math works.
    const std::size_t off = id - entries.front().id;
    if (off >= entries.size() || entries.at(off).id != id)
        return -1;
    return static_cast<long>(off);
}

bool
CheckpointQueue::has(std::uint64_t id) const
{
    return find(id) >= 0;
}

bool
CheckpointQueue::payloadReady(std::uint64_t id) const
{
    const long i = find(id);
    return i >= 0 && entries.at(std::size_t(i)).payloadValid;
}

void
CheckpointQueue::fillPayload(std::uint64_t id)
{
    const long i = find(id);
    if (i >= 0)
        entries.at(std::size_t(i)).payloadValid = true;
}

void
CheckpointQueue::fillPayloadsUpTo(SeqNum seq)
{
    for (std::size_t i = 0; i < entries.size(); ++i) {
        Entry &e = entries.at(i);
        if (e.seq > seq)
            break;
        e.payloadValid = true;
    }
}

void
CheckpointQueue::squashYoungerThan(SeqNum seq)
{
    while (!entries.empty() && entries.back().seq > seq)
        entries.popBack(1);
    // Reuse the squashed ids so the live window stays dense (their
    // owners are squashed and will never query them again).
    if (!entries.empty())
        nextId = entries.back().id + 1;
}

void
CheckpointQueue::retireUpTo(SeqNum seq)
{
    while (!entries.empty() && entries.front().seq <= seq)
        entries.dropFront();
}

} // namespace elfsim
