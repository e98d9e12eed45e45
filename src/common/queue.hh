/**
 * @file
 * Fixed-capacity FIFO queue used for pipeline decoupling structures
 * (FAQ, fetch buffer, ROB, LSQ, checkpoint queue).
 */

#ifndef ELFSIM_COMMON_QUEUE_HH
#define ELFSIM_COMMON_QUEUE_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace elfsim {

/**
 * Bounded circular FIFO. Indexable from front (0 = oldest) to support
 * structures like the FAQ where the fetcher peeks at the head while
 * prefetch scans older-to-younger.
 */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t capacity)
        : buf(capacity), cap(capacity)
    {
        ELFSIM_ASSERT(capacity > 0, "queue capacity must be non-zero");
    }

    bool empty() const { return count == 0; }
    bool full() const { return count == cap; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return cap; }
    std::size_t freeSlots() const { return cap - count; }

    /** Push a new youngest element. Queue must not be full. */
    void push(const T &v) { pushSlot() = v; }
    void push(T &&v) { pushSlot() = std::move(v); }

    /**
     * Push a new youngest element in place, for the caller to fill:
     * @return its slot, which still holds whatever its last occupant
     * left. Queue must not be full.
     */
    T &
    pushSlot()
    {
        ELFSIM_ASSERT(!full(), "push to full queue");
        T &slot = buf[wrap(head + count)];
        ++count;
        return slot;
    }

    /** Pop and return the oldest element. Queue must not be empty. */
    T
    pop()
    {
        ELFSIM_ASSERT(!empty(), "pop from empty queue");
        T v = std::move(buf[head]);
        head = wrap(head + 1);
        --count;
        return v;
    }

    /** Oldest element. */
    T &front() { ELFSIM_ASSERT(!empty(), "front of empty"); return buf[head]; }
    const T &
    front() const
    {
        ELFSIM_ASSERT(!empty(), "front of empty");
        return buf[head];
    }

    /** Youngest element. */
    T &
    back()
    {
        ELFSIM_ASSERT(!empty(), "back of empty");
        return buf[wrap(head + count - 1)];
    }
    const T &
    back() const
    {
        ELFSIM_ASSERT(!empty(), "back of empty");
        return buf[wrap(head + count - 1)];
    }

    /** Element i positions from the front (0 = oldest). */
    T &
    at(std::size_t i)
    {
        ELFSIM_ASSERT(i < count, "queue index out of range");
        return buf[wrap(head + i)];
    }
    const T &
    at(std::size_t i) const
    {
        ELFSIM_ASSERT(i < count, "queue index out of range");
        return buf[wrap(head + i)];
    }

    /**
     * Buffer position of the element @a i positions from the front.
     * Unlike front-relative indices, a buffer position is *stable*
     * for an element's whole residency: pops at the front do not move
     * it. A position is only reused after its element leaves the
     * queue, so holders of a position must re-validate identity (e.g.
     * by sequence number) before trusting the slot.
     */
    std::size_t
    posOf(std::size_t i) const
    {
        ELFSIM_ASSERT(i < count, "queue index out of range");
        return wrap(head + i);
    }

    /** Direct access by buffer position (see posOf). */
    T &atPos(std::size_t pos) { return buf[pos]; }
    const T &atPos(std::size_t pos) const { return buf[pos]; }

    /**
     * @return true iff buffer position @a pos currently holds a live
     * element. A popped or squashed slot keeps its stale contents, so
     * holders of a stable position must check liveness (plus seq
     * identity) before trusting it.
     */
    bool livePos(std::size_t pos) const { return offsetOf(pos) < count; }

    /**
     * Distance of buffer position @a pos from the front: the front
     * index the element there has, if the position is live (offsets
     * of dead positions are size() or more).
     */
    std::size_t
    offsetOf(std::size_t pos) const
    {
        return pos >= head ? pos - head : pos + cap - head;
    }

    /** Drop the oldest element without moving it out. */
    void
    dropFront()
    {
        ELFSIM_ASSERT(!empty(), "dropFront on empty queue");
        head = wrap(head + 1);
        --count;
    }

    /** Visit every element front-to-back without per-step modulo. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        std::size_t pos = head;
        for (std::size_t i = 0; i < count; ++i) {
            fn(buf[pos]);
            if (++pos == cap)
                pos = 0;
        }
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        std::size_t pos = head;
        for (std::size_t i = 0; i < count; ++i) {
            fn(buf[pos]);
            if (++pos == cap)
                pos = 0;
        }
    }

    /** Remove all elements. */
    void
    clear()
    {
        head = 0;
        count = 0;
    }

    /** Drop the youngest n elements (used on pipeline squash). */
    void
    popBack(std::size_t n)
    {
        ELFSIM_ASSERT(n <= count, "popBack more than size");
        count -= n;
    }

  private:
    /**
     * Reduce head + offset into the buffer. Exact without a divide:
     * head < cap and no offset exceeds cap, so the sum is below 2 cap.
     */
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= cap ? i - cap : i;
    }

    std::vector<T> buf;
    std::size_t cap;
    std::size_t head = 0;
    std::size_t count = 0;
};

/**
 * Binary search a queue whose elements carry an ascending `seq`
 * member (pipeline buffers are filled in fetch order). Replaces the
 * linear scans the fetch-buffer/ROB lookups used to do.
 * @return the element with that seq, or nullptr.
 */
template <typename T, typename Seq>
T *
findSeqInQueue(BoundedQueue<T> &q, Seq seq)
{
    std::size_t lo = 0, hi = q.size();
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (q.at(mid).seq < seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < q.size() && q.at(lo).seq == seq)
        return &q.at(lo);
    return nullptr;
}

} // namespace elfsim

#endif // ELFSIM_COMMON_QUEUE_HH
