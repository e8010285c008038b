/**
 * @file
 * XPBuffer: the controller-side line cache of Optane DIMMs.
 *
 * Section V-A justifies ASAP's read-modify-write undo creation partly
 * because "XPBuffer in Intel Optane Persistent Memory caches most
 * recently accessed lines. [The undo read] would mostly hit in this
 * cache." We model it as a small fully-associative LRU set of line
 * addresses that makes undo-snapshot reads cheap when they hit.
 *
 * Implementation: a fixed array of capacity nodes, doubly linked by
 * index in recency order (head = most recent), and a FlatMap from line
 * to node. Nodes are handed out in order until the buffer is full;
 * after that a miss reuses the tail node. Nothing allocates per touch,
 * and the node array is zeroed on first touch (ZeroedArray), so a run
 * that never fills the buffer never pays for its full size.
 */

#ifndef ASAP_MEM_XPBUFFER_HH
#define ASAP_MEM_XPBUFFER_HH

#include <cstdint>

#include "sim/flat_map.hh"
#include "sim/zeroed_array.hh"

namespace asap
{

/** Fully-associative LRU recency tracker for media lines. */
class XpBuffer
{
  public:
    explicit XpBuffer(unsigned capacity) : cap(capacity), nodes(capacity) {}

    /** Record an access to @p line; evicts the LRU line when full. */
    void
    touch(std::uint64_t line)
    {
        if (cap == 0)
            return;
        if (const std::uint32_t *n = index.find(line)) {
            unlink(*n);
            pushFront(*n);
            return;
        }
        std::uint32_t n;
        if (used < cap) {
            n = used++;
        } else {
            n = tail;
            unlink(n);
            index.erase(nodes[n].line);
        }
        nodes[n].line = line;
        pushFront(n);
        index[line] = n;
    }

    /** True if @p line is currently resident. */
    bool
    hit(std::uint64_t line) const
    {
        return index.find(line) != nullptr;
    }

    std::size_t size() const { return used; }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    struct Node
    {
        std::uint64_t line;
        std::uint32_t prev; //!< more recent neighbour (kNil at head)
        std::uint32_t next; //!< less recent neighbour (kNil at tail)
    };

    void
    unlink(std::uint32_t n)
    {
        const Node &x = nodes[n];
        (x.prev == kNil ? head : nodes[x.prev].next) = x.next;
        (x.next == kNil ? tail : nodes[x.next].prev) = x.prev;
    }

    void
    pushFront(std::uint32_t n)
    {
        nodes[n].prev = kNil;
        nodes[n].next = head;
        (head == kNil ? tail : nodes[head].prev) = n;
        head = n;
    }

    unsigned cap;
    ZeroedArray<Node> nodes;
    std::uint32_t used = 0;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    FlatMap<std::uint32_t> index;
};

} // namespace asap

#endif // ASAP_MEM_XPBUFFER_HH
