#include "sim/event_queue.hh"

namespace asap
{

EventQueue::~EventQueue()
{
    clear();
}

void
EventQueue::growSlab()
{
    const auto base =
        static_cast<std::uint32_t>(chunks.size() * slotsPerChunk);
    chunks.push_back(std::make_unique<Slot[]>(slotsPerChunk));
    freeSlots.reserve(freeSlots.size() + slotsPerChunk);
    // Push high indices first so the freelist hands out low ones.
    for (std::uint32_t i = slotsPerChunk; i-- > 0;)
        freeSlots.push_back(base + i);
}

std::size_t
EventQueue::clear()
{
    const std::size_t dropped = heap.size();
    for (const Node &n : heap)
        releaseSlot(n.slot);
    heap.clear();
    return dropped;
}

} // namespace asap
