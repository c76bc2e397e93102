#include "mem/frame_allocator.hh"

#include "sim/logging.hh"

namespace latr
{

// Allocation order is that of a notional per-node LIFO list
// [fresh frames descending..., freed frames in push order], popped
// from the back: released frames come out newest first, and only
// then fresh frames, lowest first. The fresh part is a cursor plus
// the blocks allocHuge() has claimed; the freed part is a doubly
// linked stack, so removing a frame from the middle of it (a huge
// claim, allocLowest()) keeps the order of the rest.

namespace
{

std::uint64_t
checkedFramesPerNode(unsigned nodes, std::uint64_t frames_per_node)
{
    if (nodes == 0 || frames_per_node == 0)
        fatal("frame allocator needs at least one node and one frame");
    // Freed-stack links are node-local index + 1 in 32 bits.
    if (frames_per_node >= 0xffffffffULL)
        fatal("frame allocator: %llu frames per node is too many",
              static_cast<unsigned long long>(frames_per_node));
    return frames_per_node;
}

} // namespace

FrameAllocator::FrameAllocator(unsigned nodes,
                               std::uint64_t frames_per_node)
    : nodes_(nodes),
      framesPerNode_(checkedFramesPerNode(nodes, frames_per_node)),
      frames_(static_cast<std::size_t>(nodes) * frames_per_node)
{
    const std::uint64_t blocks =
        (frames_per_node + kHugePageSpan - 1) / kHugePageSpan;
    nodeState_.resize(nodes);
    for (unsigned n = 0; n < nodes; ++n) {
        Node &node = nodeState_[n];
        node.base = static_cast<Pfn>(n) * frames_per_node;
        node.freshCount = frames_per_node;
        node.blocks.resize(blocks);
    }
}

void
FrameAllocator::checkPfn(Pfn pfn) const
{
    if (pfn >= static_cast<Pfn>(nodes_) * framesPerNode_)
        panic("pfn %llu out of range",
              static_cast<unsigned long long>(pfn));
}

void
FrameAllocator::skipTakenBlocks(Node &n)
{
    while (n.freshCursor < framesPerNode_ &&
           n.blocks[n.freshCursor / kHugePageSpan].freshTaken)
        n.freshCursor = (n.freshCursor / kHugePageSpan + 1) *
                        kHugePageSpan; // taken blocks are whole
}

std::uint32_t
FrameAllocator::takeLowestFresh(Node &n)
{
    const auto local = static_cast<std::uint32_t>(n.freshCursor);
    --n.freshCount;
    ++n.freshCursor;
    skipTakenBlocks(n);
    return local;
}

void
FrameAllocator::linkAbove(Node &n, std::uint32_t local,
                          std::uint32_t below)
{
    Frame &f = frameAt(n, local);
    f.below = below;
    f.above = below ? frameAt(n, below - 1).above : n.freedBottom;
    if (f.above)
        frameAt(n, f.above - 1).below = local + 1;
    else
        n.freedTop = local + 1;
    if (below)
        frameAt(n, below - 1).above = local + 1;
    else
        n.freedBottom = local + 1;
    ++n.freedCount;
}

void
FrameAllocator::unlink(Node &n, std::uint32_t local)
{
    Frame &f = frameAt(n, local);
    if (f.above)
        frameAt(n, f.above - 1).below = f.below;
    else
        n.freedTop = f.below;
    if (f.below)
        frameAt(n, f.below - 1).above = f.above;
    else
        n.freedBottom = f.above;
    f.above = f.below = 0;
    --n.freedCount;
}

Pfn
FrameAllocator::claim(Node &n, std::uint32_t local)
{
    const Pfn pfn = n.base + local;
    Frame &f = frames_[pfn];
    if (f.refcount != 0)
        panic("free list held frame %llu with refcount %u",
              static_cast<unsigned long long>(pfn), f.refcount);
    f.refcount = 1;
    ++n.blocks[local / kHugePageSpan].busy;
    ++allocated_;
    notifyAlloc(pfn);
    return pfn;
}

Pfn
FrameAllocator::alloc(NodeId node)
{
    if (node >= nodes_)
        panic("alloc from nonexistent node %u", node);
    for (unsigned i = 0; i < nodes_; ++i) {
        Node &n = nodeState_[(node + i) % nodes_];
        if (n.freedTop) {
            const std::uint32_t local = n.freedTop - 1;
            unlink(n, local);
            return claim(n, local);
        }
        if (n.freshCount)
            return claim(n, takeLowestFresh(n));
    }
    return kPfnInvalid;
}

Pfn
FrameAllocator::allocLowest(NodeId node)
{
    if (node >= nodes_)
        panic("allocLowest from nonexistent node %u", node);
    Node &n = nodeState_[node];
    std::uint32_t lowest_freed = 0; // link
    for (std::uint32_t x = n.freedTop; x; x = frameAt(n, x - 1).below)
        if (!lowest_freed || x < lowest_freed)
            lowest_freed = x;
    // Mirror the notional list's swap-with-back removal of the
    // minimum: the top freed frame takes the minimum's place.
    if (n.freshCount &&
        (!lowest_freed || n.freshCursor < lowest_freed - 1u)) {
        const std::uint32_t local = takeLowestFresh(n);
        // The lowest fresh frame sits right under the freed stack,
        // so the top freed frame moves to the stack's bottom.
        if (n.freedTop) {
            const std::uint32_t top = n.freedTop - 1;
            unlink(n, top);
            linkAbove(n, top, 0);
        }
        return claim(n, local);
    }
    if (!lowest_freed)
        return kPfnInvalid;
    const std::uint32_t local = lowest_freed - 1;
    if (n.freedTop != lowest_freed) {
        const std::uint32_t top = n.freedTop - 1;
        unlink(n, top);
        const std::uint32_t below = frameAt(n, local).below;
        unlink(n, local);
        linkAbove(n, top, below);
    } else {
        unlink(n, local);
    }
    return claim(n, local);
}

Pfn
FrameAllocator::allocHuge(NodeId node)
{
    if (node >= nodes_)
        panic("allocHuge from nonexistent node %u", node);
    Node &n = nodeState_[node];
    // Only whole blocks qualify; a partial tail block never does.
    const std::uint64_t whole = framesPerNode_ / kHugePageSpan;
    for (std::uint64_t b = 0; b < whole; ++b) {
        Block &block = n.blocks[b];
        if (block.busy != 0)
            continue;
        // Claim the run: take every frame out of the free pool, then
        // hand them out in ascending order.
        const auto start = static_cast<std::uint32_t>(b * kHugePageSpan);
        const std::uint32_t end = start + kHugePageSpan;
        for (std::uint32_t local = start; local < end; ++local) {
            if (isFresh(n, local))
                --n.freshCount;
            else
                unlink(n, local);
        }
        block.freshTaken = true;
        skipTakenBlocks(n);
        for (std::uint32_t local = start; local < end; ++local)
            claim(n, local);
        return n.base + start;
    }
    return kPfnInvalid;
}

void
FrameAllocator::putHuge(Pfn base)
{
    checkPfn(base);
    if (base % kHugePageSpan != 0)
        panic("putHuge on unaligned frame %llu",
              static_cast<unsigned long long>(base));
    // Base frame first: the invariant checker keys huge TLB entries
    // by the base frame, so a premature release is caught there.
    for (Pfn f = base; f < base + kHugePageSpan; ++f)
        put(f);
}

void
FrameAllocator::get(Pfn pfn)
{
    checkPfn(pfn);
    if (frames_[pfn].refcount == 0)
        panic("get() on free frame %llu",
              static_cast<unsigned long long>(pfn));
    ++frames_[pfn].refcount;
}

void
FrameAllocator::put(Pfn pfn)
{
    checkPfn(pfn);
    Frame &f = frames_[pfn];
    if (f.refcount == 0)
        panic("put() on free frame %llu",
              static_cast<unsigned long long>(pfn));
    if (--f.refcount == 0) {
        --allocated_;
        notifyFree(pfn);
        Node &n = nodeState_[nodeOf(pfn)];
        const auto local = static_cast<std::uint32_t>(pfn - n.base);
        --n.blocks[local / kHugePageSpan].busy;
        linkAbove(n, local, n.freedTop);
    }
}

std::uint32_t
FrameAllocator::refcount(Pfn pfn) const
{
    checkPfn(pfn);
    return frames_[pfn].refcount;
}

NodeId
FrameAllocator::nodeOf(Pfn pfn) const
{
    checkPfn(pfn);
    return static_cast<NodeId>(pfn / framesPerNode_);
}

std::uint64_t
FrameAllocator::freeFrames(NodeId node) const
{
    if (node >= nodes_)
        panic("freeFrames of nonexistent node %u", node);
    const Node &n = nodeState_[node];
    return n.freshCount + n.freedCount;
}

} // namespace latr
