/**
 * @file
 * The physical memory allocator: per-NUMA-node free lists of 4 KiB
 * frames with reference counting (a simulated struct-page refcount).
 * LATR's lazy reclamation leans on the refcount: unmapped pages keep
 * a nonzero count until the background pass drops it, which is what
 * prevents premature reuse (paper section 4.2). A listener observes
 * allocation and final release so the invariant checker can prove no
 * frame is recycled while a TLB still maps it.
 *
 * Setup is proportional to use: no per-frame free list is built.
 * Each node hands out never-allocated ("fresh") frames in ascending
 * order from a cursor, and keeps released frames on an intrusive
 * doubly linked LIFO stack threaded through the per-frame records,
 * which live in one zero-filled allocation (ZeroedArray). Together
 * they realise exactly the order of a notional per-node list [fresh
 * frames descending..., freed frames in push order] popped from the
 * back.
 */

#ifndef LATR_MEM_FRAME_ALLOCATOR_HH_
#define LATR_MEM_FRAME_ALLOCATOR_HH_

#include <cstdint>
#include <vector>

#include "sim/types.hh"
#include "sim/zeroed_array.hh"

namespace latr
{

/** Observes frame lifecycle (used by the invariant checker). */
class FrameListener
{
  public:
    virtual ~FrameListener() = default;

    /** A free frame was handed out (refcount 0 -> 1). */
    virtual void onFrameAlloc(Pfn pfn) = 0;

    /** A frame's refcount dropped to 0 and it returned to the pool. */
    virtual void onFrameFree(Pfn pfn) = 0;
};

/**
 * Per-node physical frame allocator. Frames are globally numbered;
 * node n owns [n * frames_per_node, (n + 1) * frames_per_node).
 */
class FrameAllocator
{
  public:
    /**
     * @param nodes number of NUMA nodes.
     * @param frames_per_node frames owned by each node.
     */
    FrameAllocator(unsigned nodes, std::uint64_t frames_per_node);

    FrameAllocator(const FrameAllocator &) = delete;
    FrameAllocator &operator=(const FrameAllocator &) = delete;

    /** Attach @p listener as the sole observer (nullptr detaches all). */
    void
    setListener(FrameListener *listener)
    {
        listeners_.clear();
        if (listener)
            listeners_.push_back(listener);
    }

    /** Attach an additional observer alongside any already present. */
    void
    addListener(FrameListener *listener)
    {
        if (listener)
            listeners_.push_back(listener);
    }

    /**
     * Allocate one frame, preferring @p node; falls back to other
     * nodes in order of distance-agnostic id. The frame starts with
     * refcount 1.
     * @return the frame, or kPfnInvalid if memory is exhausted.
     */
    Pfn alloc(NodeId node);

    /**
     * Allocate the lowest-numbered free frame of @p node (no
     * fallback) — the compaction daemon's migration target. Linear
     * in the number of released frames on the node (fresh frames
     * cost O(1)); meant for background daemons, not the fault path.
     * @return the frame, or kPfnInvalid if the node is exhausted.
     */
    Pfn allocLowest(NodeId node);

    /**
     * Allocate a 2 MiB huge frame on @p node: the lowest free,
     * kHugePageSpan-aligned run of kHugePageSpan base frames. Every
     * constituent frame gets refcount 1. Finding the run is a scan
     * of per-2-MiB-block busy counts, O(blocks); claiming it is
     * O(kHugePageSpan). Fragmentation makes this fail long before
     * the node is full (which is what the compaction daemon exists
     * to repair).
     * @return the base frame, or kPfnInvalid.
     */
    Pfn allocHuge(NodeId node);

    /** Release a huge frame allocated with allocHuge(). */
    void putHuge(Pfn base);

    /** Increment @p pfn's refcount (page shared by another mapping). */
    void get(Pfn pfn);

    /**
     * Decrement @p pfn's refcount; at zero the frame returns to its
     * node's free list (and the listener fires).
     */
    void put(Pfn pfn);

    /** Current refcount of @p pfn. */
    std::uint32_t refcount(Pfn pfn) const;

    /** Node that owns @p pfn. */
    NodeId nodeOf(Pfn pfn) const;

    /** Frames currently free on @p node (fresh plus released). */
    std::uint64_t freeFrames(NodeId node) const;

    /** Frames currently allocated across all nodes. */
    std::uint64_t allocatedFrames() const { return allocated_; }

    std::uint64_t framesPerNode() const { return framesPerNode_; }
    unsigned nodes() const { return nodes_; }

  private:
    /**
     * Per-frame record. The links thread released frames into their
     * node's freed stack as node-local index + 1 (0 = none), so an
     * all-zero record is a never-allocated frame.
     */
    struct Frame
    {
        std::uint32_t refcount;
        std::uint32_t above; // toward the stack top (newer)
        std::uint32_t below; // toward the stack bottom (older)
    };

    /** Per-2-MiB-block bookkeeping, aligned to the node base. */
    struct Block
    {
        /** Frames of the block with a nonzero refcount. */
        std::uint16_t busy = 0;
        /** allocHuge() claimed the block: none of it is fresh. */
        bool freshTaken = false;
    };

    struct Node
    {
        Pfn base = 0;
        /** Local index of the lowest fresh frame (frames if none). */
        std::uint64_t freshCursor = 0;
        std::uint64_t freshCount = 0;
        /** Freed-stack ends, as local index + 1 (0 = empty). */
        std::uint32_t freedTop = 0;
        std::uint32_t freedBottom = 0;
        std::uint64_t freedCount = 0;
        std::vector<Block> blocks;
    };

    void checkPfn(Pfn pfn) const;

    Frame &
    frameAt(const Node &n, std::uint32_t local) const
    {
        return frames_[n.base + local];
    }

    /** True if @p local has never been handed out on @p n. */
    bool
    isFresh(const Node &n, std::uint64_t local) const
    {
        return local >= n.freshCursor &&
               !n.blocks[local / kHugePageSpan].freshTaken;
    }

    /** Take the lowest fresh frame and advance the cursor. */
    std::uint32_t takeLowestFresh(Node &n);

    /** Move the cursor past blocks allocHuge() has claimed. */
    void skipTakenBlocks(Node &n);

    /**
     * Link @p local into the freed stack directly above the entry
     * @p below (a link; 0 links it in at the bottom).
     */
    void linkAbove(Node &n, std::uint32_t local, std::uint32_t below);

    /** Unlink @p local from the freed stack. */
    void unlink(Node &n, std::uint32_t local);

    /** Hand out a frame just taken off the free pool. */
    Pfn claim(Node &n, std::uint32_t local);

    void
    notifyAlloc(Pfn pfn)
    {
        for (FrameListener *l : listeners_)
            l->onFrameAlloc(pfn);
    }

    void
    notifyFree(Pfn pfn)
    {
        for (FrameListener *l : listeners_)
            l->onFrameFree(pfn);
    }

    unsigned nodes_;
    std::uint64_t framesPerNode_;
    std::vector<Node> nodeState_;
    ZeroedArray<Frame> frames_; // nodes_ * framesPerNode_ records
    std::uint64_t allocated_ = 0;
    std::vector<FrameListener *> listeners_;
};

} // namespace latr

#endif // LATR_MEM_FRAME_ALLOCATOR_HH_
