/**
 * @file
 * Incrementally-maintained resource bookkeeping for the spatial
 * scheduler's hot loop.
 *
 * The scheduler historically recomputed global state from scratch on
 * every probe: edge usage was a `std::map<EdgeId, vector<ValueKey>>`
 * rebuilt by walking every route in every region, and node occupancy
 * was a set of `std::map`s rebuilt inside every `evaluate()`. The
 * UsageTracker replaces both with flat arrays indexed by dense
 * (config-group, EdgeId/NodeId) coordinates, updated by O(route)
 * hooks from `place`/`unplace`/route-insert/route-erase instead of
 * rebuilt on demand.
 *
 * Copy semantics: the tracker is owned by the SpatialScheduler, *not*
 * by the Schedule. Schedules stay plain value types (the DSE Explorer
 * copies them freely into its repair cache and candidate batches);
 * the scheduler rebuilds the tracker from the schedule it is handed at
 * the top of `run()` and keeps it in sync through its own mutations.
 * Rebuilding costs one full walk of the schedule's routes — the same
 * work a single `edgeUsage()` call used to do — so a copy is never
 * charged for state it may not use.
 *
 * All queries are order-independent aggregates (distinct counts,
 * occupancy totals), so the internal small-vector entry order — which
 * is permuted by refcounted insert/erase — never affects results.
 */

#ifndef DSA_MAPPER_USAGE_TRACKER_H
#define DSA_MAPPER_USAGE_TRACKER_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "adg/adg.h"
#include "dfg/program.h"
#include "mapper/schedule.h"

namespace dsa::mapper {

/** Identity of a routed value: (region, producer vertex). */
using ValueKey = std::pair<int, dfg::VertexId>;

class UsageTracker
{
  public:
    /** One distinct value on an edge / pass-through PE + refcount. */
    struct ValCount
    {
        ValueKey val;
        int count = 0;
    };

    /** Probe journal: an edge whose usage changed, with prior state. */
    struct EdgeTouch
    {
        int group = 0;
        adg::EdgeId edge = adg::kInvalidEdge;
        int oldDistinct = 0;
    };

    /** Probe journal: a PE whose occupancy changed, with prior state. */
    struct PeTouch
    {
        int group = 0;
        adg::NodeId node = adg::kInvalidNode;
        int oldInst = 0;
        int oldPass = 0;
    };

    UsageTracker() = default;

    /**
     * Bind to a (program, hardware) pair. @p regionGroupIdx maps each
     * region to a dense config-group index in [0, numGroups);
     * @p regionClass maps each region to its concurrency class (used
     * for stream-engine occupancy) in [0, numClasses).
     */
    void init(const dfg::DecoupledProgram &prog, const adg::Adg &adg,
              const std::vector<int> &regionGroupIdx, int numGroups,
              const std::vector<int> &regionClass, int numClasses);

    /** Reset to the state of @p s (one full walk of its routes). */
    void rebuild(const Schedule &s);

    /// @name Mutation hooks (called by the scheduler on every change)
    /// @{
    /**
     * Account one route carrying @p val. @p countPassThrough charges
     * interior PEs a pass-through slot (value/recurrence routes do;
     * cross-region forwards historically do not).
     */
    void addRoute(int region, const ValueKey &val, const Route &r,
                  bool countPassThrough);
    void removeRoute(int region, const ValueKey &val, const Route &r,
                     bool countPassThrough);
    /** Account an instruction vertex (un)mapped onto PE @p n. */
    void mapInstruction(int region, adg::NodeId n, int delta);
    /** Account a port vertex with @p lanes (un)mapped onto sync @p n. */
    void mapPort(int region, adg::NodeId n, int lanes, int delta);
    /** Account a memory stream (un)bound to memory @p n. */
    void bindStream(int region, adg::NodeId n, int delta);
    /// @}

    /// @name Queries (all O(1) or O(values-on-entry))
    /// @{
    int groupOf(int region) const { return regionGroupIdx_[region]; }
    int numGroups() const { return numGroups_; }

    int distinctOnEdge(int group, adg::EdgeId e) const
    {
        // Reads the dense mirror, not edgeVals_: the route searches
        // call this for every relaxed edge, and one contiguous
        // uint16 load beats chasing a scattered vector header.
        return edgeDistinct_[flatE(group, e)];
    }
    bool valueOnEdge(int group, adg::EdgeId e, const ValueKey &val) const
    {
        // Bit test on the per-(group, value) edge bitset: the route
        // searches ask this for every congested edge they relax, so it
        // must not scan the edge's value list.
        size_t w = flatV(group, val) * edgeWords_ +
                   (static_cast<size_t>(e) >> 6);
        return (valEdgeBits_[w] >> (static_cast<size_t>(e) & 63)) & 1;
    }

    int peInstCount(int group, adg::NodeId n) const
    {
        return peInst_[flatN(group, n)];
    }
    int pePassDistinct(int group, adg::NodeId n) const
    {
        return static_cast<int>(pePass_[flatN(group, n)].size());
    }
    int syncLaneCount(int group, adg::NodeId n) const
    {
        return syncLanes_[flatN(group, n)];
    }
    int memStreamCount(int cls, adg::NodeId n) const
    {
        return memCnt_[flatC(cls, n)];
    }

    /**
     * Incremental content hash over one group's edge-usage state: the
     * XOR of a per-(edge, value) mix for every distinct value present
     * on every edge of the group. Because XOR is self-inverse, the
     * hash returns to its previous value whenever the state does —
     * e.g. across a probe's place/unplace round trip — so it acts as
     * the route cache's congestion epoch: the routing cost function
     * reads only distinct-value sets (`distinctOnEdge`/`valueOnEdge`),
     * which this hash pins exactly (refcounts above 1 don't change
     * costs and are deliberately excluded). Cached routes are reused
     * iff the hash matches, exact up to 64-bit collision (policed by
     * `SchedOptions::checkRoutes`).
     */
    uint64_t routeStateHash(int group) const { return groupHash_[group]; }

    /**
     * Number of distinct edges in @p group currently carrying @p val.
     * Bounds the total reuse discount a route for @p val can collect;
     * the A* heuristic subtracts it to stay admissible.
     */
    int edgesCarrying(int group, const ValueKey &val) const
    {
        return carry_[flatV(group, val)];
    }

    /**
     * @p val's edge bitset in @p group, edgeWords() words long: bit
     * (e & 63) of word (e >> 6) is set iff edge e carries @p val.
     */
    const uint64_t *valueEdgeBits(int group, const ValueKey &val) const
    {
        return &valEdgeBits_[flatV(group, val) * edgeWords_];
    }
    size_t edgeWords() const { return edgeWords_; }

    /** (group, edge) pairs with at least one routed value. */
    const std::vector<std::pair<int, adg::EdgeId>> &activeEdges() const
    {
        return activeEdges_;
    }
    /** (group, PE) pairs with instructions or pass-throughs. */
    const std::vector<std::pair<int, adg::NodeId>> &activePes() const
    {
        return activePes_;
    }
    /** (group, sync) pairs with mapped port lanes. */
    const std::vector<std::pair<int, adg::NodeId>> &activeSyncs() const
    {
        return activeSyncs_;
    }
    /** (class, memory) pairs with bound streams. */
    const std::vector<std::pair<int, adg::NodeId>> &activeMems() const
    {
        return activeMems_;
    }
    /// @}

    /// @name Probe journaling (delta evaluation)
    /// @{
    /**
     * Start recording first-touch prior state for every edge / PE
     * entry mutated until endProbe(). The scheduler probes a candidate
     * by place -> delta-cost -> unplace; the journal is what makes the
     * delta O(changed routes).
     */
    void beginProbe();
    void endProbe();
    const std::vector<EdgeTouch> &touchedEdges() const { return jEdges_; }
    const std::vector<PeTouch> &touchedPes() const { return jPes_; }
    /// @}

    /**
     * Deep semantic comparison against @p other (same init assumed):
     * equal distinct-value sets, refcounts, and occupancy everywhere.
     * Used by SchedOptions::checkIncremental to assert the hook-
     * maintained state matches a from-scratch rebuild.
     * @param why  human-readable first difference (optional).
     */
    bool equals(const UsageTracker &other, std::string *why = nullptr) const;

  private:
    size_t flatE(int group, adg::EdgeId e) const
    {
        return static_cast<size_t>(group) * static_cast<size_t>(edgeBound_) +
               static_cast<size_t>(e);
    }
    size_t flatN(int group, adg::NodeId n) const
    {
        return static_cast<size_t>(group) * static_cast<size_t>(nodeBound_) +
               static_cast<size_t>(n);
    }
    size_t flatC(int cls, adg::NodeId n) const
    {
        return static_cast<size_t>(cls) * static_cast<size_t>(nodeBound_) +
               static_cast<size_t>(n);
    }
    size_t flatV(int group, const ValueKey &val) const
    {
        return static_cast<size_t>(group) * static_cast<size_t>(vertTotal_) +
               static_cast<size_t>(vertOff_[val.first]) +
               static_cast<size_t>(val.second);
    }
    static uint64_t edgeValMix(adg::EdgeId e, const ValueKey &val);

    void addValue(int group, adg::EdgeId e, const ValueKey &val);
    void removeValue(int group, adg::EdgeId e, const ValueKey &val);
    void addPass(int group, adg::NodeId n, const ValueKey &val);
    void removePass(int group, adg::NodeId n, const ValueKey &val);
    void journalEdge(int group, adg::EdgeId e);
    void journalPe(int group, adg::NodeId n);

    /** Swap-remove bookkeeping for the active-entry lists. */
    template <typename Id>
    void activate(std::vector<std::pair<int, Id>> &list,
                  std::vector<int> &pos, size_t flat, int group, Id id);
    template <typename Id>
    void deactivate(std::vector<std::pair<int, Id>> &list,
                    std::vector<int> &pos, size_t flat);

    const dfg::DecoupledProgram *prog_ = nullptr;
    const adg::Adg *adg_ = nullptr;
    std::vector<int> regionGroupIdx_;
    std::vector<int> regionClass_;
    int numGroups_ = 0;
    int numClasses_ = 0;
    int edgeBound_ = 0;
    int nodeBound_ = 0;

    // Flat per-(group, id) state.
    std::vector<std::vector<ValCount>> edgeVals_;
    /** Dense mirror of edgeVals_[f].size() (hot in route searches). */
    std::vector<uint16_t> edgeDistinct_;
    /** Per-group route-state hash (see routeStateHash()). */
    std::vector<uint64_t> groupHash_;
    /** Distinct-edge carry counts per (group, value); see flatV(). */
    std::vector<int> carry_;
    /**
     * Per-(group, value) bitset over edges: bit e set iff @p val is
     * among edge e's distinct values. Maintained at the same 0<->1
     * transitions as carry_, so it is exact by construction.
     */
    std::vector<uint64_t> valEdgeBits_;
    size_t edgeWords_ = 0;
    /** Per-region offsets into the flat (group, value) space. */
    std::vector<int> vertOff_;
    int vertTotal_ = 0;
    std::vector<int> peInst_;
    std::vector<std::vector<ValCount>> pePass_;
    std::vector<int> syncLanes_;
    std::vector<int> memCnt_;

    // Dense iteration support (position -1 = inactive).
    std::vector<std::pair<int, adg::EdgeId>> activeEdges_;
    std::vector<int> activeEdgePos_;
    std::vector<std::pair<int, adg::NodeId>> activePes_;
    std::vector<int> activePePos_;
    std::vector<std::pair<int, adg::NodeId>> activeSyncs_;
    std::vector<int> activeSyncPos_;
    std::vector<std::pair<int, adg::NodeId>> activeMems_;
    std::vector<int> activeMemPos_;

    // Probe journal (first-touch prior state, stamped per probe).
    bool journaling_ = false;
    uint32_t probeEpoch_ = 0;
    std::vector<uint32_t> edgeTouchStamp_;
    std::vector<uint32_t> peTouchStamp_;
    std::vector<EdgeTouch> jEdges_;
    std::vector<PeTouch> jPes_;
};

} // namespace dsa::mapper

#endif // DSA_MAPPER_USAGE_TRACKER_H
