/**
 * @file
 * Precomputed landmark distances for the scheduler's A* routing fast
 * path (ALT-style: A*, Landmarks, Triangle inequality).
 *
 * The scheduler's usage-penalized route search prices an edge at
 *   routeBaseCost                      when unused,
 *   routeBaseCost + slope * values     when congested, and
 *   routeReuseCost                     when the routed value is
 *                                      already on the edge,
 * plus routePePassCost for tunneling through a PE that is not the
 * target. Every dynamic term except the reuse discount only *raises*
 * the cost above the static base metric
 *   M(e) = routeBaseCost + (dst(e) is a PE ? routePePassCost : 0)
 * over all alive edges, so shortest distances under M — corrected for
 * the reuse discount and the target's own pass exemption at query time
 * (see SpatialScheduler::heuristic) — give an admissible A* heuristic
 * for any congestion state. M deliberately ignores protocol
 * passability (dynamic-vs-static flow restrict which switches/PEs may
 * forward a value): more edges means shorter metric distances, which
 * keeps the bound admissible for both flow kinds at some pruning cost.
 *
 * A table holds forward (landmark -> node) and backward (node ->
 * landmark) distances for a handful of landmarks picked by
 * deterministic farthest-point sampling, stored node-major (one
 * interleaved [fwd, bwd] row per node) so an A* touch reads two cache
 * lines instead of striding across per-landmark arrays. Distances
 * depend only on the ADG's alive topology and two cost knobs, so
 * tables are shared process-wide through a cache keyed by the ADG
 * labeling hash (adg/fingerprint.h — the tables are indexed by raw
 * node IDs, so the concrete labeled graph is exactly what must be
 * pinned; the relabeling-invariant WL refinement would be both wasted
 * work and wrong here) + the knob values: every annealing chain, every
 * (kernel, unroll) task, and every DSE mutant that keeps the fabric
 * topology reuses one table instead of recomputing it.
 *
 * The same cache also holds each fabric's HopTable, the static hop
 * counts behind the scheduler's routing-free probe lower bound.
 */

#ifndef DSA_MAPPER_LANDMARKS_H
#define DSA_MAPPER_LANDMARKS_H

#include <cstdint>
#include <memory>
#include <vector>

#include "adg/adg.h"

namespace dsa::mapper {

/** Landmark distance table for one (ADG topology, cost-knob) pair. */
class LandmarkTable
{
  public:
    /** Distance meaning "unreachable" (finite: arithmetic stays sane). */
    static constexpr double kUnreach = 1e17;

    /**
     * Compute a table over @p adg's alive subgraph with the static
     * metric base + (dst is PE ? pePass : 0). @p maxLandmarks bounds
     * the landmark count (clamped to the alive node count).
     */
    LandmarkTable(const adg::Adg &adg, double baseCost, double pePassCost,
                  int maxLandmarks = 8);

    int numLandmarks() const { return k_; }
    int nodeBound() const { return static_cast<int>(nodeBound_); }

    /**
     * Largest finite entry in the table — an upper bound on any
     * finite lowerBound() result. When a query-time correction meets
     * or exceeds this, the corrected heuristic is zero at every
     * reachable node, and the caller can fall back to plain Dijkstra
     * (identical result, no per-touch bound computation).
     */
    double maxFiniteBound() const { return maxFinite_; }

    /** d_M(landmark l -> node n); kUnreach when unreachable. */
    double forward(int l, adg::NodeId n) const
    {
        return d_[n * stride_ + 2 * static_cast<size_t>(l)];
    }
    /** d_M(node n -> landmark l); kUnreach when unreachable. */
    double backward(int l, adg::NodeId n) const
    {
        return d_[n * stride_ + 2 * static_cast<size_t>(l) + 1];
    }

    /**
     * Raw triangle-inequality lower bound on d_M(n -> t), maximized
     * over landmarks and both directions. Unreachability propagates
     * naturally: if any landmark proves t unreachable from n the
     * result exceeds kUnreach / 2. May be negative (caller clamps
     * after applying its query-time corrections). Hot in A* (once per
     * touched node): reads exactly two node rows.
     */
    double lowerBound(adg::NodeId n, adg::NodeId t) const
    {
        const double *rn = &d_[n * stride_];
        const double *rt = &d_[t * stride_];
        double best = 0;
        for (int l = 0; l < 2 * k_; l += 2) {
            double f = rt[l] - rn[l];
            double b = rn[l + 1] - rt[l + 1];
            best = std::max(best, std::max(f, b));
        }
        return best;
    }

  private:
    int k_ = 0;
    size_t nodeBound_ = 0;
    double maxFinite_ = 0;
    /** Doubles per node row (2 * landmark capacity at construction). */
    size_t stride_ = 0;
    /** Node-major rows: d_[n*stride + 2l] = fwd, [.. + 2l+1] = bwd. */
    std::vector<double> d_;
};

/** Landmark-cache counters (process-wide, monotone). */
struct LandmarkCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
};

/**
 * Process-wide table cache keyed by (canonical ADG fingerprint,
 * baseCost, pePassCost). Insert-once: concurrent misses for the same
 * key may both compute, the first insert wins, and both computations
 * are identical (the table is a pure function of the key), so results
 * never depend on timing.
 */
std::shared_ptr<const LandmarkTable>
landmarksFor(const adg::Adg &adg, double baseCost, double pePassCost);

/** Snapshot of the process-wide landmark-cache counters. */
LandmarkCacheStats landmarkCacheStats();

/**
 * All-pairs hop counts for the scheduler's routing-free probe bound:
 * hops(a, b) is the fewest edges on any path a -> b whose interior
 * nodes may forward a value of *either* flow kind. A real route is a
 * path of one flow kind, so it has at least hops(a, b) edges, and
 * hops(a, b) == kNoPath proves no route a -> b exists. Counts saturate
 * at kNoPath - 1, which only weakens the bound.
 */
class HopTable
{
  public:
    static constexpr uint8_t kNoPath = 255;

    /**
     * BFS from every alive node of @p adg over alive edges; a node
     * other than the source is expanded only if @p passable is set for
     * it (nodeIdBound-sized). Sources and targets need no flag.
     */
    HopTable(const adg::Adg &adg, const std::vector<char> &passable);

    uint8_t hops(adg::NodeId a, adg::NodeId b) const
    {
        return h_[static_cast<size_t>(a) * nodeBound_ + b];
    }

  private:
    size_t nodeBound_ = 0;
    /** Row-major: h_[a * nodeBound + b]. */
    std::vector<uint8_t> h_;
};

/**
 * Process-wide hop-table cache keyed by the ADG labeling hash, like
 * landmarksFor. @p passable must be a pure function of the labeled
 * ADG (the scheduler derives it from node kinds and parameters), so
 * the key pins the table.
 */
std::shared_ptr<const HopTable>
hopTableFor(const adg::Adg &adg, const std::vector<char> &passable);

} // namespace dsa::mapper

#endif // DSA_MAPPER_LANDMARKS_H
