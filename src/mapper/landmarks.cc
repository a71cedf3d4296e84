#include "mapper/landmarks.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <queue>
#include <tuple>

#include "adg/fingerprint.h"

namespace dsa::mapper {

namespace {

/**
 * Single-source shortest paths under the static metric into @p out
 * (sized nodeBound, pre-filled with kUnreach). @p reversed flips edge
 * direction to get node -> source distances from the same adjacency.
 */
void
metricSssp(const adg::Adg &adg, adg::NodeId source, double baseCost,
           double pePassCost, bool reversed, double *out)
{
    using QE = std::pair<double, adg::NodeId>;
    std::priority_queue<QE, std::vector<QE>, std::greater<QE>> pq;
    out[source] = 0;
    pq.push({0, source});
    while (!pq.empty()) {
        auto [d, n] = pq.top();
        pq.pop();
        if (d > out[n])
            continue;
        const auto &edges = reversed ? adg.inEdges(n) : adg.outEdges(n);
        for (adg::EdgeId e : edges) {
            if (!adg.edgeAlive(e))
                continue;
            const auto &ed = adg.edge(e);
            adg::NodeId m = reversed ? ed.src : ed.dst;
            if (!adg.nodeAlive(m))
                continue;
            // Mirror the pass surcharge the router applies when a
            // value tunnels *into* a PE; the router waives it when
            // that PE is the route target, which the heuristic
            // corrects at query time (never here, so the metric stays
            // a per-edge constant and fwd/bwd tables agree).
            adg::NodeId into = reversed ? n : m;
            double c = baseCost;
            if (adg.node(into).kind == adg::NodeKind::Pe)
                c += pePassCost;
            double nd = d + c;
            if (nd < out[m]) {
                out[m] = nd;
                pq.push({nd, m});
            }
        }
    }
}

struct LandmarkKey
{
    /**
     * adg::labelingHash — pins the concrete live node/edge IDs and
     * parameters, which is precisely what a node-indexed table needs
     * (and all it needs: one cheap O(V+E) pass, no WL refinement).
     */
    uint64_t labeling;
    uint64_t baseBits;
    uint64_t pePassBits;

    bool operator<(const LandmarkKey &o) const
    {
        return std::tie(labeling, baseBits, pePassBits) <
               std::tie(o.labeling, o.baseBits, o.pePassBits);
    }
};

uint64_t
doubleBits(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

struct LandmarkCache
{
    std::mutex mu;
    std::map<LandmarkKey, std::shared_ptr<const LandmarkTable>> tables;
    LandmarkCacheStats stats;
    std::map<uint64_t, std::shared_ptr<const HopTable>> hops;
};

LandmarkCache &
cache()
{
    static LandmarkCache c;
    return c;
}

} // namespace

LandmarkTable::LandmarkTable(const adg::Adg &adg, double baseCost,
                             double pePassCost, int maxLandmarks)
{
    nodeBound_ = static_cast<size_t>(adg.nodeIdBound());
    auto alive = adg.aliveNodes();
    if (alive.empty() || maxLandmarks <= 0)
        return;
    int want = std::min<int>(maxLandmarks, static_cast<int>(alive.size()));

    // Farthest-point sampling on the symmetrized metric: seed with the
    // lowest-id alive node, then repeatedly take the alive node whose
    // min distance to/from any chosen landmark is largest (ties broken
    // by node id, so the pick order is deterministic). Unreachable
    // pockets score kUnreach and get a landmark of their own early,
    // which is exactly where bounds are most valuable.
    std::vector<adg::NodeId> picks;
    std::vector<double> sep(nodeBound_, LandmarkTable::kUnreach);
    std::vector<double> fwdScratch(nodeBound_);
    std::vector<double> bwdScratch(nodeBound_);
    // Node-major rows sized for the full request up front; rows of
    // nodes never picked (or slots past an early stop) stay kUnreach,
    // which only weakens bounds, never breaks them.
    stride_ = 2 * static_cast<size_t>(want);
    d_.assign(nodeBound_ * stride_, kUnreach);
    adg::NodeId next = alive.front();
    for (int l = 0; l < want; ++l) {
        picks.push_back(next);
        std::fill(fwdScratch.begin(), fwdScratch.end(), kUnreach);
        std::fill(bwdScratch.begin(), bwdScratch.end(), kUnreach);
        metricSssp(adg, next, baseCost, pePassCost, false,
                   fwdScratch.data());
        metricSssp(adg, next, baseCost, pePassCost, true,
                   bwdScratch.data());
        for (size_t n = 0; n < nodeBound_; ++n) {
            d_[n * stride_ + 2 * static_cast<size_t>(l)] = fwdScratch[n];
            d_[n * stride_ + 2 * static_cast<size_t>(l) + 1] =
                bwdScratch[n];
        }
        if (l + 1 == want)
            break;
        next = adg::kInvalidNode;
        double far = -1;
        for (adg::NodeId n : alive) {
            sep[n] = std::min(
                sep[n], std::min(fwdScratch[n], bwdScratch[n]));
            bool already = false;
            for (adg::NodeId p : picks)
                already = already || p == n;
            if (!already && sep[n] > far) {
                far = sep[n];
                next = n;
            }
        }
        if (next == adg::kInvalidNode)
            break;
    }
    k_ = static_cast<int>(picks.size());
    for (double v : d_)
        if (v < kUnreach / 2)
            maxFinite_ = std::max(maxFinite_, v);
}

std::shared_ptr<const LandmarkTable>
landmarksFor(const adg::Adg &adg, double baseCost, double pePassCost)
{
    LandmarkKey key{adg::labelingHash(adg), doubleBits(baseCost),
                    doubleBits(pePassCost)};
    auto &c = cache();
    {
        std::lock_guard<std::mutex> lock(c.mu);
        auto it = c.tables.find(key);
        if (it != c.tables.end()) {
            ++c.stats.hits;
            return it->second;
        }
    }
    // Compute outside the lock so concurrent misses for different
    // fabrics don't serialize; duplicate work for the same key is
    // harmless (pure function of the key) and the first insert wins.
    auto table =
        std::make_shared<const LandmarkTable>(adg, baseCost, pePassCost);
    std::lock_guard<std::mutex> lock(c.mu);
    auto [it, inserted] = c.tables.emplace(key, std::move(table));
    if (inserted)
        ++c.stats.misses;
    else
        ++c.stats.hits;
    return it->second;
}

LandmarkCacheStats
landmarkCacheStats()
{
    auto &c = cache();
    std::lock_guard<std::mutex> lock(c.mu);
    return c.stats;
}

HopTable::HopTable(const adg::Adg &adg, const std::vector<char> &passable)
{
    nodeBound_ = static_cast<size_t>(adg.nodeIdBound());
    h_.assign(nodeBound_ * nodeBound_, kNoPath);
    std::vector<adg::NodeId> queue;
    queue.reserve(nodeBound_);
    for (adg::NodeId src : adg.aliveNodes()) {
        uint8_t *row = &h_[static_cast<size_t>(src) * nodeBound_];
        row[src] = 0;
        queue.assign(1, src);
        for (size_t head = 0; head < queue.size(); ++head) {
            adg::NodeId n = queue[head];
            if (n != src && !passable[n])
                continue; // a target only — paths never pass through
            uint8_t next = std::min<int>(row[n] + 1, kNoPath - 1);
            for (adg::EdgeId e : adg.outEdges(n)) {
                if (!adg.edgeAlive(e))
                    continue;
                adg::NodeId m = adg.edge(e).dst;
                if (!adg.nodeAlive(m) || row[m] != kNoPath)
                    continue;
                row[m] = next;
                queue.push_back(m);
            }
        }
    }
}

std::shared_ptr<const HopTable>
hopTableFor(const adg::Adg &adg, const std::vector<char> &passable)
{
    uint64_t key = adg::labelingHash(adg);
    auto &c = cache();
    {
        std::lock_guard<std::mutex> lock(c.mu);
        auto it = c.hops.find(key);
        if (it != c.hops.end())
            return it->second;
    }
    // Built outside the lock, first insert wins (see landmarksFor).
    auto table = std::make_shared<const HopTable>(adg, passable);
    std::lock_guard<std::mutex> lock(c.mu);
    return c.hops.emplace(key, std::move(table)).first->second;
}

} // namespace dsa::mapper
