/**
 * @file
 * The stochastic spatial scheduler (§IV-C, Algorithm 1): iteratively
 * (re)places instructions, ports, and streams onto ADG resources,
 * routing dependences with usage-penalized Dijkstra search, and
 * minimizing a weighted objective of overutilization, initiation
 * interval, and recurrence latency. Overuse is permitted during the
 * search to escape local minima; a legal schedule has none.
 *
 * The same engine implements schedule *repair* for DSE (§V-A): seeded
 * with a previous schedule whose dead assignments were stripped, it
 * re-places only the missing pieces (and keeps improving the rest).
 *
 * Hot-loop bookkeeping is *incremental*: a UsageTracker (flat arrays
 * indexed by config group × EdgeId/NodeId) is maintained by the
 * place/unplace/route hooks instead of rebuilt per evaluation, routing
 * reads edge penalties straight from it with epoch-stamped reusable
 * Dijkstra scratch, and the greedy candidate scan prices each probe
 * with an exact delta against a per-slot baseline (VPR-style
 * incremental cost evaluation). Region timing (per-vertex arrival
 * times, static-PE delay-FIFO shortfall per hosting node, recurrence
 * latency) is maintained the way incremental static timing analysis
 * does it: each mutation queues the vertices whose inputs changed, and
 * propagation re-times only those, walking on to the users of any
 * vertex whose time moved, in topological-position order. A probe
 * propagates from the placed vertex under a journal and rolls it back
 * on unplace. `evaluate()` remains the from-scratch oracle;
 * `SchedOptions::checkIncremental` cross-checks every fast-path result
 * — tracker, maintained timing and assembled cost — against it.
 *
 * The candidate scan is an exact best-first branch and bound: each
 * candidate first gets a routing-free lower bound on its probe cost
 * (occupancy deltas, unreachable pairs and hop-count wire from a static
 * per-fabric hop table, and II/latency floors no probe can go below),
 * then candidates are probed in (bound, shuffled position) order until
 * the next bound cannot beat the best cost so far. The winner is the
 * one the plain in-order scan picks — lowest cost, earliest position
 * on ties — which reference mode still runs and checkIncremental
 * asserts.
 *
 * The tracker and timing state live in the scheduler — Schedules stay
 * plain values the DSE can copy freely; `run()` rebuilds that state
 * from whatever schedule it is seeded with.
 */

#ifndef DSA_MAPPER_SCHEDULER_H
#define DSA_MAPPER_SCHEDULER_H

#include <memory>
#include <unordered_map>

#include "adg/adg.h"
#include "base/deadline.h"
#include "base/rng.h"
#include "base/status.h"
#include "dfg/program.h"
#include "mapper/route_cache.h"
#include "mapper/schedule.h"
#include "mapper/usage_tracker.h"

namespace dsa {
class ThreadPool;
} // namespace dsa

namespace dsa::mapper {

class HopTable;
class LandmarkTable;

/**
 * Default for SchedOptions::routeFastPath: on, unless the environment
 * sets DSA_SCHED_ROUTECACHE=0 (read once per process). The ctest
 * `*_nocache` variants run the scheduler suites with the fast path
 * disabled so the plain-Dijkstra fallback stays exercised.
 */
bool routeFastPathDefault();

/**
 * Counters from one scheduler run (or one DSE's worth of runs; the
 * struct is additive via merge()). Exposed through `--sched-stats`.
 */
struct SchedStats
{
    /** Route requests entering the dispatcher. */
    uint64_t routeCalls = 0;
    /** Plain Dijkstra searches (fast path off, or checkRoutes oracle). */
    uint64_t dijkstraSearches = 0;
    /** Landmark-guided A* searches (fast path, cache miss). */
    uint64_t astarSearches = 0;
    /** Heap pops expanded across both search kinds. */
    uint64_t nodesExpanded = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    /** Cache entries skipped because the group's usage state changed. */
    uint64_t cacheStale = 0;
    /** Full SSSP trees built (one amortizes many same-source routes). */
    uint64_t ssspBuilds = 0;
    /** Routes answered by backtracking a shared SSSP tree. */
    uint64_t ssspHits = 0;
    /** Reverse (target-rooted) distance tables built. */
    uint64_t revBuilds = 0;
    /** A* searches guided by an exact reverse-distance heuristic. */
    uint64_t revHits = 0;
    /** Candidate scans skipped: the exact state was probed before. */
    uint64_t probeMemoHits = 0;
    /** Candidate scans run and memoized. */
    uint64_t probeMemoMisses = 0;
    /** Candidate probes run (place -> price -> unplace). */
    uint64_t probesRun = 0;
    /** Candidates a scan skipped: their lower bound could not win. */
    uint64_t probesSkipped = 0;
    /** Annealing iterations, summed over chains. */
    uint64_t iterations = 0;
    /** Chains executed (0 when run() was never called). */
    uint64_t chainsRun = 0;

    void merge(const SchedStats &o);
};

/** Scheduler knobs. */
struct SchedOptions
{
    /** Outer unmap/re-place iterations (the paper uses 200 in DSE). */
    int maxIters = 200;
    /** Stop after this many iterations without improvement (legal). */
    int convergeIters = 40;
    uint64_t seed = 1;
    /**
     * Allow mapping multiple instructions onto shared PEs; disabled
     * for the Fig. 12 "shared off" configurations.
     */
    bool allowShared = true;

    /// @name Greedy-fill / routing cost knobs (ablation sweeps)
    /// @{
    /**
     * Candidates considered per unplaced slot: the first this many of
     * the shuffled candidate list (at least one). The incremental scan
     * probes only those whose lower bound can still win among them.
     */
    int candidateScanCap = 24;
    /** Dijkstra cost of re-traversing an edge this value already uses. */
    double routeReuseCost = 0.01;
    /** Dijkstra base cost of an unused edge. */
    double routeBaseCost = 1.0;
    /** Congestion slope: edge cost = base + slope * values-on-edge. */
    double routeCongestSlope = 3.0;
    /** Extra cost for tunneling through a PE (burns a Pass slot). */
    double routePePassCost = 2.0;
    /// @}

    /// @name Incremental-evaluation controls
    /// @{
    /**
     * Use tracker-maintained state and delta probes in the hot loop.
     * Off = recompute everything from the schedule at each use point
     * (slow reference mode; results are bit-identical either way).
     */
    bool incremental = true;
    /**
     * Debug oracle: assert, at every fast-path evaluation, that the
     * incrementally-maintained tracker equals a from-scratch rebuild,
     * that the maintained region timing equals a from-scratch
     * computeRegionTiming, and that delta probe costs equal full
     * `evaluate()` costs.
     */
    bool checkIncremental = false;
    /// @}

    /// @name Routing fast path & parallel annealing chains
    /// @{
    /**
     * Route with landmark-guided A* + the exact route cache instead
     * of plain Dijkstra. Produced schedules are bit-identical either
     * way (test-enforced); off exists to exercise the fallback and to
     * isolate the fast path when benchmarking.
     */
    bool routeFastPath = routeFastPathDefault();
    /**
     * Debug oracle: re-run plain Dijkstra for every route the fast
     * path produces (cache hit or A*) and assert exact equality.
     */
    bool checkRoutes = false;
    /**
     * Independently-seeded annealing chains; the best legal result
     * wins by fixed-order reduction, so the outcome is deterministic
     * for any thread count and chains=1 is bit-identical to the
     * single-chain scheduler. Chains run on `chainPool` when set
     * (one task per chain), serially otherwise.
     */
    int chains = 1;
    dsa::ThreadPool *chainPool = nullptr;
    /**
     * Pre-shared landmark table (must match this ADG + cost knobs).
     * Null = look up / compute via the process-wide landmark cache at
     * construction. Chains pass theirs down so K chains don't pay K
     * fingerprint lookups.
     */
    std::shared_ptr<const LandmarkTable> landmarks;
    /// @}

    /**
     * Cooperative wall-clock watchdog (default: unlimited). Checked
     * between annealing iterations and between greedy-fill placements;
     * on expiry run() returns the best schedule found so far and
     * lastRunStatus() reports DeadlineExceeded, so the DSE can record
     * a pathological candidate as infeasible instead of hanging a pool
     * worker. With the default unlimited deadline the checks are free
     * and results are unchanged.
     */
    Deadline deadline;
};

/** Spatial scheduler for one program onto one ADG. */
class SpatialScheduler
{
  public:
    SpatialScheduler(const dfg::DecoupledProgram &prog, const adg::Adg &adg,
                     SchedOptions opts = {});

    /**
     * Run Algorithm 1.
     * @param initial  previous schedule to repair (nullptr = from
     *                 scratch). Dead assignments are stripped first.
     * @return the best schedule found, with cost filled in.
     */
    Schedule run(const Schedule *initial = nullptr);

    /**
     * Evaluate the full objective of a schedule from scratch (the
     * oracle the incremental paths are checked against). Works on any
     * schedule, independent of the scheduler's internal tracker.
     */
    Cost evaluate(const Schedule &s) const;

    /**
     * Outcome of the last run(): OK, or DeadlineExceeded when the
     * SchedOptions::deadline watchdog cut the search short (the
     * returned schedule is then best-effort and usually illegal).
     */
    const Status &lastRunStatus() const { return lastStatus_; }

    /** Counters accumulated since construction (all chains merged). */
    const SchedStats &stats() const { return stats_; }

    /** Search-heap entry (public so the heap comparator can be free). */
    struct HeapEntry
    {
        double f = 0; ///< pop key (== g for plain Dijkstra)
        double g = 0;
        adg::NodeId n = adg::kInvalidNode;
    };

  private:
    /** One placement decision: a DFG vertex or a memory stream. */
    struct Slot
    {
        int region = -1;
        bool isStream = false;
        dfg::VertexId vertex = dfg::kInvalidVertex;
        int streamId = -1;
    };

    /** Timing summary of one region (the from-scratch oracle's output). */
    struct RegionTiming
    {
        /** Contribution to Cost::recurrenceLatency. */
        int recLat = 0;
        /** Static-PE delay-FIFO shortfall, per hosting node. */
        std::vector<std::pair<adg::NodeId, int>> shortfall;
    };

    /**
     * Incrementally-maintained timing of one region. Per vertex: its
     * completion time (what computeRegionTiming writes to vertexTime)
     * and the delay-FIFO shortfall it charges to its hosting node
     * (node kInvalidNode when it charges none).
     */
    struct RegionTimingState
    {
        std::vector<int> time;
        std::vector<int> shortfall;
        std::vector<adg::NodeId> shortfallNode;
        /** Route length per (consumer, operand), at opBase_ offsets. */
        std::vector<int> opLat;
        /** Vertices whose inputs changed since the last propagation. */
        std::vector<dfg::VertexId> pending;
        int recLat = 0;
    };

    /** One probe-journal entry: a vertex's timing before propagation. */
    struct TimingUndo
    {
        dfg::VertexId v = dfg::kInvalidVertex;
        int time = 0;
        int shortfall = 0;
        adg::NodeId shortfallNode = adg::kInvalidNode;
    };

    /** Per-slot baseline for exact delta probes and their bounds. */
    struct ProbeBase
    {
        Cost cost;
        int linkIi = 1;
        /** Max recurrence latency over regions != the slot's. */
        int recLatOther = 0;
        /**
         * Per node, the delay shortfall charged by vertices outside the
         * slot vertex's downstream cone: a probe cannot move their
         * times, so no probe's shortfall goes below it (vertex slots
         * only; nodeIdBound-sized).
         */
        std::vector<int> shortfallFloor;
        /**
         * Max of link II and every active PE's II under
         * shortfallFloor: no probe's maxIi goes below it.
         */
        int iiFloor = 1;
    };

    void buildSlots();
    void buildStaticTables();
    /** The single-chain annealer (the historical run() body). */
    Schedule runSingle(const Schedule *initial);
    /** K independently-seeded chains merged by fixed-order reduction. */
    Schedule runChains(const Schedule *initial);
    std::vector<adg::NodeId> candidatesFor(const Slot &slot,
                                           const Schedule &s) const;

    /** Assign + route everything incident; returns false on failure. */
    void place(Schedule &s, const Slot &slot, adg::NodeId node) const;
    /** Remove assignment and incident routes. */
    void unplace(Schedule &s, const Slot &slot) const;

    /** Greedily place every unplaced slot (best candidate by cost). */
    void fillUnplaced(Schedule &s);
    /**
     * Content hash of the schedule state a candidate scan for slot
     * @p slotIdx prices: every region's placements and routes plus the
     * special routes. It keys the probe-scan memo in fillUnplaced. It
     * does not pin the scan's outcome: which candidates are considered
     * and how ties break follow the rng shuffle, so a fresh scan of an
     * equal state can pick a different winner than the memoized one.
     * The memo is a search heuristic; both scan modes consult it
     * identically, so it keeps them bit-identical to each other.
     */
    uint64_t placementHash(const Schedule &s, size_t slotIdx) const;
    /** Slots implicated in overuse/violations (targeted rip-up). */
    std::vector<int> hotSlots(const Schedule &s) const;
    /** Route forwards/recurrences whose endpoints are both mapped. */
    void routeSpecials(Schedule &s) const;

    /// @name Tracker-synchronized schedule mutation
    /// @{
    void setValueRoute(Schedule &s, int region,
                       std::pair<dfg::VertexId, int> key, Route route) const;
    void setRecurrenceRoute(Schedule &s, int region, int sid,
                            Route route) const;
    void setForwardRoute(Schedule &s, int fi, Route route) const;
    /// @}

    /// @name Routing (dispatcher + the two search implementations)
    /// @{
    /**
     * Route one value: reference-mode tracker rebuild, then either
     * the fast path (route cache -> landmark A*) or plain Dijkstra.
     * Both produce the same canonical route for the same usage state.
     */
    Route dijkstra(const Schedule &s, adg::NodeId from, adg::NodeId to,
                   bool dynFlow, const ValueKey &value, int group) const;
    Route searchDijkstra(adg::NodeId from, adg::NodeId to, bool dynFlow,
                         const ValueKey &value, int group) const;
    /**
     * @p exactH, when non-null, is a nodeIdBound-sized exact
     * cost-to-target table (from a reverse Dijkstra) used as the
     * heuristic instead of the landmark bounds. Any admissible
     * heuristic yields the same canonical route (see the equivalence
     * argument at the definition), and an exact one is the strongest
     * admissible choice: expansion narrows to optimal-path nodes.
     */
    Route searchAstar(adg::NodeId from, adg::NodeId to, bool dynFlow,
                      const ValueKey &value, int group,
                      const double *exactH = nullptr) const;
    /** Backtrack via_[] from @p to into a Route (exact-sized). */
    Route backtrack(adg::NodeId from, adg::NodeId to) const;

    /**
     * Shared-source SSSP trees: the greedy candidate scan routes the
     * same (source, value) to dozens of probe targets under one usage
     * state, so the second such query invests in one untargeted
     * Dijkstra whose via tree then answers every further target by
     * backtracking alone. Exact: a targeted run's canonical via chain
     * is a prefix of the full tree's (all achievers pop before the
     * target pops, and the PE-target pass-cost waiver is a constant
     * shift over all edges into the target, so every accept/reject
     * and tie decision matches; see buildSsspTree).
     */
    struct SsspKey
    {
        adg::NodeId from = adg::kInvalidNode;
        ValueKey value{-1, -1};
        int group = 0;
        bool dynFlow = false;

        bool operator==(const SsspKey &) const = default;
    };
    struct SsspKeyHash
    {
        size_t operator()(const SsspKey &k) const;
    };
    struct SsspEntry
    {
        SsspKey key;
        uint64_t stateHash = 0;
        /** Slot holds a live marker/tree for (key, stateHash). */
        bool seen = false;
        /** dist/via hold a full tree for (key, stateHash). */
        bool full = false;
        std::vector<double> dist;
        std::vector<adg::EdgeId> via;
    };
    /**
     * Direct-mapped slot count (power of two). Misses are the common
     * case on cold/stale states, so the layer must cost O(1) with no
     * allocation there: a colliding key just evicts the slot, and a
     * rebuilt tree reuses the slot's vector capacity.
     */
    static constexpr size_t kSsspSlots = 128;
    /** Probe-memo wholesale-clear backstop (entries are tiny). */
    static constexpr size_t kMaxProbeMemo = 1u << 17;
    void buildSsspTree(adg::NodeId from, bool dynFlow,
                       const ValueKey &value, int group,
                       SsspEntry *entry) const;
    /** Backtrack @p entry's via tree; empty when @p to unreachable. */
    Route backtrackTree(const SsspEntry &entry, adg::NodeId from,
                        adg::NodeId to) const;

    /**
     * Target-rooted mirror of the SSSP layer: the candidate scan also
     * routes many (source, value) pairs *into* one consumer node under
     * one usage state (a different probe source per candidate). A via
     * tree can't be shared from the target side — the canonical
     * tie-break needs source-side g values — but exact costs can: the
     * second same-target query invests in one reverse Dijkstra, and
     * every further query runs searchAstar with the resulting exact
     * cost-to-target heuristic, which expands only optimal-path nodes
     * yet returns the identical canonical route.
     */
    struct RevEntry
    {
        /** Slot key; `.from` holds the *target* node. */
        SsspKey key;
        uint64_t stateHash = 0;
        bool seen = false;
        bool full = false;
        /** Exact cost node -> target under the usage state. */
        std::vector<double> dist;
    };
    static constexpr size_t kRevSlots = 64;
    void buildReverseDist(adg::NodeId to, bool dynFlow,
                          const ValueKey &value, int group,
                          RevEntry *entry) const;
    /// @}

    /** Route one value dependence; empty on failure. */
    Route routeValue(const Schedule &s, int region, dfg::VertexId producer,
                     adg::NodeId from, adg::NodeId to) const;

    /// @name Cost assembly (shared by oracle and incremental paths)
    /// @{
    /**
     * Recompute one region's vertex times, recurrence latency, and
     * static-PE delay shortfall. Scratch buffers are passed in so the
     * public `evaluate()` oracle can use locals and stay re-entrant
     * while the hot path reuses member scratch without allocation.
     * @p shortfallScratch must be nodeIdBound-sized and all-zero; it
     * is restored to all-zero before returning.
     */
    RegionTiming computeRegionTiming(const Schedule &s, size_t r,
                                     std::vector<int> &vertexTime,
                                     std::vector<int> &shortfallScratch,
                                     std::vector<int> &arrivalScratch) const;
    Cost assemble(const Schedule &s, const UsageTracker &t,
                  int recurrenceLatency,
                  const std::vector<int> &nodeShortfall,
                  int *linkIiOut) const;
    /// @}

    /// @name Incremental fast path
    /// @{
    /** Rebuild tracker + timing state from @p s (run() entry). */
    void bindTo(const Schedule &s) const;
    /** Queue @p v of region @p r for re-timing (its inputs changed). */
    void markTiming(int r, dfg::VertexId v) const;
    /**
     * Re-time region @p r from its queued vertices: recompute each in
     * topological-position order, enqueue the users of any whose time
     * changed, move shortfall between hosting nodes, then recompute
     * the region's recurrence latency. With @p journal, every changed
     * vertex's prior timing is appended to timingUndo_.
     */
    void propagateTiming(const Schedule &s, size_t r, bool journal) const;
    /** Propagate regions dirtied since the last refresh (+vertexTime). */
    void refreshTiming(const Schedule &s) const;
    /** Max maintained recurrence latency over all regions. */
    int trackedRecLat() const;
    /** Tracker-backed evaluation of the tracked schedule. */
    Cost evaluateTracked(const Schedule &s) const;
    ProbeBase makeProbeBase(const Schedule &s, const Slot &slot) const;
    /** Exact candidate cost via place -> delta -> unplace. */
    double probeCandidate(Schedule &s, const Slot &slot, adg::NodeId cand,
                          const ProbeBase &base) const;
    /**
     * Routing-free lower bound on probeCandidate(s, slot, cand, base):
     * every Cost field is at most the probe's, so scalar() is too.
     * Exact for stream slots.
     */
    double probeLowerBound(const Schedule &s, const Slot &slot,
                           adg::NodeId cand, const ProbeBase &base) const;
    /**
     * Recurrence and forward pairs touching @p v that are complete once
     * @p v is placed yet have no route (routeSpecials adds them later).
     */
    int unroutedSpecials(const Schedule &s, int region,
                         dfg::VertexId v) const;
    /** Protocol violations involving @p slot's vertex placed at @p n. */
    int violationsAt(const Schedule &s, const Slot &slot,
                     adg::NodeId n) const;
    /** checkIncremental: assert tracker equals a fresh rebuild. */
    void verifyTracker(const Schedule &s) const;
    /**
     * checkIncremental: assert the maintained times, recurrence
     * latencies and per-node shortfall equal computeRegionTiming.
     */
    void verifyTiming(const Schedule &s) const;
    /// @}

    bool nodeIsDynamicPe(adg::NodeId n) const;
    bool nodeIsStaticPe(adg::NodeId n) const;

    const dfg::DecoupledProgram &prog_;
    const adg::Adg &adg_;
    SchedOptions opts_;
    Status lastStatus_;
    mutable Rng rng_;
    std::vector<Slot> slots_;
    /** Concurrency class per region (stream-engine sharing). */
    std::vector<int> regionClass_;
    /** Memoized per-region topological order (the DFG is immutable). */
    std::vector<std::vector<dfg::VertexId>> topo_;
    /** Inverse of topo_: each vertex's position in its region's order. */
    std::vector<std::vector<int>> topoPos_;
    /**
     * Per region, each vertex's first slot in RegionTimingState::opLat
     * (operand-count prefix sums; the extra last entry is the total).
     */
    std::vector<std::vector<int>> opBase_;
    /** Per region, max latency of its accumulate instructions. */
    std::vector<int> accLat_;

    /** Distinct config groups, ascending (hoisted from evaluate()). */
    std::vector<int> configGroups_;
    /** Dense config-group index per region. */
    std::vector<int> regionGroupIdx_;
    int numClasses_ = 0;

    /// @name Static per-ADG tables (hardware is fixed per scheduler)
    /// @{
    std::vector<int> edgeCap_;
    /** Edge participates in link-II accounting (dyn-switch, non-bus). */
    std::vector<char> edgeLinkIi_;
    std::vector<int> peCap_;
    std::vector<char> peShared_;
    std::vector<int> syncCap_;
    std::vector<int> memCap_;
    /** Per-node routing flags (kPassDyn/kPassStatic/kIsPe below). */
    std::vector<uint8_t> nodeFlags_;
    /** Flat edge endpoints (dead edges keep kInvalidNode). */
    std::vector<adg::NodeId> edgeSrc_;
    std::vector<adg::NodeId> edgeDst_;
    /// @}

    static constexpr uint8_t kPassDyn = 1;    ///< intermediate, dyn flow
    static constexpr uint8_t kPassStatic = 2; ///< intermediate, static flow
    static constexpr uint8_t kIsPe = 4;
    static constexpr uint8_t kPeDyn = 8;      ///< dynamic-scheduled PE
    static constexpr uint8_t kPeStatic = 16;  ///< static-scheduled PE
    static constexpr uint8_t kAlive = 32;     ///< any alive node

    /// @name Routing fast path
    /// @{
    std::shared_ptr<const LandmarkTable> landmarks_;
    /** Static hop counts for probeLowerBound (shared per fabric). */
    std::shared_ptr<const HopTable> hops_;
    mutable RouteCache routeCache_;
    mutable std::vector<SsspEntry> sssp_;
    mutable std::vector<RevEntry> rev_;
    /**
     * Probe-scan memo: placementHash -> the candidate the scan chose
     * (kept for the scheduler's lifetime; the annealer's rip-up /
     * refill loop revisits the same states constantly once the
     * schedule is near-converged). A hit reuses that winner instead of
     * scanning, which is not what a fresh scan would pick in general
     * (see placementHash); every mode consults it the same way, so the
     * incremental/reference and fast-path on/off equivalences hold.
     */
    mutable std::unordered_map<uint64_t, adg::NodeId> probeMemo_;
    mutable SchedStats stats_;
    /// @}

    /** Incrementally-maintained usage/occupancy state. */
    mutable UsageTracker tracker_;
    /** Incrementally-maintained per-region timing + refresh bits. */
    mutable std::vector<RegionTimingState> timing_;
    mutable std::vector<char> timingDirty_;
    /** Static-PE delay shortfall summed across regions, per node. */
    mutable std::vector<int> nodeShortfall_;
    /** Probe journal of propagateTiming (rolled back after the probe). */
    mutable std::vector<TimingUndo> timingUndo_;

    /// @name Reusable scratch (epoch-stamped; no per-call allocation)
    /// @{
    mutable std::vector<double> dist_;
    mutable std::vector<adg::EdgeId> via_;
    mutable std::vector<uint32_t> nodeStamp_;
    mutable uint32_t dijkstraEpoch_ = 0;
    /** Hoisted search heap (std::push_heap/pop_heap over this). */
    mutable std::vector<HeapEntry> heap_;
    /** A* per-node heuristic value, valid under nodeStamp_. */
    mutable std::vector<double> hVal_;
    /** A* tie-break key: g of the predecessor that set via_[n]. */
    mutable std::vector<double> predG_;
    /** computeRegionTiming's touched-node list (consumed per call). */
    mutable std::vector<adg::NodeId> timingTouched_;
    /** place()'s snapshot-route staging buffer (consumed per call). */
    mutable std::vector<std::pair<std::pair<dfg::VertexId, int>, Route>>
        placeScratch_;
    /** The candidate scan's (lower bound, shuffled position) order. */
    std::vector<std::pair<double, size_t>> scanOrder_;
    /**
     * propagateTiming's min-heap of topological positions; also
     * makeProbeBase's stack for its downstream-cone walk.
     */
    mutable std::vector<int> timingHeap_;
    /** Per-vertex "already queued" stamps (the same two users). */
    mutable std::vector<uint32_t> timingQueued_;
    mutable uint32_t timingEpoch_ = 0;
    /// @}
};

/**
 * Convenience: schedule @p prog onto @p adg from scratch.
 */
Schedule scheduleProgram(const dfg::DecoupledProgram &prog,
                         const adg::Adg &adg, SchedOptions opts = {});

} // namespace dsa::mapper

#endif // DSA_MAPPER_SCHEDULER_H
