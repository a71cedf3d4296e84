/**
 * @file
 * End-to-end benchmark harness for DSAGEN's two user jobs: the
 * co-design DSE loop and the compile -> schedule -> simulate flow of
 * Fig. 10. It runs one workload (`dse`, `fig10-compile` or
 * `sim-sweep`) for a fixed time and prints one raw JSON record on
 * stdout: set-up time, per-pass wall times, per-operation times,
 * digests and check results, and per-pass layer counters.
 * perfbench/run.py turns that record into the benchmark's metrics and
 * compares the digests with the recorded ones.
 *
 * Layers are timed only from outside: with --trace 1 the harness keeps
 * a span around every call it makes into a module's public function
 * and writes them out as a Chrome trace file when the run ends. In
 * that mode traced and untraced passes alternate, so one run also
 * measures the tracing overhead.
 *
 * With --setup-only the harness performs the set-up once and prints
 * only its duration, so run.py can take the median over several
 * fresh processes.
 *
 * Usage:
 *   perfbench --workload <dse|fig10-compile|sim-sweep> --seed <n>
 *             --seconds <s> --trace <0|1> [--trace-out <file>]
 *             [--scratch <dir>] [--setup-only 1]
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adg/prebuilt.h"
#include "bench/bench_common.h"
#include "compiler/compile.h"
#include "dse/explorer.h"
#include "mapper/landmarks.h"
#include "mapper/scheduler.h"
#include "model/perf_model.h"
#include "sim/jit/jit_runtime.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

using namespace dsa;
using Clock = std::chrono::steady_clock;

namespace {

const Clock::time_point kProcessStart = Clock::now();

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// @name Spans
/// @{

struct Span
{
    std::string name;
    int task = -1;   ///< (kernel, unroll) task id; -1 = none
    int parent = -1; ///< index of the enclosing span; -1 = root
    int pass = -1;   ///< timed pass the span belongs to; -1 = set-up
    double startUs = 0;
    double durUs = 0;
};

/** In-memory span store; disabled unless the run is traced. */
class Tracer
{
  public:
    bool enabled = false;
    int pass = -1;

    /** RAII span around one call into a layer. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, int task) : t_(t)
        {
            if (!t_.enabled)
                return;
            idx_ = static_cast<int>(t_.spans_.size());
            Span s;
            s.name = name;
            s.task = task;
            s.pass = t_.pass;
            s.parent = t_.stack_.empty() ? -1 : t_.stack_.back();
            s.startUs = nowUs();
            t_.spans_.push_back(std::move(s));
            t_.stack_.push_back(idx_);
        }
        ~Scope()
        {
            if (idx_ < 0)
                return;
            t_.spans_[idx_].durUs = nowUs() - t_.spans_[idx_].startUs;
            t_.stack_.pop_back();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        int idx_ = -1;
    };

    /** Write every span as a Chrome trace-event file. */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"traceEvents\": [";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[512];
            std::snprintf(buf, sizeof buf,
                          "%s\n{\"name\": \"%s\", \"ph\": \"X\", "
                          "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                          "\"dur\": %.3f, \"args\": {\"id\": %zu, "
                          "\"parent\": %d, \"task\": %d, "
                          "\"pass\": %d}}",
                          i ? "," : "", s.name.c_str(), s.startUs,
                          s.durUs, i, s.parent, s.task, s.pass);
            out << buf;
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    static double
    nowUs()
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         kProcessStart)
            .count();
    }

    std::vector<Span> spans_;
    std::vector<int> stack_;
};

Tracer gTracer;

/// @}

/// @name Record output
/// @{

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quote(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            o += ' ';
        else
            o += c;
    }
    return o + "\"";
}

/** Ordered name -> number map, printed as a JSON object. */
struct Counts
{
    std::vector<std::pair<std::string, double>> items;

    void
    set(const std::string &k, double v)
    {
        for (auto &kv : items)
            if (kv.first == k) {
                kv.second = v;
                return;
            }
        items.emplace_back(k, v);
    }

    std::string
    json() const
    {
        std::string o = "{";
        for (size_t i = 0; i < items.size(); ++i)
            o += (i ? ", " : "") + quote(items[i].first) + ": " +
                 num(items[i].second);
        return o + "}";
    }
};

/** One checked operation of a pass. */
struct Op
{
    std::string id;
    std::string digest;
    bool ok = true;
    std::string error;
    double ms = 0;     ///< host latency of the layer call it times
    double stepMs = 0; ///< host time of the whole operation, checks excluded
    int legal = -1; ///< schedule legality where one is made; -1 = n/a
};

struct Pass
{
    int sub = 0; ///< sub-seed index
    bool traced = false;
    double wallS = 0;
    std::vector<Op> ops;
    Counts counts;
};

/// @}

/** Sum of a scheduler's counters into @p c under "mapper.*" names. */
void
addSchedCounts(Counts &c, const mapper::SchedStats &s)
{
    c.set("mapper.iterations", static_cast<double>(s.iterations));
    c.set("mapper.route_calls", static_cast<double>(s.routeCalls));
    c.set("mapper.nodes_expanded", static_cast<double>(s.nodesExpanded));
    c.set("mapper.route_cache_hits", static_cast<double>(s.cacheHits));
    c.set("mapper.route_cache_misses", static_cast<double>(s.cacheMisses));
    c.set("mapper.route_cache_stale", static_cast<double>(s.cacheStale));
    c.set("mapper.sssp_builds", static_cast<double>(s.ssspBuilds));
    c.set("mapper.sssp_hits", static_cast<double>(s.ssspHits));
    c.set("mapper.probe_memo_hits", static_cast<double>(s.probeMemoHits));
    c.set("mapper.probe_memo_misses",
          static_cast<double>(s.probeMemoMisses));
}

void
addLandmarkCounts(Counts &c, const mapper::LandmarkCacheStats &before)
{
    auto now = mapper::landmarkCacheStats();
    c.set("mapper.landmark_hits", static_cast<double>(now.hits - before.hits));
    c.set("mapper.landmark_misses",
          static_cast<double>(now.misses - before.misses));
}

/** The Table-I kernels Fig. 10 runs, in registry order. */
std::vector<const workloads::Workload *>
fig10Kernels()
{
    std::vector<const workloads::Workload *> v;
    for (const auto &w : workloads::allWorkloads())
        if (w.suite != "Extra" && w.suite != "DenseNN" &&
            w.suite != "SparseCNN")
            v.push_back(&w);
    return v;
}

std::string
costString(const mapper::Cost &c)
{
    std::ostringstream o;
    o << c.unplaced << ',' << c.overuse << ',' << c.violations << ','
      << c.maxIi << ',' << c.recurrenceLatency << ',' << c.wirelength;
    return o.str();
}

bool
sameCost(const mapper::Cost &a, const mapper::Cost &b)
{
    return costString(a) == costString(b);
}

struct Config
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
    std::string scratch = ".";
};

/**
 * Seed of sub-seed @p sub of run seed @p seed. Sub-seed 0 is the run
 * seed itself, so seed 1 reproduces the repository's default runs.
 */
uint64_t
subSeed(uint64_t seed, int sub)
{
    return seed + 7919ull * static_cast<uint64_t>(sub);
}

/**
 * A workload: set-up, a timed pass over one sub-seed, and the untimed
 * work between passes. Checks run inside pass() but their time is
 * reported back through @p checkS and excluded from the pass's wall.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void setup() = 0;
    virtual Pass pass(int sub, double &checkS) = 0;
    virtual void betweenPasses() {}
    /** Distinct sub-seeds the passes cycle through. */
    virtual int subSeeds() const { return 1; }
    /** Fewest passes of a run, whatever its measuring time. */
    virtual int minPasses() const { return 3; }
    /** Counters that belong to set-up rather than to a pass. */
    virtual Counts setupCounts() const { return {}; }
    virtual void finish() {}
};

/// @name fig10-compile
/// @{

class Fig10Compile : public Workload
{
  public:
    explicit Fig10Compile(const Config &cfg) : cfg_(cfg) {}

    /**
     * Annealing time varies by about a tenth between seeds, so every
     * run averages four sub-seeds. Each runs twice: run.py keeps every
     * task's faster repetition, and the repeat checks determinism.
     */
    int subSeeds() const override { return 4; }
    int minPasses() const override { return 8; }

    void
    setup() override
    {
        kernels_ = fig10Kernels();
        targets_.clear();
        for (const auto *w : kernels_) {
            auto hw = std::make_unique<adg::Adg>(
                bench::buildTarget(w->fig10Target));
            auto feat = compiler::HwFeatures::fromAdg(*hw);
            targets_.push_back({std::move(hw), feat});
        }
    }

    Pass
    pass(int sub, double &checkS) override
    {
        Pass p;
        mapper::SchedStats total;
        auto lm0 = mapper::landmarkCacheStats();
        int lowerFailures = 0, legal = 0, attempted = 0;
        for (size_t k = 0; k < kernels_.size(); ++k) {
            const auto &w = *kernels_[k];
            const adg::Adg &hw = *targets_[k].hw;
            const auto &feat = targets_[k].feat;
            int baseTask = static_cast<int>(k) * 2;
            // The placement is shared, so it counts towards unroll 1.
            auto step0 = Clock::now();
            std::unique_ptr<compiler::Placement> place;
            {
                Tracer::Scope s(gTracer, "compiler::Placement::autoLayout",
                                baseTask);
                place = std::make_unique<compiler::Placement>(
                    compiler::Placement::autoLayout(w.kernel, feat));
            }
            int ui = 0;
            for (int u : {1, 4}) {
                int task = baseTask + ui++;
                Op op;
                op.id = w.name + ".u" + std::to_string(u);
                compiler::LowerResult lowered;
                {
                    Tracer::Scope s(gTracer, "compiler::lowerKernel", task);
                    lowered = compiler::lowerKernel(w.kernel, *place, feat,
                                                    {}, u);
                }
                if (!lowered.ok) {
                    ++lowerFailures;
                    op.digest = hex64(fnv1a("lower-fail:" + lowered.error));
                    op.stepMs = secondsSince(step0) * 1e3;
                    p.ops.push_back(std::move(op));
                    step0 = Clock::now();
                    continue;
                }
                ++attempted;
                mapper::SchedOptions so;
                so.maxIters = bench::schedBudgetFor(w.name);
                so.seed = subSeed(cfg_.seed, sub);
                mapper::SpatialScheduler sched(lowered.version.program, hw,
                                               so);
                mapper::Schedule sch;
                auto t0 = Clock::now();
                {
                    Tracer::Scope s(gTracer, "mapper::SpatialScheduler::run",
                                    task);
                    sch = sched.run();
                }
                op.ms = secondsSince(t0) * 1e3;
                op.legal = sch.cost.legal();
                total.merge(sched.stats());
                std::string d = "legal=" +
                                std::to_string(sch.cost.legal()) +
                                " cost=" + costString(sch.cost);
                if (sch.cost.legal()) {
                    ++legal;
                    model::PerfEstimate est;
                    {
                        Tracer::Scope s(gTracer, "model::estimatePerformance",
                                        task);
                        est = model::estimatePerformance(
                            lowered.version.program, sch, hw);
                    }
                    d += " est=" + num(est.cycles);
                }
                op.stepMs = secondsSince(step0) * 1e3;
                if (sch.cost.legal()) {
                    auto c0 = Clock::now();
                    mapper::Cost oracle = sched.evaluate(sch);
                    if (!sameCost(oracle, sch.cost)) {
                        op.ok = false;
                        op.error = "cost " + costString(sch.cost) +
                                   " != evaluate() " + costString(oracle);
                    }
                    checkS += secondsSince(c0);
                }
                op.digest = hex64(fnv1a(d));
                p.ops.push_back(std::move(op));
                step0 = Clock::now();
            }
        }
        addSchedCounts(p.counts, total);
        addLandmarkCounts(p.counts, lm0);
        p.counts.set("mapper.schedules", attempted);
        p.counts.set("mapper.legal", legal);
        p.counts.set("compiler.lower_failures", lowerFailures);
        return p;
    }

  private:
    struct Target
    {
        std::unique_ptr<adg::Adg> hw;
        compiler::HwFeatures feat;
    };
    Config cfg_;
    std::vector<const workloads::Workload *> kernels_;
    std::vector<Target> targets_;
};

/// @}

/// @name sim-sweep
/// @{

struct EngineSplit
{
    int64_t jit = 0, replayed = 0, compiled = 0, generic = 0, skipped = 0;

    explicit EngineSplit(const sim::SimResult &r = {})
        : jit(r.cyclesJit), replayed(r.cyclesReplayed),
          compiled(r.cyclesCompiled), generic(r.cyclesGeneric),
          skipped(r.cyclesSkipped)
    {}
    bool operator==(const EngineSplit &) const = default;
};

class SimSweep : public Workload
{
  public:
    explicit SimSweep(const Config &cfg) : cfg_(cfg) {}

    ~SimSweep() override { removeJitDir(); }

    /** At least 160 simulate calls, so p90 has 16 samples beyond it. */
    int minPasses() const override { return 10; }

    void
    setup() override
    {
        jitDir_ = cfg_.scratch + "/jit-" + std::to_string(::getpid());
        std::filesystem::create_directories(jitDir_);
        simOpts_ = sim::SimOptions{};
        simOpts_.jitCacheDir = jitDir_;
        auto jit0 = sim::jit::JitRuntime::instance().stats();

        kernels_.clear();
        for (const auto *w : fig10Kernels()) {
            auto k = std::make_unique<Kernel>();
            k->w = w;
            k->hw = bench::buildTarget(w->fig10Target);
            auto feat = compiler::HwFeatures::fromAdg(k->hw);
            k->place = std::make_unique<compiler::Placement>(
                compiler::Placement::autoLayout(w->kernel, feat));
            auto lowered =
                compiler::lowerKernel(w->kernel, *k->place, feat, {}, 1);
            if (!lowered.ok)
                fail(w->name + " does not lower: " + lowered.error);
            k->prog = std::move(lowered.version.program);
            // A seed whose annealing ends illegal moves on to the next
            // sub-seed, so every seed yields all sixteen kernels.
            mapper::SchedOptions so;
            so.maxIters = bench::schedBudgetFor(w->name);
            for (int sub = 0; sub < 8; ++sub) {
                so.seed = subSeed(cfg_.seed, sub);
                k->sched = mapper::scheduleProgram(k->prog, k->hw, so);
                if (k->sched.cost.legal())
                    break;
            }
            if (!k->sched.cost.legal())
                fail(w->name + " has no legal unroll-1 schedule");
            {
                Tracer::Scope s(gTracer, "workloads::runGolden", -1);
                k->golden = workloads::runGolden(*w, goldenSeed());
            }
            kernels_.push_back(std::move(k));
        }

        // Fill the private JIT cache: every compile blocks (sync mode),
        // and warm passes repeat until two in a row execute the same
        // engine split, so no timed pass can wait on the compiler.
        std::vector<EngineSplit> prev;
        for (int warm = 0; warm < 8; ++warm) {
            std::vector<EngineSplit> cur;
            for (auto &k : kernels_) {
                auto img =
                    sim::MemImage::build(k->w->kernel, k->golden.initial,
                                         *k->place);
                auto r = sim::simulate(k->prog, k->sched, k->hw, img,
                                       simOpts_);
                k->cycles = r.cycles;
                k->split = EngineSplit(r);
                cur.push_back(k->split);
            }
            if (cur == prev)
                break;
            prev = std::move(cur);
        }
        auto jit = sim::jit::JitRuntime::instance().stats() - jit0;
        setupCounts_ = {};
        setupCounts_.set("sim.jit_compiles", static_cast<double>(jit.compiles));
        setupCounts_.set("sim.jit_compile_ms", jit.compileMs);
        jitBase_ = sim::jit::JitRuntime::instance().stats();
    }

    Pass
    pass(int, double &) override
    {
        Pass p;
        int64_t cycles = 0;
        EngineSplit sum;
        for (size_t i = 0; i < kernels_.size(); ++i) {
            auto &k = *kernels_[i];
            int task = static_cast<int>(i) * 2;
            Op op;
            op.id = k.w->name;
            auto t0 = Clock::now();
            std::unique_ptr<sim::MemImage> img;
            {
                Tracer::Scope s(gTracer, "sim::MemImage::build", task);
                img = std::make_unique<sim::MemImage>(sim::MemImage::build(
                    k.w->kernel, k.golden.initial, *k.place));
            }
            auto t1 = Clock::now();
            sim::SimResult r;
            {
                Tracer::Scope s(gTracer, "sim::simulate", task);
                r = sim::simulate(k.prog, k.sched, k.hw, *img, simOpts_);
            }
            auto t2 = Clock::now();
            op.ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
            ir::ArrayStore out = k.golden.initial;
            img->extract(k.w->kernel, *k.place, out);
            std::string err;
            {
                Tracer::Scope s(gTracer, "workloads::checkOutputs", task);
                err = workloads::checkOutputs(*k.w, k.golden.final, out);
            }
            op.stepMs = secondsSince(t0) * 1e3;

            EngineSplit split(r);
            if (!r.ok)
                op.error = "simulate failed: " + r.error;
            else if (!err.empty())
                op.error = "output mismatch: " + err;
            else if (r.cycles != k.cycles)
                op.error = "cycles differ from set-up";
            else if (!(split == k.split))
                op.error = "engine split differs from set-up";
            op.ok = op.error.empty();
            std::ostringstream d;
            d << "cycles=" << r.cycles;
            for (const auto &reg : r.regions)
                d << ' ' << reg.fires << '@' << reg.endCycle;
            op.digest = hex64(fnv1a(d.str()));
            p.ops.push_back(std::move(op));
            cycles += r.cycles;
            sum.jit += split.jit;
            sum.replayed += split.replayed;
            sum.compiled += split.compiled;
            sum.generic += split.generic;
            sum.skipped += split.skipped;
        }
        auto jit = sim::jit::JitRuntime::instance().stats() - jitBase_;
        if (jit.compiles != 0 || jit.compileFailures != 0) {
            Op op;
            op.id = "jit-idle";
            op.ok = false;
            op.error = "the JIT compiled during a timed pass";
            p.ops.push_back(std::move(op));
        }
        p.counts.set("sim.cycles", static_cast<double>(cycles));
        p.counts.set("sim.cycles_jit", static_cast<double>(sum.jit));
        p.counts.set("sim.cycles_replayed", static_cast<double>(sum.replayed));
        p.counts.set("sim.cycles_compiled", static_cast<double>(sum.compiled));
        p.counts.set("sim.cycles_generic", static_cast<double>(sum.generic));
        p.counts.set("sim.cycles_skipped", static_cast<double>(sum.skipped));
        return p;
    }

    Counts setupCounts() const override { return setupCounts_; }

    void finish() override { removeJitDir(); }

  private:
    struct Kernel
    {
        const workloads::Workload *w = nullptr;
        adg::Adg hw;
        std::unique_ptr<compiler::Placement> place;
        dfg::DecoupledProgram prog;
        mapper::Schedule sched;
        workloads::GoldenRun golden;
        int64_t cycles = 0;
        EngineSplit split;
    };

    [[noreturn]] void
    fail(const std::string &why)
    {
        removeJitDir();
        std::fprintf(stderr, "sim-sweep: %s\n", why.c_str());
        std::exit(1);
    }

    /** Seed 1 reproduces the inputs every other harness uses. */
    uint64_t goldenSeed() const { return 12345 + (cfg_.seed - 1); }

    void
    removeJitDir()
    {
        if (jitDir_.empty())
            return;
        std::error_code ec;
        std::filesystem::remove_all(jitDir_, ec);
        jitDir_.clear();
    }

    Config cfg_;
    std::string jitDir_;
    sim::SimOptions simOpts_;
    std::vector<std::unique_ptr<Kernel>> kernels_;
    Counts setupCounts_;
    sim::jit::JitStats jitBase_;
};

/// @}

/// @name dse
/// @{

class DseWorkload : public Workload
{
  public:
    /** DSE steps per timed Explorer::run. */
    static constexpr int kIters = 80;

    explicit DseWorkload(const Config &cfg) : cfg_(cfg) {}

    void
    setup() override
    {
        suite_ = workloads::suiteWorkloads("MachSuite");
        initial_ = adg::buildDseInitial();
        makeExplorer();
    }

    void betweenPasses() override { makeExplorer(); }

    Pass
    pass(int, double &checkS) override
    {
        Pass p;
        auto lm0 = mapper::landmarkCacheStats();
        dse::DseResult res;
        auto t0 = Clock::now();
        {
            Tracer::Scope s(gTracer, "dse::Explorer::run", -1);
            res = explorer_->run(initial_);
        }
        auto c0 = Clock::now();
        Op op;
        op.id = "explore";
        op.ms = op.stepMs =
            std::chrono::duration<double, std::milli>(c0 - t0).count();
        if (res.stopReason != "max-iters")
            op.error = "stopReason " + res.stopReason;
        else if (res.evalFailures != 0)
            op.error = std::to_string(res.evalFailures) + " eval failures";
        else if (!res.status.ok())
            op.error = "status not ok";
        op.ok = op.error.empty();
        std::string d;
        int accepted = 0;
        for (const auto &h : res.history) {
            d += std::to_string(h.iter) + ":" + num(h.areaMm2) + "," +
                 num(h.powerMw) + "," + num(h.perf) + "," +
                 num(h.objective) + "," + std::to_string(h.accepted) +
                 ";";
            accepted += h.accepted && h.iter >= 2;
        }
        d += "best=" + num(res.bestObjective) + "," +
             num(res.bestCost.areaMm2) + "," + num(res.bestCost.powerMw);
        op.digest = hex64(fnv1a(d));
        p.ops.push_back(std::move(op));

        int candidates = std::max<int>(0, static_cast<int>(res.history.size()) - 2);
        const auto &cs = res.cacheStats;
        p.counts.set("dse.candidates", candidates);
        p.counts.set("dse.accepted", accepted);
        p.counts.set("dse.eval_failures", res.evalFailures);
        p.counts.set("dse.eval_hits", static_cast<double>(cs.evalHits));
        p.counts.set("dse.eval_misses", static_cast<double>(cs.evalMisses));
        p.counts.set("dse.placement_hits",
                     static_cast<double>(cs.placementHits));
        p.counts.set("dse.placement_misses",
                     static_cast<double>(cs.placementMisses));
        p.counts.set("dse.lower_hits", static_cast<double>(cs.lowerHits));
        p.counts.set("dse.lower_misses", static_cast<double>(cs.lowerMisses));
        p.counts.set("dse.cost_hits", static_cast<double>(cs.costHits));
        p.counts.set("dse.cost_misses", static_cast<double>(cs.costMisses));
        addSchedCounts(p.counts, res.schedStats);
        addLandmarkCounts(p.counts, lm0);
        checkS += secondsSince(c0);
        return p;
    }

  private:
    void
    makeExplorer()
    {
        // The `dsagen dse` defaults, on 4 threads with batch 4.
        dse::DseOptions o;
        o.maxIters = kIters;
        o.noImproveExit = kIters;
        o.schedIters = 40;
        o.unrollFactors = {1, 4};
        o.threads = 4;
        o.candidateBatch = 4;
        o.seed = cfg_.seed;
        explorer_.reset();
        explorer_ = std::make_unique<dse::Explorer>(suite_, o);
    }

    Config cfg_;
    std::vector<const workloads::Workload *> suite_;
    adg::Adg initial_;
    std::unique_ptr<dse::Explorer> explorer_;
};

/// @}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <dse|fig10-compile|"
                 "sim-sweep> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>] [--scratch <dir>]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    bool setupOnly = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        std::string v = argv[++i];
        if (a == "--workload")
            cfg.workload = v;
        else if (a == "--seed")
            cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            cfg.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            cfg.trace = v == "1";
        else if (a == "--trace-out")
            cfg.traceOut = v;
        else if (a == "--scratch")
            cfg.scratch = v;
        else if (a == "--setup-only")
            setupOnly = v == "1";
        else
            return usage();
    }
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::fprintf(stderr,
                     "perfbench: refusing to measure a '%s' build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }
    if (cfg.seed == 0 || cfg.seconds <= 0)
        return usage();

    std::unique_ptr<Workload> wl;
    if (cfg.workload == "sim-sweep") {
        // Every JIT compile must finish inside set-up rather than race
        // the timed passes.
        ::setenv("DSA_SIM_JIT_SYNC", "1", 1);
        wl = std::make_unique<SimSweep>(cfg);
    } else if (cfg.workload == "fig10-compile") {
        wl = std::make_unique<Fig10Compile>(cfg);
    } else if (cfg.workload == "dse") {
        wl = std::make_unique<DseWorkload>(cfg);
    } else {
        return usage();
    }

    // Set-up is timed from process start to the first timed call.
    gTracer.enabled = cfg.trace;
    wl->setup();
    double setupS = secondsSince(kProcessStart);
    if (setupOnly) {
        wl->finish();
        std::printf("{\"setup_s\": %s}\n", num(setupS).c_str());
        return 0;
    }
    Counts setupCounts = wl->setupCounts();

    // Timed passes. Pass i runs sub-seed i % M; when tracing, each
    // sub-seed gets a traced and then an untraced pass in turn, and
    // the minimum doubles so both kinds exist for every sub-seed.
    const int subs = wl->subSeeds();
    const int minPasses = wl->minPasses() * (cfg.trace ? 2 : 1);
    std::vector<Pass> passes;
    auto start = Clock::now();
    double checkTotal = 0;
    for (int i = 0;; ++i) {
        if (i >= minPasses && secondsSince(start) >= cfg.seconds)
            break;
        if (i > 0) {
            auto b0 = Clock::now();
            wl->betweenPasses();
            start += Clock::now() - b0;
        }
        int sub = (cfg.trace ? i / 2 : i) % subs;
        gTracer.enabled = cfg.trace && i % 2 == 0;
        gTracer.pass = i;
        double checkS = 0;
        auto t0 = Clock::now();
        Pass p;
        {
            Tracer::Scope s(gTracer, "bench.pass", -1);
            p = wl->pass(sub, checkS);
        }
        p.wallS = secondsSince(t0) - checkS;
        p.sub = sub;
        p.traced = gTracer.enabled;
        start += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(checkS));
        checkTotal += checkS;
        passes.push_back(std::move(p));
    }
    gTracer.enabled = false;
    wl->finish();

    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    double peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    bool traceOk = true;
    if (cfg.trace && !cfg.traceOut.empty())
        traceOk = gTracer.write(cfg.traceOut);

    std::string o = "{\"workload\": " + quote(cfg.workload) +
                    ", \"seed\": " + std::to_string(cfg.seed) +
                    ", \"trace\": " + (cfg.trace ? "1" : "0") +
                    ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE) +
                    ", \"compiler\": " + quote(PERFBENCH_COMPILER) +
                    ", \"trace_written\": " + (traceOk ? "true" : "false") +
                    ", \"peak_rss_mb\": " + num(peakRssMb) +
                    ", \"check_s\": " + num(checkTotal) +
                    ", \"setup_s\": " + num(setupS) +
                    ", \"setup_counts\": " + setupCounts.json() +
                    ", \"passes\": [";
    for (size_t i = 0; i < passes.size(); ++i) {
        const Pass &p = passes[i];
        o += std::string(i ? ",\n" : "\n") + "{\"sub\": " +
             std::to_string(p.sub) + ", \"traced\": " +
             (p.traced ? "true" : "false") + ", \"wall_s\": " +
             num(p.wallS) + ", \"counts\": " + p.counts.json() +
             ", \"ops\": [";
        for (size_t j = 0; j < p.ops.size(); ++j) {
            const Op &op = p.ops[j];
            o += std::string(j ? ", " : "") + "{\"id\": " + quote(op.id) +
                 ", \"digest\": " + quote(op.digest) + ", \"ok\": " +
                 (op.ok ? "true" : "false") + ", \"ms\": " + num(op.ms) +
                 ", \"step_ms\": " + num(op.stepMs) +
                 ", \"legal\": " + std::to_string(op.legal) +
                 (op.ok ? "" : ", \"error\": " + quote(op.error)) + "}";
        }
        o += "]}";
    }
    o += "]}\n";
    std::fputs(o.c_str(), stdout);
    return 0;
}
