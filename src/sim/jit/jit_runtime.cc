#include "sim/jit/jit_runtime.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include <dlfcn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/fault.h"
#include "base/hashing.h"
#include "base/logging.h"
#include "sim/jit/jit_cache.h"

namespace dsa::sim::jit {

namespace {

constexpr const char *kCompileFlags =
    "-O2 -fPIC -shared -std=c++17 -w";

bool
syncMode()
{
    static const bool v = [] {
        const char *e = std::getenv("DSA_SIM_JIT_SYNC");
        return e && *e && *e != '0';
    }();
    return v;
}

/** Run @p cmd through the shell, capturing combined output; true on
 *  exit status 0. */
bool
runCommand(const std::string &cmd, std::string &out)
{
    out.clear();
    FILE *p = ::popen(cmd.c_str(), "r");
    if (!p)
        return false;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        out.append(buf, n);
    int st = ::pclose(p);
    return st != -1 && WIFEXITED(st) && WEXITSTATUS(st) == 0;
}

std::string
firstLine(const std::string &s)
{
    size_t eol = s.find('\n');
    std::string line = eol == std::string::npos ? s : s.substr(0, eol);
    if (line.size() > 200)
        line.resize(200);
    return line;
}

std::string
shellQuote(const std::string &s)
{
    std::string q = "'";
    for (char c : s) {
        if (c == '\'')
            q += "'\\''";
        else
            q += c;
    }
    q += "'";
    return q;
}

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

struct JitRuntime::Impl
{
    struct Entry
    {
        enum State { Cold, Pending, Ready, Failed };
        State state = Cold;
        KernelFn fn = nullptr;
        bool compileRequested = false;
        std::string diag;
    };

    struct Job
    {
        std::string dir, key, source, fingerprint;
        bool allowCompile = false;
    };

    mutable std::mutex mu;
    std::condition_variable cv;      ///< worker wakeup
    std::condition_variable doneCv;  ///< sync-mode waiters
    std::map<std::string, Entry> entries; ///< keyed "dir|key"
    std::deque<Job> jobs;
    JitStats stats;
    std::thread worker;
    bool workerStarted = false;
    bool stopping = false;
    bool cxxProbed = false;
    std::string cxx;    ///< compiler command ("" = none usable)
    std::string cxxId;  ///< its --version first line

    void
    probeCompilerLocked()
    {
        if (cxxProbed)
            return;
        cxxProbed = true;
        std::vector<std::string> cands;
        if (const char *e = std::getenv("DSA_JIT_CXX"); e && *e)
            cands.push_back(e);
        if (const char *e = std::getenv("CXX"); e && *e)
            cands.push_back(e);
        cands.push_back("c++");
        cands.push_back("g++");
        cands.push_back("clang++");
        for (const std::string &c : cands) {
            std::string out;
            if (runCommand(shellQuote(c) + " --version 2>/dev/null",
                           out) &&
                !firstLine(out).empty()) {
                cxx = c;
                cxxId = firstLine(out);
                return;
            }
        }
    }

    void
    ensureWorkerLocked()
    {
        if (workerStarted)
            return;
        workerStarted = true;
        worker = std::thread([this] { run(); });
    }

    void
    run()
    {
        std::unique_lock<std::mutex> lk(mu);
        for (;;) {
            cv.wait(lk, [&] { return stopping || !jobs.empty(); });
            if (stopping && jobs.empty())
                return;
            Job job = std::move(jobs.front());
            jobs.pop_front();
            lk.unlock();
            Entry done = process(job);
            lk.lock();
            Entry &e = entries[job.dir + "|" + job.key];
            // A Cold verdict must not clobber an upgrade that raced in
            // behind us: if compile permission arrived while we were
            // probing, requeue instead of parking.
            if (done.state == Entry::Cold && e.compileRequested) {
                Job again = job;
                again.allowCompile = true;
                jobs.push_back(std::move(again));
                continue;
            }
            e.state = done.state;
            e.fn = done.fn;
            e.diag = done.diag;
            doneCv.notify_all();
        }
    }

    /** Load obj at @p path, honoring the dlopen fault site. Never
     *  dlclose: kernels must outlive every machine using them. */
    bool
    loadObject(const std::string &path, KernelFn &fn, std::string &diag)
    {
        if (fault::shouldFire("jit.dlopen.fail")) {
            diag = "fault-injected dlopen failure";
            return false;
        }
        void *h = ::dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
        if (!h) {
            const char *e = ::dlerror();
            diag = std::string("dlopen: ") + (e ? e : "unknown error");
            return false;
        }
        void *sym = ::dlsym(h, kKernelSymbol);
        if (!sym) {
            const char *e = ::dlerror();
            diag = std::string("dlsym: ") + (e ? e : "symbol missing");
            return false;
        }
        fn = reinterpret_cast<KernelFn>(sym);
        return true;
    }

    /** The whole native path for one key, off-thread: probe cache,
     *  maybe compile, dlopen. Returns the terminal entry state. */
    Entry
    process(const Job &job)
    {
        Entry out;
        auto fail = [&](const char *kind, const std::string &why,
                        int64_t JitStats::*ctr) {
            std::lock_guard<std::mutex> g(mu);
            stats.*ctr += 1;
            out.state = Entry::Failed;
            out.diag = std::string(kind) + ": " + why;
            DSA_WARN("jit: ", out.diag, " (key ", job.key,
                     "); staying on interpreted replay");
            return out;
        };

        if (Status st = ensureCacheDir(job.dir); !st.ok())
            return fail("cache", st.toString(),
                        &JitStats::compileFailures);

        std::string soPath, diag;
        {
            JitStats local;
            ProbeResult pr =
                probeObject(job.dir, job.key, local, &soPath, &diag);
            {
                std::lock_guard<std::mutex> g(mu);
                stats.quarantined += local.quarantined;
                if (pr == ProbeResult::Hit)
                    ++stats.diskHits;
            }
            if (pr == ProbeResult::Hit) {
                if (loadObject(soPath, out.fn, diag)) {
                    out.state = Entry::Ready;
                    return out;
                }
                return fail("dlopen", diag, &JitStats::dlopenFailures);
            }
        }

        if (!job.allowCompile) {
            out.state = Entry::Cold;
            return out;
        }

        if (fault::shouldFire("jit.compile.fail"))
            return fail("compile", "fault-injected compile failure",
                        &JitStats::compileFailures);

        std::string cxxCmd, cxxVer;
        {
            std::lock_guard<std::mutex> g(mu);
            probeCompilerLocked();
            cxxCmd = cxx;
            cxxVer = cxxId;
        }
        if (cxxCmd.empty())
            return fail("compile", "no working C++ compiler found",
                        &JitStats::compileFailures);

        CompileLock lock;
        if (!lock.tryAcquire(job.dir, job.key)) {
            // Lost the claim race: wait for the winner to publish,
            // then reuse its object. Bounded — a dead or wedged
            // winner degrades us to the interpreted tier, not a hang.
            {
                std::lock_guard<std::mutex> g(mu);
                ++stats.lockWaits;
            }
            for (int spin = 0; spin < 500; ++spin) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                JitStats local;
                if (probeObject(job.dir, job.key, local, &soPath,
                                &diag) == ProbeResult::Hit) {
                    {
                        std::lock_guard<std::mutex> g(mu);
                        ++stats.diskHits;
                    }
                    if (loadObject(soPath, out.fn, diag)) {
                        out.state = Entry::Ready;
                        return out;
                    }
                    return fail("dlopen", diag,
                                &JitStats::dlopenFailures);
                }
                if (lock.tryAcquire(job.dir, job.key))
                    break; // winner died without publishing: take over
            }
            if (!lock.held())
                return fail("compile",
                            "timed out waiting for a racing compile",
                            &JitStats::compileFailures);
        }

        // We own the claim. Re-probe once under the lock (the previous
        // owner may have published between our probe and the take).
        {
            JitStats local;
            if (probeObject(job.dir, job.key, local, &soPath, &diag) ==
                ProbeResult::Hit) {
                lock.release();
                {
                    std::lock_guard<std::mutex> g(mu);
                    ++stats.diskHits;
                }
                if (loadObject(soPath, out.fn, diag)) {
                    out.state = Entry::Ready;
                    return out;
                }
                return fail("dlopen", diag, &JitStats::dlopenFailures);
            }
        }

        std::string pid = std::to_string(static_cast<long>(::getpid()));
        std::string src = job.dir + "/src-" + job.key + "-" + pid + ".cc";
        std::string tmpSo = job.dir + "/tmp-" + job.key + "-" + pid + ".so";
        {
            FILE *f = std::fopen(src.c_str(), "w");
            if (!f)
                return fail("compile", "cannot write kernel source",
                            &JitStats::compileFailures);
            std::fwrite(job.source.data(), 1, job.source.size(), f);
            std::fclose(f);
        }

        double t0 = nowMs();
        std::string log;
        bool okc = runCommand(shellQuote(cxxCmd) + " " + kCompileFlags +
                                  " " + shellQuote(src) + " -o " +
                                  shellQuote(tmpSo) + " 2>&1",
                              log);
        double elapsed = nowMs() - t0;
        // DSA_SIM_JIT_KEEP_SRC=1: leave src-<key>-<pid>.cc behind for
        // inspection (debugging the emitter / perf work).
        if (const char *keep = std::getenv("DSA_SIM_JIT_KEEP_SRC");
            !(keep && *keep && *keep != '0'))
            ::unlink(src.c_str());
        if (!okc) {
            ::unlink(tmpSo.c_str());
            return fail("compile", firstLine(log),
                        &JitStats::compileFailures);
        }

        ObjectMeta meta;
        meta.key = job.key;
        meta.fingerprint = job.fingerprint;
        meta.compiler = cxxVer;
        meta.flags = kCompileFlags;
        if (Status st = publishObject(job.dir, job.key, tmpSo, meta);
            !st.ok()) {
            ::unlink(tmpSo.c_str());
            return fail("compile", "publish: " + st.toString(),
                        &JitStats::compileFailures);
        }
        lock.release();
        {
            std::lock_guard<std::mutex> g(mu);
            ++stats.compiles;
            stats.compileMs += elapsed;
        }
        if (loadObject(objectPath(job.dir, job.key), out.fn, diag))
            out.state = Entry::Ready;
        else
            return fail("dlopen", diag, &JitStats::dlopenFailures);
        return out;
    }
};

JitRuntime &
JitRuntime::instance()
{
    static JitRuntime rt;
    return rt;
}

JitRuntime::Impl *
JitRuntime::impl()
{
    // Lazy so a process that never jits pays nothing.
    static std::once_flag once;
    std::call_once(once, [this] { impl_ = new Impl; });
    return impl_;
}

JitRuntime::~JitRuntime()
{
    if (!impl_)
        return;
    {
        std::lock_guard<std::mutex> g(impl_->mu);
        impl_->stopping = true;
        impl_->jobs.clear();
    }
    impl_->cv.notify_all();
    if (impl_->worker.joinable())
        impl_->worker.join();
    // impl_ (and every loaded object) leaks deliberately: kernels may
    // still be referenced by machines torn down after us.
}

bool
JitRuntime::hostSupported()
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    return true;
#else
    // Generated kernels assume little-endian memcpy element access.
    return false;
#endif
}

const std::string &
JitRuntime::compilerId()
{
    Impl *im = impl();
    std::lock_guard<std::mutex> g(im->mu);
    im->probeCompilerLocked();
    return im->cxxId;
}

std::string
JitRuntime::makeKey(const std::string &source,
                    const std::string &compilerId, uint64_t optionsHash)
{
    uint64_t h = xxhash64(source.data(), source.size(), /*seed=*/0x1515);
    h = hashCombine(h, xxhash64(compilerId.data(), compilerId.size(), 0));
    h = hashCombine(h, static_cast<uint64_t>(kAbiVersion));
    h = hashCombine(h, optionsHash);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

KernelFn
JitRuntime::acquire(const std::string &dir, const std::string &key,
                    const std::string &source,
                    const std::function<std::string()> &fingerprint,
                    bool allowCompile)
{
    if (!hostSupported())
        return nullptr;
    Impl *im = impl();
    std::unique_lock<std::mutex> lk(im->mu);
    ++im->stats.requests;
    std::string id = dir + "|" + key;
    auto it = im->entries.find(id);
    if (it != im->entries.end()) {
        Impl::Entry &e = it->second;
        if (allowCompile)
            e.compileRequested = true;
        if (e.state == Impl::Entry::Ready) {
            ++im->stats.memHits;
            return e.fn;
        }
        if (e.state == Impl::Entry::Failed)
            return nullptr;
        if (e.state == Impl::Entry::Cold && allowCompile) {
            // Threshold crossed after the probe-only pass: upgrade.
            e.state = Impl::Entry::Pending;
            im->jobs.push_back({dir, key, source,
                                fingerprint ? fingerprint()
                                            : std::string(),
                                true});
            im->ensureWorkerLocked();
            im->cv.notify_all();
        } else if (e.state == Impl::Entry::Cold) {
            return nullptr;
        }
    } else {
        Impl::Entry e;
        e.state = Impl::Entry::Pending;
        e.compileRequested = allowCompile;
        im->entries.emplace(id, e);
        im->jobs.push_back({dir, key, source,
                            fingerprint ? fingerprint() : std::string(),
                            allowCompile});
        im->ensureWorkerLocked();
        im->cv.notify_all();
    }
    if (!syncMode())
        return nullptr;
    im->doneCv.wait(lk, [&] {
        Impl::Entry &e = im->entries[id];
        return e.state != Impl::Entry::Pending;
    });
    Impl::Entry &e = im->entries[id];
    if (e.state == Impl::Entry::Ready) {
        ++im->stats.memHits;
        return e.fn;
    }
    return nullptr;
}

std::string
JitRuntime::diagnostic(const std::string &dir, const std::string &key)
{
    Impl *im = impl();
    std::lock_guard<std::mutex> g(im->mu);
    auto it = im->entries.find(dir + "|" + key);
    return it == im->entries.end() ? std::string() : it->second.diag;
}

JitStats
JitRuntime::stats() const
{
    Impl *im = const_cast<JitRuntime *>(this)->impl();
    std::lock_guard<std::mutex> g(im->mu);
    return im->stats;
}

extern "C" void
dsaJitTrap(int site)
{
    DSA_PANIC("jit kernel out-of-bounds trap (site ", site, ")");
}

} // namespace dsa::sim::jit
