/**
 * @file
 * Persistent on-disk object cache for JIT-compiled simulation kernels,
 * following the eval-cache store's durability conventions (see
 * `dse/cache_store.h`): single-writer files claimed via O_EXCL lock
 * files, atomic publish by rename, a checksummed sidecar manifest per
 * object, and quarantine-don't-crash loads — a corrupt `.so` or torn
 * manifest costs cache warmth, never correctness and never a crash.
 *
 * Layout of a cache directory (one per abi version + uid by default):
 *   obj-<key>.so        the compiled kernel (published by rename)
 *   obj-<key>.meta      checksummed manifest: key, abi, so size/hash,
 *                       ADG fingerprint, compiler version, flags
 *   obj-<key>.lock      O_EXCL compile claim, holds the owner pid;
 *                       stale (dead-owner) locks are broken
 *   quar-*              quarantined corrupt entries, kept for autopsy
 *
 * The <key> is content-addressed: a hash of the generated source, the
 * compiler identity, and the kernel ABI version (see jit_runtime).
 * Readers validate the manifest checksum, the recorded object hash,
 * and the abi before ever dlopen()ing a cached file, so workers
 * sharing the directory can race freely: exactly one wins the lock
 * and compiles; everyone else reuses the published object or, if they
 * find a half-written/corrupt entry, quarantines it and moves on.
 */

#ifndef DSA_SIM_JIT_JIT_CACHE_H
#define DSA_SIM_JIT_JIT_CACHE_H

#include <string>

#include "base/status.h"
#include "sim/jit/jit_stats.h"

namespace dsa::sim::jit {

/** Manifest payload recorded next to each published object. */
struct ObjectMeta
{
    std::string key;         ///< cache key (hex)
    std::string fingerprint; ///< canonical ADG fingerprint (info only)
    std::string compiler;    ///< compiler identity line
    std::string flags;       ///< compile flags used
};

/** Default shared cache dir: $DSA_SIM_JIT_DIR, else a per-uid,
 *  per-abi-version directory under $TMPDIR (default /tmp). */
std::string defaultCacheDir();

std::string objectPath(const std::string &dir, const std::string &key);
std::string metaPath(const std::string &dir, const std::string &key);

/** mkdir -p the cache directory. */
Status ensureCacheDir(const std::string &dir);

enum class ProbeResult {
    Miss,        ///< no (validated) object present
    Hit,         ///< *soPath names a validated object
    Quarantined, ///< a corrupt entry was found and set aside
};

/**
 * Look for a published, validated object for @p key. A present but
 * invalid entry (torn manifest, checksum mismatch, abi mismatch, size
 * mismatch — or an injected `jit.object.corrupt` fault) is renamed to
 * a `quar-` name so it is never re-served, and Quarantined is
 * returned (with a diagnostic in @p diag). Bumps @p stats.
 */
ProbeResult probeObject(const std::string &dir, const std::string &key,
                        JitStats &stats, std::string *soPath,
                        std::string *diag);

/**
 * Atomically publish @p tmpSo (a finished object inside @p dir) as
 * obj-<key>.so with its checksummed manifest. Object first, manifest
 * last, both by rename — a reader either sees a complete entry or no
 * manifest at all.
 */
Status publishObject(const std::string &dir, const std::string &key,
                     const std::string &tmpSo, const ObjectMeta &meta);

/**
 * The single-writer compile claim: a lock file holding the owner pid.
 * The claim is published atomically — the pid is written to a private
 * temp file that is then hard-linked to the lock name (EEXIST = the
 * race is lost) — so a contender never observes a claim without its
 * owner. A lock whose owner is dead is stale and is broken (unlink +
 * retake); an empty or unparsable lock is treated as live. Losing the
 * race is not an error — the loser simply re-probes for the winner's
 * published object.
 */
class CompileLock
{
  public:
    CompileLock() = default;
    ~CompileLock() { release(); }

    CompileLock(const CompileLock &) = delete;
    CompileLock &operator=(const CompileLock &) = delete;

    /** True when this process now owns the compile claim for @p key. */
    bool tryAcquire(const std::string &dir, const std::string &key);

    bool held() const { return held_; }

    /** Unlink the lock file (idempotent; also run by the destructor). */
    void release();

  private:
    bool held_ = false;
    std::string path_;
};

} // namespace dsa::sim::jit

#endif // DSA_SIM_JIT_JIT_CACHE_H
