#include "sim/jit/jit_cache.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "base/fault.h"
#include "base/hashing.h"
#include "base/logging.h"
#include "base/subprocess.h" // errnoStatus
#include "sim/jit/jit_emit.h" // kAbiVersion

namespace dsa::sim::jit {

namespace {

constexpr const char *kMetaMagic = "dsagen-jit-meta v1";

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Whole-file read; false on any I/O failure. */
bool
readFile(const std::string &path, std::string &out)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    out.clear();
    char buf[1 << 16];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            return false;
        }
        if (n == 0)
            break;
        out.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return true;
}

/** Move a corrupt entry aside so it is never re-served. */
void
quarantine(const std::string &dir, const std::string &key,
           const std::string &why, JitStats &stats)
{
    std::string tag = dir + "/quar-" + key + "-" +
                      std::to_string(static_cast<long>(::getpid()));
    // Manifest first: once it is gone no reader will trust the object.
    ::rename(metaPath(dir, key).c_str(), (tag + ".meta").c_str());
    ::rename(objectPath(dir, key).c_str(), (tag + ".so").c_str());
    ++stats.quarantined;
    DSA_WARN("jit cache: quarantined object ", key, " (", why, ")");
}

/** One "k v" line of the manifest; value may contain spaces. */
bool
metaLine(const std::string &text, const char *field, std::string &out)
{
    std::string prefix = std::string(field) + " ";
    size_t at = 0;
    while (at < text.size()) {
        size_t eol = text.find('\n', at);
        if (eol == std::string::npos)
            eol = text.size();
        if (text.compare(at, prefix.size(), prefix) == 0) {
            out = text.substr(at + prefix.size(), eol - at - prefix.size());
            return true;
        }
        at = eol + 1;
    }
    return false;
}

} // namespace

std::string
defaultCacheDir()
{
    if (const char *e = std::getenv("DSA_SIM_JIT_DIR"); e && *e)
        return e;
    const char *tmp = std::getenv("TMPDIR");
    std::string base = tmp && *tmp ? tmp : "/tmp";
    while (!base.empty() && base.back() == '/')
        base.pop_back();
    return base + "/dsagen-jit-v" + std::to_string(kAbiVersion) +
           "-uid" + std::to_string(static_cast<long>(::getuid()));
}

std::string
objectPath(const std::string &dir, const std::string &key)
{
    return dir + "/obj-" + key + ".so";
}

std::string
metaPath(const std::string &dir, const std::string &key)
{
    return dir + "/obj-" + key + ".meta";
}

Status
ensureCacheDir(const std::string &dir)
{
    if (dir.empty())
        return Status::invalidArgument("empty jit cache dir");
    // mkdir -p: create each prefix, tolerating pre-existing components.
    for (size_t i = 1; i <= dir.size(); ++i) {
        if (i != dir.size() && dir[i] != '/')
            continue;
        std::string prefix = dir.substr(0, i);
        if (::mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST)
            return errnoStatus("jit.cache.mkdir", errno);
    }
    struct ::stat st;
    if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        return Status::invalidArgument("jit cache path '" + dir +
                                       "' is not a directory");
    return {};
}

ProbeResult
probeObject(const std::string &dir, const std::string &key,
            JitStats &stats, std::string *soPath, std::string *diag)
{
    std::string mpath = metaPath(dir, key);
    std::string opath = objectPath(dir, key);
    std::string meta;
    if (!readFile(mpath, meta)) {
        // No manifest => nothing published (an orphan .so from a
        // killed writer is invisible until someone re-publishes).
        return ProbeResult::Miss;
    }

    auto bad = [&](const std::string &why) {
        if (diag)
            *diag = why;
        quarantine(dir, key, why, stats);
        return ProbeResult::Quarantined;
    };

    // Manifest self-check: last line is "sum <xxhash64 of preceding>".
    size_t sumAt = meta.rfind("sum ");
    if (sumAt == std::string::npos || (sumAt != 0 && meta[sumAt - 1] != '\n'))
        return bad("manifest missing checksum line");
    std::string sumLine = meta.substr(sumAt + 4);
    while (!sumLine.empty() &&
           (sumLine.back() == '\n' || sumLine.back() == '\r'))
        sumLine.pop_back();
    uint64_t want = xxhash64(meta.data(), sumAt, /*seed=*/0);
    if (sumLine != hex64(want))
        return bad("manifest checksum mismatch");

    std::string field;
    if (!metaLine(meta, "magic", field) || field != kMetaMagic)
        return bad("manifest magic mismatch");
    if (!metaLine(meta, "key", field) || field != key)
        return bad("manifest key mismatch");
    if (!metaLine(meta, "abi", field) ||
        field != std::to_string(kAbiVersion))
        return bad("manifest abi mismatch");
    std::string soSize, soHash;
    if (!metaLine(meta, "so-size", field) || (soSize = field).empty() ||
        !metaLine(meta, "so-hash", field) || (soHash = field).empty())
        return bad("manifest incomplete");

    std::string so;
    if (!readFile(opath, so))
        return bad("object unreadable");
    if (std::to_string(so.size()) != soSize)
        return bad("object size mismatch");
    if (hex64(xxhash64(so.data(), so.size(), /*seed=*/0)) != soHash)
        return bad("object checksum mismatch");
    if (fault::shouldFire("jit.object.corrupt"))
        return bad("fault-injected object corruption");

    if (soPath)
        *soPath = opath;
    return ProbeResult::Hit;
}

Status
publishObject(const std::string &dir, const std::string &key,
              const std::string &tmpSo, const ObjectMeta &meta)
{
    std::string so;
    if (!readFile(tmpSo, so))
        return errnoStatus("jit.cache.read-tmp", errno);

    // Object first (rename within the cache dir), manifest last: a
    // reader either finds a complete entry or no manifest at all.
    std::string opath = objectPath(dir, key);
    if (::rename(tmpSo.c_str(), opath.c_str()) != 0)
        return errnoStatus("jit.cache.publish-so", errno);

    std::string body;
    body += std::string("magic ") + kMetaMagic + "\n";
    body += "key " + key + "\n";
    body += "abi " + std::to_string(kAbiVersion) + "\n";
    body += "so-size " + std::to_string(so.size()) + "\n";
    body += "so-hash " + hex64(xxhash64(so.data(), so.size(), 0)) + "\n";
    body += "fp " + meta.fingerprint + "\n";
    body += "compiler " + meta.compiler + "\n";
    body += "flags " + meta.flags + "\n";
    body += "sum " + hex64(xxhash64(body.data(), body.size(), 0)) + "\n";

    std::string tmpMeta = metaPath(dir, key) + ".tmp-" +
                          std::to_string(static_cast<long>(::getpid()));
    int fd = ::open(tmpMeta.c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
    if (fd < 0)
        return errnoStatus("jit.cache.meta-open", errno);
    size_t off = 0;
    while (off < body.size()) {
        ssize_t n = ::write(fd, body.data() + off, body.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            int err = errno;
            ::close(fd);
            ::unlink(tmpMeta.c_str());
            return errnoStatus("jit.cache.meta-write", err);
        }
        off += static_cast<size_t>(n);
    }
    ::fsync(fd);
    ::close(fd);
    if (::rename(tmpMeta.c_str(), metaPath(dir, key).c_str()) != 0) {
        int err = errno;
        ::unlink(tmpMeta.c_str());
        return errnoStatus("jit.cache.publish-meta", err);
    }
    return {};
}

bool
CompileLock::tryAcquire(const std::string &dir, const std::string &key)
{
    DSA_ASSERT(!held_, "compile lock reacquired while held");
    std::string path = dir + "/obj-" + key + ".lock";
    // The claim must appear with its owner already in it: creating the
    // lock name first and writing the pid after would let a contender
    // read an empty claim in between and break a live one. So write
    // the pid to a private temp file and link() it to the lock name.
    static std::atomic<uint64_t> seq{0};
    std::string tmp = path + ".tmp-" +
                      std::to_string(static_cast<long>(::getpid())) + "-" +
                      std::to_string(seq.fetch_add(1));
    std::string pid = std::to_string(static_cast<long>(::getpid())) + "\n";
    // (pid, seq) names the temp file uniquely among live processes; a
    // leftover of a dead process that had this pid is simply reused.
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0666);
    if (fd < 0)
        return false;
    ssize_t n = ::write(fd, pid.data(), pid.size());
    ::close(fd);
    bool won = false;
    for (int attempt = 0;
         n == static_cast<ssize_t>(pid.size()) && attempt < 2; ++attempt) {
        if (::link(tmp.c_str(), path.c_str()) == 0) {
            won = true;
            break;
        }
        if (errno != EEXIST)
            break;
        // Someone holds the claim. Break it only if its owner is dead.
        std::string owner;
        long ownerPid = 0;
        if (readFile(path, owner))
            ownerPid = std::atol(owner.c_str());
        if (ownerPid <= 0 || ::kill(static_cast<pid_t>(ownerPid), 0) == 0 ||
            errno != ESRCH)
            break; // live, unknowable or unparsable owner: lose the race
        ::unlink(path.c_str());
        // Retry once: another contender may win the retake, which is
        // fine — exactly one compiler per key either way.
    }
    ::unlink(tmp.c_str());
    if (won) {
        held_ = true;
        path_ = path;
    }
    return won;
}

void
CompileLock::release()
{
    if (!held_)
        return;
    ::unlink(path_.c_str());
    held_ = false;
    path_.clear();
}

} // namespace dsa::sim::jit
