#include "runtime/jit.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <dlfcn.h>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>
#include <unordered_map>

#include "support/diagnostics.hpp"

namespace polymage::rt {

namespace fs = std::filesystem;

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
removeTree(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
    if (ec)
        warn("failed to remove JIT temp dir " + dir + ": " +
             ec.message());
}

/** 64-bit FNV-1a; collision-tolerant enough for a content cache. */
std::uint64_t
fnv1a(const std::string &data, std::uint64_t h = 14695981039346656037ULL)
{
    for (unsigned char c : data) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * First line of `compiler --version`, memoised per compiler name so a
 * cache hit costs one subprocess per process lifetime, not per build.
 * Empty when the probe fails (the cache key then degrades gracefully
 * to source+flags).
 */
std::string
compilerVersion(const std::string &compiler)
{
    static std::mutex mu;
    static std::unordered_map<std::string, std::string> memo;
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo.find(compiler);
    if (it != memo.end())
        return it->second;

    std::string line;
    const std::string cmd = compiler + " --version 2>/dev/null";
    if (FILE *p = popen(cmd.c_str(), "r")) {
        char buf[256];
        if (std::fgets(buf, sizeof buf, p) != nullptr)
            line = buf;
        pclose(p);
    }
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
        line.pop_back();
    memo[compiler] = line;
    return line;
}

/**
 * Persistent cache directory: POLYMAGE_JIT_CACHE_DIR, else
 * $XDG_CACHE_HOME/polymage/jit, else $HOME/.cache/polymage/jit, else a
 * world-shared /tmp fallback.  Created on demand; empty on failure
 * (caching is then skipped).
 */
std::string
cacheDir()
{
    std::string dir;
    if (const char *e = std::getenv("POLYMAGE_JIT_CACHE_DIR");
        e != nullptr && e[0] != '\0') {
        dir = e;
    } else if (const char *xdg = std::getenv("XDG_CACHE_HOME");
               xdg != nullptr && xdg[0] != '\0') {
        dir = std::string(xdg) + "/polymage/jit";
    } else if (const char *home = std::getenv("HOME");
               home != nullptr && home[0] != '\0') {
        dir = std::string(home) + "/.cache/polymage/jit";
    } else {
        dir = "/tmp/polymage-jit-cache";
    }
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        return {};
    return dir;
}

/**
 * Atomically publish @p src as @p dst within the cache: copy to a
 * unique temp name in the same directory, then rename.  Safe under
 * concurrent writers — the temp name is unique per process *and*
 * per call (pid alone would collide for two threads of one process),
 * and rename() replaces any concurrent winner atomically, so readers
 * only ever see a complete file.  Best effort — a failure only loses
 * the cache entry, never the build.
 */
void
publishToCache(const std::string &src, const std::string &dst)
{
    static std::atomic<std::uint64_t> seq{0};
    const std::string tmp = dst + ".tmp." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(seq.fetch_add(1));
    std::error_code ec;
    fs::copy_file(src, tmp, fs::copy_options::overwrite_existing, ec);
    if (ec)
        return;
    fs::rename(tmp, dst, ec);
    if (ec)
        fs::remove(tmp, ec);
}

/**
 * Load the OpenMP runtime into the global namespace, once per process,
 * before the first generated object.  Host binaries that reference no
 * `omp_*` symbol are linked without libgomp (the --as-needed link drops
 * it), so it would otherwise arrive first as a dependency of a
 * dlopen'ed pipeline, whose multi-threaded regions then crash.
 */
void
loadOpenMPRuntime()
{
    static std::once_flag once;
    std::call_once(once, [] {
        if (dlopen("libgomp.so.1", RTLD_NOW | RTLD_GLOBAL) == nullptr)
            warn(std::string("cannot preload libgomp: ") + dlerror());
    });
}

} // namespace

JitModule
JitModule::compile(const std::string &source, const JitOptions &opts)
{
    if (opts.openmp)
        loadOpenMPRuntime();
    std::ostringstream flags;
    // -fno-math-errno lets gcc vectorise transcendental calls (expf,
    // powf) under omp simd via libmvec, matching what icc does by
    // default in the paper's setup.  It is not -ffast-math: IEEE
    // semantics are otherwise preserved.
    flags << "-shared -fPIC -std=c++17 -w -fno-math-errno "
          << opts.optLevel;
    if (opts.nativeArch)
        flags << " -march=native";
    if (opts.openmp)
        flags << " -fopenmp";
    if (!opts.vectorize)
        flags << " -fno-tree-vectorize -fno-tree-slp-vectorize";
    if (!opts.extraFlags.empty())
        flags << " " << opts.extraFlags;

    // The cache key covers everything that shapes the object code:
    // the generated source, every compiler flag, and the compiler's
    // own identity/version.
    const char *env_cache = std::getenv("POLYMAGE_JIT_CACHE");
    const bool use_cache =
        opts.cache &&
        !(env_cache != nullptr && std::string(env_cache) == "0");
    std::string cache_so, cache_cpp;
    if (use_cache) {
        const std::string cdir = cacheDir();
        if (!cdir.empty()) {
            std::uint64_t h = fnv1a(source);
            h = fnv1a(opts.compiler + " " + flags.str(), h);
            h = fnv1a(compilerVersion(opts.compiler), h);
            char key[32];
            std::snprintf(key, sizeof key, "%016llx",
                          (unsigned long long)h);
            cache_so = cdir + "/" + key + ".so";
            cache_cpp = cdir + "/" + key + ".cpp";
        }
    }

    if (!cache_so.empty() && fs::exists(cache_so)) {
        JitModule mod;
        mod.handle_ = dlopen(cache_so.c_str(), RTLD_NOW | RTLD_LOCAL);
        if (mod.handle_ != nullptr) {
            mod.fromCache_ = true;
            if (fs::exists(cache_cpp))
                mod.sourcePath_ = cache_cpp;
            return mod;
        }
        // Unloadable entry (corrupt or wrong-arch): rebuild over it.
        std::error_code ec;
        fs::remove(cache_so, ec);
    }

    char tmpl[] = "/tmp/polymage_jit_XXXXXX";
    const char *dir = mkdtemp(tmpl);
    if (dir == nullptr)
        internalError("mkdtemp failed for JIT compilation");

    JitModule mod;
    mod.dir_ = dir;
    mod.keep_ = opts.keepFiles;
    mod.sourcePath_ = mod.dir_ + "/pipeline.cpp";
    const std::string so_path = mod.dir_ + "/pipeline.so";
    const std::string err_path = mod.dir_ + "/compile.log";

    {
        std::ofstream out(mod.sourcePath_);
        out << source;
        if (!out)
            internalError("cannot write JIT source to ",
                          mod.sourcePath_);
    }

    std::ostringstream cmd;
    cmd << opts.compiler << " " << flags.str() << " '"
        << mod.sourcePath_ << "' -o '" << so_path << "' 2> '"
        << err_path << "'";

    if (std::system(cmd.str().c_str()) != 0) {
        const std::string log = readFile(err_path);
        mod.keep_ = true; // preserve evidence
        internalError("JIT compilation failed (sources kept in ",
                      mod.dir_, "):\n", cmd.str(), "\n", log);
    }

    mod.handle_ = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (mod.handle_ == nullptr) {
        mod.keep_ = true;
        internalError("dlopen failed: ", dlerror());
    }

    if (!cache_so.empty()) {
        publishToCache(so_path, cache_so);
        publishToCache(mod.sourcePath_, cache_cpp);
    }
    return mod;
}

JitModule::JitModule(JitModule &&o) noexcept
    : handle_(o.handle_), dir_(std::move(o.dir_)),
      sourcePath_(std::move(o.sourcePath_)), keep_(o.keep_),
      fromCache_(o.fromCache_)
{
    o.handle_ = nullptr;
    o.dir_.clear();
}

JitModule &
JitModule::operator=(JitModule &&o) noexcept
{
    if (this != &o) {
        this->~JitModule();
        new (this) JitModule(std::move(o));
    }
    return *this;
}

JitModule::~JitModule()
{
    if (handle_ != nullptr)
        dlclose(handle_);
    if (!dir_.empty() && !keep_)
        removeTree(dir_);
}

void *
JitModule::symbol(const std::string &name) const
{
    PM_ASSERT(handle_ != nullptr, "module not loaded");
    void *sym = dlsym(handle_, name.c_str());
    if (sym == nullptr)
        internalError("symbol '", name, "' not found in JIT module");
    return sym;
}

} // namespace polymage::rt
