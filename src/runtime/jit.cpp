#include "runtime/jit.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dlfcn.h>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <spawn.h>
#include <sstream>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>

#include "machine/machine.hpp"
#include "support/diagnostics.hpp"
#include "support/trace.hpp"

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
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    if (!out)
        internalError("cannot write JIT source to ", path);
}

/** Split @p text at whitespace. */
std::vector<std::string>
words(const std::string &text)
{
    std::istringstream in(text);
    std::vector<std::string> out;
    for (std::string w; in >> w;)
        out.push_back(w);
    return out;
}

/** @p argv joined by spaces, for diagnostics. */
std::string
commandLine(const std::vector<std::string> &argv)
{
    std::string out;
    for (const std::string &a : argv)
        out += (out.empty() ? "" : " ") + a;
    return out;
}

/**
 * Start @p argv (argv[0] looked up in PATH, no shell) under @p actions
 * and wait for it; true when it exited with status 0.  @p error gets
 * the reason when it could not start.
 */
bool
run(const std::vector<std::string> &argv,
    const posix_spawn_file_actions_t &actions, std::string &error)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    pid_t pid = -1;
    const int rc =
        posix_spawnp(&pid, args[0], &actions, nullptr, args.data(), environ);
    if (rc != 0) {
        error = "cannot start " + argv[0] + ": " + std::strerror(rc) + "\n";
        return false;
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return false;
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/**
 * Run @p argv with stdout and stderr in the file @p log.  On failure,
 * returns the command line and the log; empty on success.
 */
std::string
runLogged(const std::vector<std::string> &argv, const std::string &log)
{
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    std::string error;
    const bool ok = run(argv, actions, error);
    posix_spawn_file_actions_destroy(&actions);
    return ok ? std::string() : commandLine(argv) + "\n" + error +
                                    readFile(log);
}

/**
 * Drop the calling thread 10 nice levels; the processes it starts
 * inherit them (on Linux the nice value is per thread, so only this
 * thread changes).  A JIT build usually runs beside work that is
 * waiting for answers (the tiered engine's interpreter tier, other
 * pipelines' tile tasks), and the compilers should take the idle
 * cycles rather than preempt it.
 */
void
lowerPriority()
{
    const id_t tid = id_t(gettid());
    errno = 0;
    const int own = getpriority(PRIO_PROCESS, tid);
    if (errno == 0)
        setpriority(PRIO_PROCESS, tid, std::min(own + 10, 19));
}

/** One of the JitModule::parallelism() compiler slots, held while alive. */
class CompilerSlot
{
  public:
    CompilerSlot()
    {
        std::unique_lock<std::mutex> lock(slots().mu);
        slots().cv.wait(lock, [] {
            return slots().used < JitModule::parallelism();
        });
        ++slots().used;
    }
    ~CompilerSlot()
    {
        {
            std::lock_guard<std::mutex> lock(slots().mu);
            --slots().used;
        }
        slots().cv.notify_one();
    }
    CompilerSlot(const CompilerSlot &) = delete;
    CompilerSlot &operator=(const CompilerSlot &) = delete;

  private:
    struct Slots
    {
        std::mutex mu;
        std::condition_variable cv;
        int used = 0;
    };
    static Slots &
    slots()
    {
        static Slots s;
        return s;
    }
};

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

    // The version banner is a few hundred bytes: it fits the pipe, so
    // the probe finishes before anything reads it.
    std::string out;
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) == 0) {
        std::vector<std::string> argv = words(compiler);
        argv.push_back("--version");
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
        posix_spawn_file_actions_addopen(&actions, 2, "/dev/null",
                                         O_WRONLY, 0);
        std::string error;
        run(argv, actions, error);
        posix_spawn_file_actions_destroy(&actions);
        close(fds[1]);
        char buf[256];
        const ssize_t got = read(fds[0], buf, sizeof buf);
        if (got > 0)
            out.assign(buf, std::size_t(got));
        close(fds[0]);
    }
    std::string line = out.substr(0, out.find('\n'));
    while (!line.empty() && line.back() == '\r')
        line.pop_back();
    memo[compiler] = line;
    return line;
}

/** The directory for temporary files: $TMPDIR, else /tmp. */
fs::path
tempRoot()
{
    std::error_code ec;
    fs::path root = fs::temp_directory_path(ec);
    return ec ? fs::path("/tmp") : root;
}

/**
 * Persistent cache directory: POLYMAGE_JIT_CACHE_DIR, else
 * $XDG_CACHE_HOME/polymage/jit, else $HOME/.cache/polymage/jit, else a
 * per-user `polymage-jit-cache-<uid>` (mode 0700) in the temp
 * directory.  Created on demand.  Empty (caching is then skipped) when
 * it cannot be created, or when it is not owned by the effective user
 * or group or others may write it: the JIT loads code out of it.
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
        dir = (tempRoot() / ("polymage-jit-cache-" +
                             std::to_string(geteuid())))
                  .string();
        mkdir(dir.c_str(), 0700); // an existing one is checked below
    }
    std::error_code ec;
    fs::create_directories(dir, ec);
    struct stat st;
    if (ec || stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode) ||
        st.st_uid != geteuid() || (st.st_mode & (S_IWGRP | S_IWOTH)) != 0)
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

} // namespace

int
JitModule::parallelism()
{
    static const int n =
        std::max(1, int(std::thread::hardware_concurrency()) - 1);
    return n;
}

JitModule
JitModule::compile(const std::string &source, const JitOptions &opts)
{
    return compile(std::vector<std::string>{source}, opts);
}

JitModule
JitModule::compile(const std::vector<std::string> &units,
                   const JitOptions &opts)
{
    PM_ASSERT(!units.empty(), "no translation unit to compile");
    // -fno-math-errno lets gcc treat sqrt and friends as the pure
    // instructions they are.  It is not -ffast-math: IEEE semantics are
    // otherwise preserved.  Transcendental calls (expf, powf) vectorise
    // because the generated prelude declares them `simd` (glibc's
    // <math.h> does so only under -ffast-math); the vector variants
    // live in libmvec, linked below -- what icc's SVML gives the
    // paper's setup.  -fopenmp-simd honours the generated `omp simd`
    // pragmas without the OpenMP runtime (under -w an unknown pragma
    // would be dropped silently).  One flag set serves both the
    // per-unit compiles (-shared is inert under -c) and the link.
    std::vector<std::string> flags = {"-shared", "-fPIC", "-std=c++17",
                                      "-w", "-fno-math-errno",
                                      "-fopenmp-simd", opts.optLevel};
    if (opts.nativeArch)
        flags.push_back("-march=native");
    if (!opts.vectorize) {
        flags.push_back("-fno-tree-vectorize");
        flags.push_back("-fno-tree-slp-vectorize");
    }
    for (std::string &w : words(opts.extraFlags))
        flags.push_back(std::move(w));
    std::vector<std::string> command = words(opts.compiler);
    PM_ASSERT(!command.empty(), "no JIT compiler named");
    command.insert(command.end(), flags.begin(), flags.end());

    // The program as one text: what the cache key covers and what
    // sourcePath() shows.  Unit markers keep the split part of the key.
    std::string program;
    for (std::size_t k = 0; k < units.size(); ++k) {
        if (units.size() > 1)
            program += "// ---- translation unit " + std::to_string(k) +
                       " of " + std::to_string(units.size()) + "\n";
        program += units[k];
    }

    // The cache key covers everything that shapes the object code:
    // every unit, every compiler flag, and the compiler's own
    // identity/version.
    const char *env_cache = std::getenv("POLYMAGE_JIT_CACHE");
    const bool use_cache =
        opts.cache &&
        !(env_cache != nullptr && std::string(env_cache) == "0");
    std::string cache_so, cache_cpp;
    if (use_cache) {
        const std::string cdir = cacheDir();
        if (!cdir.empty()) {
            std::uint64_t h = fnv1a(program);
            h = fnv1a(commandLine(command), h);
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

    // Scratch space under $TMPDIR, so a caller that moves temporaries
    // moves these too.
    const fs::path tmp_root = tempRoot();
    std::string tmpl = (tmp_root / "polymage_jit_XXXXXX").string();
    if (mkdtemp(tmpl.data()) == nullptr)
        internalError("mkdtemp failed for JIT compilation in ",
                      tmp_root.string());

    JitModule mod;
    mod.dir_ = tmpl;
    mod.keep_ = opts.keepFiles;
    mod.sourcePath_ = mod.dir_ + "/pipeline.cpp";
    const std::string so_path = mod.dir_ + "/pipeline.so";
    writeFile(mod.sourcePath_, program);

    // One unit becomes the shared object in a single compiler run.
    // Several compile to objects (jobs 0..n-1), then job n links them.
    const std::size_t n = units.size();
    std::vector<std::vector<std::string>> argv;
    std::vector<std::string> logs;
    // Libraries follow the objects on the link line.
    std::vector<std::string> libs;
    if (machine::kSimdLibm && opts.vectorize)
        libs.push_back("-lmvec");
    if (n == 1) {
        argv.push_back(command);
        argv[0].insert(argv[0].end(), {mod.sourcePath_, "-o", so_path});
        argv[0].insert(argv[0].end(), libs.begin(), libs.end());
        logs.push_back(mod.dir_ + "/compile.log");
    } else {
        std::vector<std::string> link = command;
        for (std::size_t k = 0; k < n; ++k) {
            const std::string stem =
                mod.dir_ + "/unit" + std::to_string(k);
            writeFile(stem + ".cpp", units[k]);
            argv.push_back(command);
            argv[k].insert(argv[k].end(),
                           {"-c", stem + ".cpp", "-o", stem + ".o"});
            link.push_back(stem + ".o");
            logs.push_back(stem + ".log");
        }
        link.push_back("-o");
        link.push_back(so_path);
        link.insert(link.end(), libs.begin(), libs.end());
        argv.push_back(std::move(link));
        logs.push_back(mod.dir_ + "/link.log");
    }

    // Each compiler runs from a thread of its own, which holds a slot
    // of the process-wide budget and lowers its priority first.
    obs::TraceRegistry *reg = obs::currentTrace();
    const int parent = reg != nullptr ? reg->innermost() : -1;
    std::vector<std::string> failures(argv.size());
    auto start = [&](std::size_t k) {
        return std::thread([&, k] {
            lowerPriority();
            CompilerSlot slot;
            obs::ScopedTrace span(reg, k < n ? "jit_unit" : "jit_link",
                                  parent);
            failures[k] = runLogged(argv[k], logs[k]);
        });
    };
    std::vector<std::thread> compiles;
    for (std::size_t k = 0; k < n; ++k)
        compiles.push_back(start(k));
    // Every compiler is reaped before any failure is reported.
    for (std::thread &t : compiles)
        t.join();
    std::string failed;
    for (const std::string &f : failures)
        failed += f;
    if (failed.empty() && argv.size() > n) {
        start(n).join();
        failed = failures[n];
    }
    if (!failed.empty()) {
        mod.keep_ = true; // preserve evidence
        internalError("JIT compilation failed (sources kept in ",
                      mod.dir_, "):\n", failed);
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
