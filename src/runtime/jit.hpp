/**
 * @file
 * JIT harness: compiles generated C++ with the system compiler into a
 * shared object and loads it, mirroring how PolyMage's generated code
 * was built with icc in the paper (here: g++ -O3 -march=native
 * -fopenmp-simd; generated code needs no OpenMP runtime).  A program
 * split into several translation units compiles them in concurrent
 * compiler processes and links one object.  The
 * compilers start without a shell, at a lower priority than the caller,
 * and a process-wide budget (JitModule::parallelism) bounds how many run
 * at once across every build in the process.
 */
#ifndef POLYMAGE_RUNTIME_JIT_HPP
#define POLYMAGE_RUNTIME_JIT_HPP

#include <memory>
#include <string>
#include <vector>

namespace polymage::rt {

/** Flags for the downstream C++ compiler. */
struct JitOptions
{
    /** The compiler command, split at whitespace, no quoting. */
    std::string compiler = "g++";
    /** When false, auto-vectorisation is disabled (-fno-tree-vectorize). */
    bool vectorize = true;
    /**
     * Use the persistent object cache: shared objects are keyed by a
     * hash of (every unit, flags, compiler version) and stored under
     * $XDG_CACHE_HOME/polymage/jit, so rebuilding an unchanged pipeline
     * skips the compiler entirely.  Disable per-module here or
     * process-wide with POLYMAGE_JIT_CACHE=0.  A cache directory that is
     * not owned by the effective user, or that group or others can write,
     * is not used (the module still builds).
     */
    bool cache = true;
};

/** A compiled and loaded shared object. */
class JitModule
{
  public:
    /**
     * Compile @p source and load the resulting shared object.
     * @throws InternalError with the compiler diagnostics on failure.
     */
    static JitModule compile(const std::string &source,
                             const JitOptions &opts = {});
    /**
     * Compile each of @p units in its own compiler process, all at
     * once as far as the budget allows, link the objects into one
     * shared object and load it.  The units must together define each
     * symbol once (see cg::GeneratedCode::translationUnits).  A single
     * unit builds the shared object in one compiler run, with no link.
     * Each compiler process reports a `jit_unit` span and the link a
     * `jit_link` span into obs::currentTrace(), under the caller's
     * innermost open span.
     * @throws InternalError with every failing unit's diagnostics.
     */
    static JitModule compile(const std::vector<std::string> &units,
                             const JitOptions &opts = {});

    /**
     * Compiler processes that run at once, process-wide: one per
     * hardware thread but one, which stays with the caller's threads
     * (the tiered engine answers from the interpreter while variants
     * compile).  Concurrent builds queue for these slots.
     */
    static int parallelism();

    JitModule(JitModule &&) noexcept;
    JitModule &operator=(JitModule &&) noexcept;
    JitModule(const JitModule &) = delete;
    JitModule &operator=(const JitModule &) = delete;
    ~JitModule();

    /** Resolve a symbol; throws InternalError when missing. */
    void *symbol(const std::string &name) const;

    /** Path of the generated source: the units in order, each after a
     * `// ---- translation unit k of n` line when there are several. */
    const std::string &sourcePath() const { return sourcePath_; }

    /** True when the shared object was loaded from the persistent
     * cache without invoking the compiler. */
    bool fromCache() const { return fromCache_; }

  private:
    JitModule() = default;

    void *handle_ = nullptr;
    std::string dir_;
    std::string sourcePath_;
    bool keep_ = false;
    bool fromCache_ = false;
};

} // namespace polymage::rt

#endif // POLYMAGE_RUNTIME_JIT_HPP
