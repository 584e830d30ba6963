#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "runtime/jit.hpp"
#include "support/diagnostics.hpp"
#include "support/trace.hpp"

namespace polymage::rt {
namespace {

/** Scoped env var; restores the previous value on destruction. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const std::string &value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv()
    {
        if (old_.has_value())
            setenv(name_, old_->c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> old_;
};

/** A fresh private cache dir routed through POLYMAGE_JIT_CACHE_DIR. */
class ScopedCacheDir
{
  public:
    ScopedCacheDir()
    {
        char tmpl[] = "/tmp/polymage_jit_cache_test_XXXXXX";
        dir_ = mkdtemp(tmpl);
        env_ = std::make_unique<ScopedEnv>("POLYMAGE_JIT_CACHE_DIR",
                                           dir_);
    }
    ~ScopedCacheDir()
    {
        env_.reset();
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    const std::string &path() const { return dir_; }

    std::size_t
    sharedObjects() const
    {
        std::size_t n = 0;
        for (const auto &e :
             std::filesystem::directory_iterator(dir_)) {
            if (e.path().extension() == ".so")
                ++n;
        }
        return n;
    }

  private:
    std::string dir_;
    std::unique_ptr<ScopedEnv> env_;
};

TEST(Jit, CompileAndCall)
{
    JitModule mod = JitModule::compile(
        "extern \"C\" int pm_test_add(int a, int b) { return a + b; }\n");
    auto fn = reinterpret_cast<int (*)(int, int)>(
        mod.symbol("pm_test_add"));
    EXPECT_EQ(fn(2, 40), 42);
}

TEST(Jit, MissingSymbolThrows)
{
    JitModule mod = JitModule::compile(
        "extern \"C\" void pm_present() {}\n");
    EXPECT_NO_THROW(mod.symbol("pm_present"));
    EXPECT_THROW(mod.symbol("pm_absent"), InternalError);
}

TEST(Jit, CompileErrorIncludesDiagnostics)
{
    try {
        JitModule::compile("this is not C++\n");
        FAIL() << "expected InternalError";
    } catch (const InternalError &e) {
        // The exception carries the compiler invocation and log.
        EXPECT_NE(std::string(e.what()).find("JIT compilation failed"),
                  std::string::npos);
    }
}

TEST(Jit, MoveTransfersOwnership)
{
    JitModule a = JitModule::compile(
        "extern \"C\" int pm_seven() { return 7; }\n");
    JitModule b = std::move(a);
    auto fn = reinterpret_cast<int (*)()>(b.symbol("pm_seven"));
    EXPECT_EQ(fn(), 7);
}

TEST(Jit, ObjectCacheHitSkipsCompiler)
{
    ScopedCacheDir cache;
    const std::string src =
        "extern \"C\" int pm_cached() { return 11; }\n";

    JitModule first = JitModule::compile(src);
    EXPECT_FALSE(first.fromCache());
    EXPECT_EQ(cache.sharedObjects(), 1u);

    JitModule second = JitModule::compile(src);
    EXPECT_TRUE(second.fromCache());
    EXPECT_EQ(cache.sharedObjects(), 1u);
    auto fn = reinterpret_cast<int (*)()>(second.symbol("pm_cached"));
    EXPECT_EQ(fn(), 11);
    // The cached module carries the generated source for inspection.
    EXPECT_FALSE(second.sourcePath().empty());
}

TEST(Jit, ObjectCacheKeyCoversFlags)
{
    ScopedCacheDir cache;
    const std::string src =
        "extern \"C\" int pm_flagged() { return 5; }\n";
    JitModule a = JitModule::compile(src);
    // A different flag set must miss and add a second entry.
    JitOptions opts;
    opts.vectorize = false;
    JitModule b = JitModule::compile(src, opts);
    EXPECT_FALSE(b.fromCache());
    EXPECT_EQ(cache.sharedObjects(), 2u);
}

TEST(Jit, ObjectCacheOptOut)
{
    ScopedCacheDir cache;
    const std::string src =
        "extern \"C\" int pm_uncached() { return 3; }\n";
    JitOptions opts;
    opts.cache = false;
    JitModule a = JitModule::compile(src, opts);
    EXPECT_FALSE(a.fromCache());
    EXPECT_EQ(cache.sharedObjects(), 0u);

    // Process-wide kill switch.
    ScopedEnv off("POLYMAGE_JIT_CACHE", "0");
    JitModule b = JitModule::compile(src);
    EXPECT_FALSE(b.fromCache());
    EXPECT_EQ(cache.sharedObjects(), 0u);
}

TEST(Jit, ConcurrentWritersPublishOneCleanEntry)
{
    ScopedCacheDir cache;
    const std::string src =
        "extern \"C\" int pm_race() { return 9; }\n";

    // Both threads miss (the file does not exist yet), both compile,
    // and both publish to the same cache path.  The atomic-rename
    // publish must leave exactly one complete entry and no temp
    // droppings, whichever writer wins.
    std::optional<JitModule> a, b;
    std::thread ta([&] { a = JitModule::compile(src); });
    std::thread tb([&] { b = JitModule::compile(src); });
    ta.join();
    tb.join();

    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(reinterpret_cast<int (*)()>(a->symbol("pm_race"))(), 9);
    EXPECT_EQ(reinterpret_cast<int (*)()>(b->symbol("pm_race"))(), 9);

    EXPECT_EQ(cache.sharedObjects(), 1u);
    for (const auto &e :
         std::filesystem::directory_iterator(cache.path()))
        EXPECT_EQ(e.path().filename().string().find(".tmp."),
                  std::string::npos)
            << "leftover temp file " << e.path();

    // The published entry is loadable by a third compilation.
    JitModule c = JitModule::compile(src);
    EXPECT_TRUE(c.fromCache());
    EXPECT_EQ(reinterpret_cast<int (*)()>(c.symbol("pm_race"))(), 9);
}

TEST(Jit, UnitsCompileSeparatelyIntoOneModule)
{
    ScopedCacheDir cache;
    // A hidden helper in one unit; the exported entry in another.
    const std::vector<std::string> units = {
        "__attribute__((visibility(\"hidden\"))) int pm_twice(int v) "
        "{ return 2 * v; }\n",
        "__attribute__((visibility(\"hidden\"))) int pm_twice(int v);\n"
        "extern \"C\" int pm_split(int v) { return pm_twice(v) + 1; }\n"};
    obs::TraceRegistry reg;
    std::optional<JitModule> mod;
    {
        obs::ScopedCurrent install(&reg);
        obs::ScopedTrace outer("outer");
        mod.emplace(JitModule::compile(units));
    }
    // The call across units resolves; the helper stays unexported.
    EXPECT_EQ(reinterpret_cast<int (*)(int)>(mod->symbol("pm_split"))(20),
              41);
    EXPECT_THROW(mod->symbol("_Z8pm_twicei"), InternalError);
    // One span per compiler process and one for the link, all under
    // the caller's span although other threads ran them.
    std::multiset<std::string> names;
    for (const obs::Span &sp : reg.spans()) {
        if (sp.name == "outer")
            continue;
        EXPECT_EQ(sp.parent, 0) << sp.name;
        EXPECT_EQ(sp.depth, 1) << sp.name;
        EXPECT_GE(sp.durationNs, 0) << sp.name;
        names.insert(sp.name);
    }
    EXPECT_EQ(names, (std::multiset<std::string>{"jit_unit", "jit_unit",
                                                 "jit_link"}));

    // The same text as one unit is another object: the split is part
    // of the cache key.  One unit is one compiler run, with no link.
    reg.clear();
    {
        obs::ScopedCurrent install(&reg);
        JitModule joined = JitModule::compile(units[0] + units[1]);
        EXPECT_FALSE(joined.fromCache());
    }
    const std::vector<obs::Span> one = reg.spans();
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].name, "jit_unit");
    EXPECT_EQ(cache.sharedObjects(), 2u);
}

TEST(Jit, FailingUnitIsReportedAfterEveryCompilerExits)
{
    const std::vector<std::string> units = {
        "extern \"C\" int pm_fine() { return 1; }\n",
        "this unit is not C++\n",
        "extern \"C\" int pm_also_fine() { return 2; }\n"};
    JitOptions opts;
    opts.cache = false;
    try {
        JitModule::compile(units, opts);
        FAIL() << "expected InternalError";
    } catch (const InternalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("JIT compilation failed"), std::string::npos);
        // Only the broken unit is blamed, with its diagnostics.
        EXPECT_NE(what.find("unit1.cpp"), std::string::npos);
        EXPECT_NE(what.find("error"), std::string::npos);
        EXPECT_EQ(what.find("unit0.cpp"), std::string::npos);
        EXPECT_EQ(what.find("unit2.cpp"), std::string::npos);
        // The sources stay for inspection.
        const std::string tag = "sources kept in ";
        const std::size_t at = what.find(tag) + tag.size();
        const std::string dir = what.substr(at, what.find(')', at) - at);
        EXPECT_TRUE(std::filesystem::exists(dir + "/unit1.cpp"));
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
    // Every compiler process was reaped.
    errno = 0;
    EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

TEST(Jit, ObjectCacheKeyCoversEveryUnit)
{
    ScopedCacheDir cache;
    std::vector<std::string> units = {
        "extern \"C\" int pm_u0() { return 0; }\n",
        "extern \"C\" int pm_u1() { return 1; }\n",
        "extern \"C\" int pm_u2() { return 2; }\n"};
    EXPECT_FALSE(JitModule::compile(units).fromCache());
    units[1] = "extern \"C\" int pm_u1() { return 10; }\n";
    JitModule changed = JitModule::compile(units);
    EXPECT_FALSE(changed.fromCache());
    EXPECT_EQ(reinterpret_cast<int (*)()>(changed.symbol("pm_u1"))(), 10);

    // A hit still shows the source it was built from, every unit.
    JitModule hit = JitModule::compile(units);
    EXPECT_TRUE(hit.fromCache());
    std::ifstream in(hit.sourcePath());
    std::stringstream text;
    text << in.rdbuf();
    for (const std::string &u : units)
        EXPECT_NE(text.str().find(u), std::string::npos) << u;
    EXPECT_EQ(cache.sharedObjects(), 2u);
}

TEST(Jit, ScratchFilesFollowTmpdir)
{
    // No shell sees the paths, so any character works in them.
    char tmpl[] = "/tmp/polymage tmpdir 'test_XXXXXX";
    const std::string dir = mkdtemp(tmpl);
    {
        ScopedEnv tmp("TMPDIR", dir);
        JitOptions opts;
        opts.cache = false;
        JitModule mod = JitModule::compile(
            std::vector<std::string>{"extern \"C\" int pm_four();\n"
             "extern \"C\" int pm_tmp() { return pm_four(); }\n",
             "extern \"C\" int pm_four() { return 4; }\n"},
            opts);
        EXPECT_EQ(mod.sourcePath().rfind(dir + "/polymage_jit_", 0), 0u)
            << mod.sourcePath();
        EXPECT_EQ(reinterpret_cast<int (*)()>(mod.symbol("pm_tmp"))(), 4);
    }
    // The module removed its scratch directory.
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    std::filesystem::remove_all(dir);
}

/** The cache fallback without HOME or XDG_CACHE_HOME is private. */
TEST(Jit, CacheFallbackIsPerUserAndPrivate)
{
    char tmpl[] = "/tmp/polymage_fallback_test_XXXXXX";
    const std::string tmp = mkdtemp(tmpl);
    {
        ScopedEnv dir("TMPDIR", tmp);
        ScopedEnv no_override("POLYMAGE_JIT_CACHE_DIR", "");
        ScopedEnv no_xdg("XDG_CACHE_HOME", "");
        ScopedEnv no_home("HOME", "");
        const std::string src =
            "extern \"C\" int pm_fallback() { return 6; }\n";
        EXPECT_FALSE(JitModule::compile(src).fromCache());
        const std::string cache =
            tmp + "/polymage-jit-cache-" + std::to_string(geteuid());
        struct stat st;
        ASSERT_EQ(stat(cache.c_str(), &st), 0) << cache;
        EXPECT_EQ(st.st_mode & 0777, 0700u);
        EXPECT_TRUE(JitModule::compile(src).fromCache());
    }
    std::filesystem::remove_all(tmp);
}

/**
 * A cache directory others can write, or owned by someone else, is
 * not used: modules still build, but nothing is stored or loaded.
 */
TEST(Jit, CacheDirOthersControlIsNotUsed)
{
    ScopedCacheDir cache;
    const std::string src = "extern \"C\" int pm_unsafe() { return 8; }\n";
    auto check = [&](const char *what) {
        SCOPED_TRACE(what);
        for (int i = 0; i < 2; ++i) {
            JitModule mod = JitModule::compile(src);
            EXPECT_FALSE(mod.fromCache());
            EXPECT_EQ(reinterpret_cast<int (*)()>(mod.symbol("pm_unsafe"))(),
                      8);
        }
        EXPECT_EQ(cache.sharedObjects(), 0u);
    };
    ASSERT_EQ(chmod(cache.path().c_str(), 0777), 0);
    check("world-writable");
    ASSERT_EQ(chmod(cache.path().c_str(), 0770), 0);
    check("group-writable");
    ASSERT_EQ(chmod(cache.path().c_str(), 0700), 0);
    if (geteuid() == 0) {
        // Only root can hand a directory to another user.
        ASSERT_EQ(chown(cache.path().c_str(), 65534, 65534), 0);
        check("owned by another user");
    }
}

/**
 * Generated code uses OpenMP's `simd` pragma and nothing else of it:
 * the JIT compiles with -fopenmp-simd, which honours the pragma without
 * defining _OPENMP or linking the OpenMP runtime.
 */
TEST(Jit, CompilesOmpSimdWithoutTheOpenMPRuntime)
{
    JitModule mod = JitModule::compile(
        "extern \"C\" int pm_openmp()\n"
        "{\n"
        "#ifdef _OPENMP\n"
        "    return 1;\n"
        "#else\n"
        "    return 0;\n"
        "#endif\n"
        "}\n"
        "extern \"C\" int pm_sum(const int *a, int n)\n"
        "{\n"
        "    int s = 0;\n"
        "#pragma omp simd reduction(+ : s)\n"
        "    for (int i = 0; i < n; ++i)\n"
        "        s += a[i];\n"
        "    return s;\n"
        "}\n");
    EXPECT_EQ(reinterpret_cast<int (*)()>(mod.symbol("pm_openmp"))(), 0);
    std::vector<int> a(1000);
    for (int i = 0; i < 1000; ++i)
        a[std::size_t(i)] = i;
    EXPECT_EQ(reinterpret_cast<int (*)(const int *, int)>(
                  mod.symbol("pm_sum"))(a.data(), 1000),
              499500);
}

} // namespace
} // namespace polymage::rt
