/**
 * @file
 * Shared helpers for the benchmark harnesses: paper benchmark
 * configurations (sizes, inputs, comparators), timing, and scaling by
 * the POLYMAGE_BENCH_SCALE environment variable.
 */
#ifndef POLYMAGE_BENCH_BENCH_UTIL_HPP
#define POLYMAGE_BENCH_BENCH_UTIL_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "comparators/comparators.hpp"
#include "runtime/executor.hpp"
#include "runtime/synth.hpp"
#include "support/trace.hpp"

namespace polymage::bench {

/**
 * Path of `<flag> <path>` (or `<flag>=<path>`) in argv; empty when the
 * flag is absent.
 */
inline std::string
argPath(int argc, char **argv, const char *flag)
{
    const std::size_t n = std::strlen(flag);
    for (int i = 1; i < argc; ++i) {
        std::string path;
        if (std::strcmp(argv[i], flag) == 0) {
            if (i + 1 < argc)
                path = argv[i + 1];
        } else if (std::strncmp(argv[i], flag, n) == 0 &&
                   argv[i][n] == '=') {
            path = argv[i] + n + 1;
        } else {
            continue;
        }
        if (path.empty()) {
            std::fprintf(stderr, "error: %s requires a path\n", flag);
            std::exit(2);
        }
        return path;
    }
    return "";
}

/** Path of `--profile-json <path>`; empty when the flag is absent. */
inline std::string
profileJsonPath(int argc, char **argv)
{
    return argPath(argc, argv, "--profile-json");
}

/**
 * Machine-readable observability output of a bench run: per app (or
 * per app/variant), the compile-phase trace spans and the per-group
 * runtime profile, in the polymage-profile-v1 schema documented in
 * docs/OBSERVABILITY.md.  Disabled (all calls no-ops) when the path
 * is empty.
 */
class ProfileJsonReport
{
  public:
    explicit ProfileJsonReport(std::string path) : path_(std::move(path))
    {}

    bool enabled() const { return !path_.empty(); }

    /** Record one compiled+profiled pipeline.  @p extra_key /
     * @p extra_raw, when non-empty, attach one pre-rendered JSON value
     * to the entry (bench_table2 uses it for the vectorize-mode
     * ablation timings). */
    void
    add(const std::string &name, const std::string &size_label,
        const rt::Executable &exe, const rt::TaskProfile &prof,
        const std::string &extra_key = "",
        const std::string &extra_raw = "")
    {
        if (!enabled())
            return;
        obs::JsonWriter w;
        w.beginObject();
        w.key("name").value(name);
        w.key("size").value(size_label);
        w.key("compile").raw(obs::spansToJson(exe.trace()));
        w.key("runtime").raw(prof.toJson());
        w.key("memory").raw(exe.memoryStats().toJson());
        // Codegen-strategy record: whether the binary was built with
        // partitioning, and the loop-nest census (so ablation sweeps
        // can tell the variants apart from the JSON alone).
        const cg::GeneratedCode &code = exe.info().code;
        w.key("codegen").beginObject();
        w.key("partition").value(code.partition);
        w.key("interior_nests").value(code.interiorNests);
        w.key("guarded_nests").value(code.guardedNests);
        w.key("partitioned_cases").value(code.partitionedCases);
        w.key("interior_fraction").value(code.interiorFraction());
        // Tile configuration the binary was actually built with, and
        // the tile cost model's decision behind it (tile_sizes differ
        // from tile_model.tile_sizes when the model was not applied).
        const CompiledPipeline &info = exe.info();
        w.key("tile_sizes").beginArray();
        for (std::int64_t t : info.effectiveGrouping.tileSizes)
            w.value(t);
        w.endArray();
        w.key("overlap_threshold")
            .value(info.effectiveGrouping.overlapThreshold);
        w.key("tile_model").raw(info.tileModel.toJson());
        w.endObject();
        // Explicit-vectorisation record (docs/VECTORIZATION.md): the
        // mode/ISA the binary was built with, range-narrowed stages,
        // and per group the lane shape of its explicit nests.
        w.key("vector").beginObject();
        w.key("mode").value(code.vectorizeMode);
        w.key("isa").value(code.vectorIsa);
        w.key("bits").value(code.vectorBits);
        w.key("explicit_nests").value(code.explicitNests);
        w.key("explicit_fraction").value(code.explicitFraction());
        w.key("narrowed_stages").beginArray();
        for (const auto &s : code.narrowedStages)
            w.value(s);
        w.endArray();
        w.key("groups").beginArray();
        for (const auto &gv : code.groupVector) {
            w.beginObject();
            w.key("group").value(gv.group);
            w.key("elem").value(gv.elem);
            w.key("lanes").value(gv.lanes);
            w.key("vector_nests").value(gv.vectorNests);
            w.key("interior_nests").value(gv.interiorNests);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        if (!extra_key.empty() && !extra_raw.empty())
            w.key(extra_key).raw(extra_raw);
        w.endObject();
        apps_.push_back(w.str());
    }

    /** Write the document; returns false (with a warning) on failure. */
    bool
    write() const
    {
        if (!enabled())
            return true;
        obs::JsonWriter w;
        w.beginObject();
        w.key("schema").value("polymage-profile-v1");
        w.key("apps").beginArray();
        for (const auto &a : apps_)
            w.raw(a);
        w.endArray();
        w.endObject();
        std::ofstream os(path_);
        if (!os) {
            std::fprintf(stderr, "cannot write profile JSON to %s\n",
                         path_.c_str());
            return false;
        }
        os << w.str() << "\n";
        std::printf("profile JSON written to %s (%zu entries)\n",
                    path_.c_str(), apps_.size());
        return true;
    }

  private:
    std::string path_;
    std::vector<std::string> apps_;
};

/** Human-readable byte count ("800.0 KB", "12.3 MB"). */
inline std::string
formatBytes(std::int64_t bytes)
{
    char buf[32];
    const double b = double(bytes);
    if (bytes >= (1 << 20))
        std::snprintf(buf, sizeof buf, "%.1f MB", b / (1 << 20));
    else if (bytes >= (1 << 10))
        std::snprintf(buf, sizeof buf, "%.1f KB", b / (1 << 10));
    else
        std::snprintf(buf, sizeof buf, "%lld B", (long long)bytes);
    return buf;
}

/**
 * One-line allocation summary of an executable, printed next to the
 * timings: slot sharing, estimated bytes saved, and the pool's actual
 * peak.  Empty when the pipeline has no full-buffer intermediates.
 */
inline std::string
memorySummary(const rt::Executable &exe)
{
    const rt::MemoryStats m = exe.memoryStats();
    char buf[160];
    if (m.intermediates == 0) {
        // Fully-fused pipelines keep every intermediate in per-tile
        // scratchpads; report those honestly instead of "no memory".
        if (m.scratchStages == 0)
            return "";
        std::snprintf(buf, sizeof buf,
                      "mem: %d scratch stages, %s/tile",
                      m.scratchStages,
                      formatBytes(m.scratchBytesPerTile).c_str());
        return buf;
    }
    std::snprintf(buf, sizeof buf,
                  "mem: %d bufs in %d slots, saved %s, peak %s",
                  m.intermediates, m.slots,
                  formatBytes(m.estBytesSaved()).c_str(),
                  formatBytes(m.poolPeakBytesInUse).c_str());
    return buf;
}

/**
 * Total serving-thread budget: POLYMAGE_SERVE_THREADS when set (so
 * snapshots from shared or differently sized machines are comparable
 * — the benches otherwise assume exclusive machine use), else the
 * hardware concurrency.  Each serving configuration splits the budget
 * between engine workers and tile-scheduler workers; both are recorded
 * in the emitted JSON.
 */
inline int
serveThreadBudget()
{
    if (const char *env = std::getenv("POLYMAGE_SERVE_THREADS")) {
        const int v = std::atoi(env);
        if (v > 0)
            return v;
    }
    const int hw = int(std::thread::hardware_concurrency());
    return hw > 0 ? hw : 1;
}

/** Linear image-size scale from POLYMAGE_BENCH_SCALE (default 1.0). */
inline double
benchScale(double fallback = 1.0)
{
    const char *env = std::getenv("POLYMAGE_BENCH_SCALE");
    if (env == nullptr)
        return fallback;
    const double v = std::atof(env);
    return v > 0 ? v : fallback;
}

/** Round to the nearest multiple of @p mult (at least mult). */
inline std::int64_t
scaled(std::int64_t size, double scale, std::int64_t mult = 64)
{
    const auto v = std::int64_t(double(size) * scale);
    return std::max<std::int64_t>(mult, (v / mult) * mult);
}

/** Best-of-N wall time of a callback, after one warm-up call. */
inline double
timeBestOf(const std::function<void()> &fn, int repeats = 3)
{
    fn();
    double best = 1e300;
    for (int r = 0; r < repeats; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        best = std::min(best,
                        std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    }
    return best;
}

/** 64-bit FNV-1a over dtype, shape and element bytes of each output. */
inline std::uint64_t
hashOutputs(const std::vector<rt::Buffer> &outs)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto bytes = [&](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    };
    for (const rt::Buffer &buf : outs) {
        const int t = int(buf.dtype());
        bytes(&t, sizeof t);
        for (std::int64_t d : buf.dims())
            bytes(&d, sizeof d);
        bytes(buf.data(), std::size_t(buf.bytes()));
    }
    return h;
}

/** Quantile @p q of sorted @p v, interpolating between neighbours. */
inline double
quantile(const std::vector<double> &v, double q)
{
    const double at = q * double(v.size() - 1);
    const auto lo = std::size_t(at);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (at - double(lo));
}

/** One paper benchmark: spec, inputs, and comparator callbacks. */
struct AppBench
{
    std::string name;
    std::string sizeLabel;
    dsl::PipelineSpec spec{"unset"};
    std::vector<std::int64_t> params;
    std::vector<rt::Buffer> inputStorage;
    /**
     * Tuned compile options for the PolyMage opt variants (the paper's
     * numbers are autotuned; these tile sizes come from sweep runs of
     * bench_fig9_autotune).
     */
    CompileOptions tuned;

    /** H-tuned comparator (nullptr when not applicable). */
    std::function<cmp::CmpResult(bool vectorize)> htuned;
    /** OpenCV-style comparator (nullptr when not applicable). */
    std::function<cmp::CmpResult()> libstyle;

    std::vector<const rt::Buffer *>
    inputs() const
    {
        std::vector<const rt::Buffer *> v;
        for (const auto &b : inputStorage)
            v.push_back(&b);
        return v;
    }
};

/** Build all seven paper benchmarks at the given scale. */
inline std::vector<AppBench>
paperBenchmarks(double scale)
{
    std::vector<AppBench> out;

    auto label = [](std::int64_t r, std::int64_t c, int ch) {
        std::string s = std::to_string(r) + "x" + std::to_string(c);
        if (ch > 1)
            s += "x" + std::to_string(ch);
        return s;
    };

    { // Unsharp Mask, paper 2048x2048x3.
        AppBench b;
        const std::int64_t R = scaled(2048, scale),
                           C = scaled(2048, scale);
        b.name = "Unsharp Mask";
        b.sizeLabel = label(R, C, 3);
        b.spec = apps::buildUnsharpMask(R, C);
        b.tuned.grouping.tileSizes = {32, 512};
        b.params = {R, C};
        b.inputStorage.push_back(rt::synth::photoRgb(R + 4, C + 4));
        const rt::Buffer *in = &b.inputStorage[0];
        b.htuned = [in](bool vec) { return cmp::htunedUnsharp(*in, vec); };
        b.libstyle = [in] { return cmp::libstyleUnsharp(*in); };
        out.push_back(std::move(b));
    }
    { // Bilateral Grid, paper 2560x1536.
        AppBench b;
        const std::int64_t R = scaled(2560, scale),
                           C = scaled(1536, scale);
        b.name = "Bilateral Grid";
        b.sizeLabel = label(R, C, 1);
        b.spec = apps::buildBilateralGrid(R, C);
        // The sweep finds slice fusion unprofitable on this machine
        // (the paper's own weakest case); 32x256 fuses the blur
        // stages only.
        b.tuned.grouping.tileSizes = {32, 256};
        b.params = {R, C};
        b.inputStorage.push_back(rt::synth::photo(R, C));
        const rt::Buffer *in = &b.inputStorage[0];
        b.htuned = [in](bool vec) {
            return cmp::htunedBilateral(*in, vec);
        };
        out.push_back(std::move(b));
    }
    { // Harris Corner, paper 6400x6400.
        AppBench b;
        const std::int64_t R = scaled(6400, scale),
                           C = scaled(6400, scale);
        b.name = "Harris Corner";
        b.sizeLabel = label(R, C, 1);
        b.spec = apps::buildHarris(R, C);
        b.tuned.grouping.tileSizes = {32, 256};
        b.params = {R, C};
        b.inputStorage.push_back(rt::synth::photo(R + 2, C + 2));
        const rt::Buffer *in = &b.inputStorage[0];
        b.htuned = [in](bool vec) { return cmp::htunedHarris(*in, vec); };
        b.libstyle = [in] { return cmp::libstyleHarris(*in); };
        out.push_back(std::move(b));
    }
    { // Camera Pipeline, paper 2528x1920.
        AppBench b;
        const std::int64_t R = scaled(2528, scale),
                           C = scaled(1920, scale);
        b.name = "Camera Pipeline";
        b.sizeLabel = label(R, C, 1);
        b.spec = apps::buildCameraPipeline(R, C);
        b.tuned.grouping.tileSizes = {64, 256};
        b.params = {R, C};
        b.inputStorage.push_back(rt::synth::bayerRaw(R + 4, C + 4));
        const rt::Buffer *in = &b.inputStorage[0];
        b.htuned = [in](bool vec) { return cmp::htunedCamera(*in, vec); };
        out.push_back(std::move(b));
    }
    { // Pyramid Blending, paper 2048x2048x3 (here single-channel).
        AppBench b;
        const std::int64_t R = scaled(2048, scale),
                           C = scaled(2048, scale);
        const int levels = 4;
        b.name = "Pyramid Blending";
        b.sizeLabel = label(R, C, 1);
        b.spec = apps::buildPyramidBlend(R, C, levels);
        // Sweep best: the defaults (32x256, 0.4).
        b.params = apps::pyramidParams(R, C, levels);
        b.inputStorage.push_back(rt::synth::photo(R, C, 1));
        b.inputStorage.push_back(rt::synth::photo(R, C, 2));
        b.inputStorage.push_back(rt::synth::blendMask(R, C));
        const rt::Buffer *a = &b.inputStorage[0];
        const rt::Buffer *bb = &b.inputStorage[1];
        const rt::Buffer *m = &b.inputStorage[2];
        b.htuned = [a, bb, m, levels](bool vec) {
            return cmp::htunedPyramidBlend(*a, *bb, *m, levels, vec);
        };
        b.libstyle = [a, bb, m, levels] {
            return cmp::libstylePyramidBlend(*a, *bb, *m, levels);
        };
        out.push_back(std::move(b));
    }
    { // Multiscale Interpolation, paper 2560x1536x3.
        AppBench b;
        const std::int64_t R = scaled(2560, scale),
                           C = scaled(1536, scale);
        int levels = 8;
        while (levels > 2 && (std::min(R, C) >> (levels - 1)) < 4)
            --levels;
        b.name = "Multiscale Interp";
        b.sizeLabel = label(R, C, 2);
        b.spec = apps::buildMultiscaleInterp(R, C, levels);
        b.tuned.grouping.tileSizes = {64, 256};
        b.tuned.grouping.overlapThreshold = 0.5;
        b.params = apps::pyramidParams(R, C, levels);
        b.inputStorage.push_back(rt::synth::sparseAlpha(R, C, 1.0 / 16));
        const rt::Buffer *in = &b.inputStorage[0];
        b.htuned = [in, levels](bool vec) {
            return cmp::htunedInterp(*in, levels, vec);
        };
        out.push_back(std::move(b));
    }
    { // Local Laplacian, paper 2560x1536x3.
        AppBench b;
        const std::int64_t R = scaled(2560, scale),
                           C = scaled(1536, scale);
        const int levels = 4, k = 8;
        b.name = "Local Laplacian";
        b.sizeLabel = label(R, C, 1);
        b.spec = apps::buildLocalLaplacian(R, C, levels, k);
        b.tuned.grouping.tileSizes = {64, 256};
        b.tuned.grouping.overlapThreshold = 0.5;
        b.params = apps::pyramidParams(R, C, levels);
        b.inputStorage.push_back(rt::synth::photo(R, C));
        const rt::Buffer *in = &b.inputStorage[0];
        b.htuned = [in, levels, k](bool vec) {
            return cmp::htunedLocalLaplacian(*in, levels, k, vec);
        };
        out.push_back(std::move(b));
    }
    return out;
}

} // namespace polymage::bench

#endif // POLYMAGE_BENCH_BENCH_UTIL_HPP
