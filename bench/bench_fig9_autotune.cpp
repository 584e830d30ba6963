/**
 * @file
 * Experiment F9: the paper's Figure 9 autotuning study, extended with
 * the tile cost model.  For every paper app the bench measures four
 * configurations of the same pipeline:
 *
 *   default     the historical fixed 32x256 @ 0.4
 *   model       the tile cost model's pick (one JIT build, no search)
 *   exhaustive  best of the full grid sweep (tune::autotune)
 *   guided      best of the model-seeded hill climb
 *               (tune::autotuneGuided)
 *
 * and reports runtimes modelled on *this machine's* core count (on a
 * single-core host that is exactly the measured time), the
 * model-vs-exhaustive and guided-vs-exhaustive ratios, and the JIT
 * build counts of both sweeps.  `--tune-json <path>` writes the whole
 * comparison (with the
 * per-configuration scatter of both sweeps) in the
 * polymage-tune-bench-v1 schema; scripts/bench_snapshot.sh commits it
 * as BENCH_autotune.json.
 *
 * The default grid is a 5x5x3 subset of the paper's 7x7x3 space to
 * keep the sweep short on one core; set POLYMAGE_TUNE_FULL=1 for the
 * full space and POLYMAGE_BENCH_SCALE to change image sizes
 * (default 0.5).
 */
#include <cstdio>
#include <fstream>

#include "bench_util.hpp"
#include "core/tile_model.hpp"
#include "machine/machine.hpp"
#include "pipeline/inline.hpp"
#include "tune/autotuner.hpp"

using namespace polymage;
using namespace polymage::bench;

namespace {

std::string
tilesStr(const std::vector<std::int64_t> &tiles)
{
    std::string s;
    for (std::size_t i = 0; i < tiles.size(); ++i)
        s += (i ? "x" : "") + std::to_string(tiles[i]);
    return s;
}

/** One measured configuration as a JSON object. */
std::string
entryJson(const tune::TuneEntry &e)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("tiles").beginArray();
    for (std::int64_t t : e.config.tiles)
        w.value(t);
    w.endArray();
    w.key("overlap_threshold").value(e.config.threshold);
    w.key("t1_seconds").value(e.seconds1);
    w.key("tp_seconds").value(e.secondsP);
    w.key("groups").value(e.groups);
    w.endObject();
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const double scale = benchScale(0.5);
    const bool full = std::getenv("POLYMAGE_TUNE_FULL") != nullptr;
    const std::string tune_json = argPath(argc, argv, "--tune-json");

    tune::TuneSpace space;
    if (!full) {
        space.tileSizes = {16, 32, 64, 128, 256};
        space.thresholds = {0.2, 0.4, 0.5};
    }

    std::printf("==== Figure 9: autotuning, model vs sweeps (scale "
                "%.2f, %lld configs/app) ====\n",
                scale, (long long)space.size());
    std::printf("machine: %s\n\n",
                machine::machineInfo().toString().c_str());
    std::printf("%-20s | %9s %9s %9s %9s | %7s %7s | %6s %6s\n", "app",
                "def(ms)", "model(ms)", "exh(ms)", "guided(ms)",
                "mod/exh", "gui/exh", "bN", "bNgui");

    std::vector<std::string> app_docs;
    auto benches = paperBenchmarks(scale);
    for (auto &b : benches) {
        tune::TuneOptions topts; // fixed-size base: the model must not
                                 // override the sweeps' explicit configs
        // Compare on runtimes this machine can actually exhibit: the
        // paper's modelled-16-core figure rewards task granularity a
        // single-core host never pays for.
        topts.modelWorkers = machine::machineInfo().cores;
        auto inputs = b.inputs();

        // (a) The historical fixed default.  The first build+run of an
        // app pays one-time costs (page faults, allocator growth) that
        // would inflate whichever configuration happens to go first --
        // comparing identical configs early vs mid-sweep showed up to
        // 25% drift -- so measure once, discard, and measure again.
        tune::TuneConfig def_cfg;
        def_cfg.tiles = {32, 256};
        def_cfg.threshold = 0.4;
        (void)tune::measureConfig(b.spec, b.params, inputs, def_cfg,
                                  topts);
        const auto def_e = tune::measureConfig(b.spec, b.params, inputs,
                                               def_cfg, topts);

        // (b) The tile cost model's pick (modelled on the post-inline
        // graph, exactly as the driver would).
        auto inlined = pg::inlinePointwise(b.spec);
        const auto graph = pg::PipelineGraph::build(inlined.spec);
        const core::TileModelResult model =
            core::chooseTileConfig(graph, topts.base.grouping);
        tune::TuneConfig model_cfg;
        model_cfg.tiles = model.tileSizes;
        model_cfg.threshold = model.overlapThreshold;
        const auto model_e = tune::measureConfig(
            b.spec, b.params, inputs, model_cfg, topts);

        // (c) Exhaustive grid sweep; (d) guided hill climb.
        const auto exh =
            tune::autotune(b.spec, b.params, inputs, space, topts);
        const auto gui = tune::autotuneGuided(b.spec, b.params, inputs,
                                              space, topts);

        const double exh_best = exh.bestEntry().secondsP;
        const double mod_ratio =
            exh_best > 0 ? model_e.secondsP / exh_best : 1.0;
        const double gui_ratio =
            exh_best > 0 ? gui.bestEntry().secondsP / exh_best : 1.0;
        std::printf("%-20s | %9.2f %9.2f %9.2f %9.2f | %7.2f %7.2f | "
                    "%6d %6d\n",
                    b.name.c_str(), def_e.secondsP * 1e3,
                    model_e.secondsP * 1e3, exh_best * 1e3,
                    gui.bestEntry().secondsP * 1e3, mod_ratio,
                    gui_ratio, exh.builds, gui.builds);
        std::printf("    default %s@%.1f | model %s@%.1f (%s, ws %s) | "
                    "exh best %s | guided best %s\n",
                    tilesStr(def_cfg.tiles).c_str(), def_cfg.threshold,
                    tilesStr(model_cfg.tiles).c_str(),
                    model_cfg.threshold, model.reason.c_str(),
                    formatBytes(model.workingSetBytes).c_str(),
                    exh.bestEntry().config.toString().c_str(),
                    gui.bestEntry().config.toString().c_str());
        std::fflush(stdout);

        obs::JsonWriter w;
        w.beginObject();
        w.key("name").value(b.name);
        w.key("size").value(b.sizeLabel);
        w.key("default").raw(entryJson(def_e));
        w.key("model").beginObject();
        w.key("choice").raw(model.toJson());
        w.key("measured").raw(entryJson(model_e));
        w.endObject();
        w.key("exhaustive").beginObject();
        w.key("builds").value(exh.builds);
        w.key("best").raw(entryJson(exh.bestEntry()));
        w.key("entries").beginArray();
        for (const auto &e : exh.entries)
            w.raw(entryJson(e));
        w.endArray();
        w.endObject();
        w.key("guided").beginObject();
        w.key("builds").value(gui.builds);
        w.key("best").raw(entryJson(gui.bestEntry()));
        w.key("entries").beginArray();
        for (const auto &e : gui.entries)
            w.raw(entryJson(e));
        w.endArray();
        w.endObject();
        w.key("model_vs_exhaustive").value(mod_ratio);
        w.key("guided_vs_exhaustive").value(gui_ratio);
        w.key("build_ratio")
            .value(exh.builds > 0
                       ? double(gui.builds) / double(exh.builds)
                       : 0.0);
        w.endObject();
        app_docs.push_back(w.str());
    }

    if (!tune_json.empty()) {
        obs::JsonWriter w;
        w.beginObject();
        w.key("schema").value("polymage-tune-bench-v1");
        w.key("scale").value(scale);
        w.key("model_workers").value(machine::machineInfo().cores);
        w.key("machine").raw(machine::machineInfo().toJson());
        w.key("space").beginObject();
        w.key("tile_sizes").beginArray();
        for (std::int64_t t : space.tileSizes)
            w.value(t);
        w.endArray();
        w.key("thresholds").beginArray();
        for (double t : space.thresholds)
            w.value(t);
        w.endArray();
        w.key("tiled_dims").value(space.tiledDims);
        w.endObject();
        w.key("apps").beginArray();
        for (const auto &a : app_docs)
            w.raw(a);
        w.endArray();
        w.endObject();
        std::ofstream os(tune_json);
        if (!os) {
            std::fprintf(stderr, "cannot write tune JSON to %s\n",
                         tune_json.c_str());
            return 1;
        }
        os << w.str() << "\n";
        std::printf("\ntune JSON written to %s (%zu apps)\n",
                    tune_json.c_str(), app_docs.size());
    }
    return 0;
}
