/**
 * @file
 * Dump the generated C++ of a paper app to stdout.  Used by
 * scripts/check_vectorize.sh to feed the emitted kernel through the
 * host compiler's vectorisation report, and handy for eyeballing what
 * the codegen produces:
 *
 *   ./polymage_dump_source harris [rows cols] > harris.gen.cpp
 *
 * It compiles with CompileOptions::optimized().  The header lists every
 * generated function with its line count, the pieces the JIT spreads
 * over translation units (GeneratedCode::translationUnits), and after a
 * shared stage function the other stage instances that call it, e.g.
 * `50 polymage_pyramid_blend_g0_s0 (also g1_s0, g2_s0)`.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "driver/compiler.hpp"

using namespace polymage;

namespace {

long
lineCount(const std::string &text)
{
    return long(std::count(text.begin(), text.end(), '\n'));
}

/** Name of the function a piece defines (it may open with declarations). */
std::string
definedName(const std::string &piece)
{
    std::size_t bol = 0;
    while (bol < piece.size()) {
        const std::size_t eol = piece.find('\n', bol);
        const std::string line = piece.substr(bol, eol - bol);
        // Every generated symbol starts with the entry's "polymage_".
        const std::size_t name = line.find(" polymage_");
        if (name != std::string::npos && line.back() != ';') {
            const std::size_t paren = line.find('(', name);
            return line.substr(name + 1, paren - name - 1);
        }
        if (eol == std::string::npos)
            break;
        bol = eol + 1;
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string app = argc > 1 ? argv[1] : "harris";
    std::vector<std::int64_t> dims;
    for (int i = 2; i < argc; ++i)
        dims.push_back(std::atoll(argv[i]));
    const std::int64_t r = dims.size() > 0 ? dims[0] : 2048;
    const std::int64_t c = dims.size() > 1 ? dims[1] : 2048;

    dsl::PipelineSpec spec("unset");
    if (app == "harris") {
        spec = apps::buildHarris(r, c);
    } else if (app == "unsharp") {
        spec = apps::buildUnsharpMask(r, c);
    } else if (app == "bilateral") {
        spec = apps::buildBilateralGrid(r, c);
    } else if (app == "camera") {
        spec = apps::buildCameraPipeline(r, c);
    } else if (app == "pyramid") {
        spec = apps::buildPyramidBlend(r, c, 4);
    } else if (app == "interp") {
        // As deep as the image allows, up to 8 scales.
        int levels = 8;
        while (levels > 2 && (std::min(r, c) >> (levels - 1)) < 4)
            --levels;
        spec = apps::buildMultiscaleInterp(r, c, levels);
    } else if (app == "laplacian") {
        spec = apps::buildLocalLaplacian(r, c, 4, 8);
    } else {
        std::fprintf(stderr,
                     "usage: %s {harris|unsharp|bilateral|camera|"
                     "pyramid|interp|laplacian} [rows cols]\n",
                     argv[0]);
        return 2;
    }

    auto compiled = compilePipeline(spec, CompileOptions::optimized());
    const auto &code = compiled.code;

    // Vectorisation header: what the explicit emitter chose, so a dump
    // is self-describing (docs/VECTORIZATION.md).
    std::printf("// %s: vectorize=%s", app.c_str(),
                code.vectorizeMode.c_str());
    if (code.vectorizeMode == "explicit") {
        std::printf(" isa=%s bits=%d", code.vectorIsa.c_str(),
                    code.vectorBits);
        std::printf(" explicit_nests=%d/%d", code.explicitNests,
                    code.interiorNests);
        for (const auto &gv : code.groupVector)
            if (gv.lanes > 0)
                std::printf(" g%d=%sx%d", gv.group, gv.elem.c_str(),
                            gv.lanes);
    }
    std::printf(" interleaved_nests=%d", code.interleavedNests);
    std::printf("\n// narrowed:");
    if (code.narrowedStages.empty()) {
        std::printf(" none");
    } else {
        for (const auto &s : code.narrowedStages)
            std::printf(" %s", s.c_str());
    }
    std::printf("\n");

    // Function sizes: the pieces the JIT spreads over its units.
    long largest = 0;
    for (const std::string &f : code.functions)
        largest = std::max(largest, lineCount(f));
    std::printf("// source: %ld lines, prelude %ld, %zu functions "
                "(largest %ld lines), entry %s %ld\n",
                lineCount(code.source), lineCount(code.prelude),
                code.functions.size(), largest, code.entry.c_str(),
                lineCount(code.entryPoints));
    for (const std::string &f : code.functions) {
        const std::string name = definedName(f);
        std::printf("//   %5ld %s", lineCount(f), name.c_str());
        // Stage instances whose drivers call this function instead of
        // one of their own.
        auto shared = code.sharedCallers.find(name);
        if (shared != code.sharedCallers.end()) {
            const char *sep = " (also ";
            for (const std::string &other : shared->second) {
                std::printf("%s%s", sep,
                            other.substr(code.entry.size() + 1).c_str());
                sep = ", ";
            }
            std::printf(")");
        }
        std::printf("\n");
    }
    std::fputs(code.source.c_str(), stdout);
    return 0;
}
