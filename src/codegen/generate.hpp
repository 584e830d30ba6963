/**
 * @file
 * C++ code generation (paper §3.7): turns a scheduled, storage-mapped
 * pipeline into C++ structured like the paper's Figure 7 -- parallel
 * overlapped-tile loops, per-tile scratchpads with relative indexing,
 * clamped per-level bounds, and vectorisation on unit-stride innermost
 * loops.  Each stage's loop nest is emitted once, as a function shared
 * with every other stage whose nest is the same text up to the names
 * of the buffers and parameters it takes as arguments; each fused
 * group gets one small function that walks its tiles or tasks and
 * calls them, and the pipeline's one entry dispatches each parallel
 * phase to its group.  The program thus splits into translation units
 * that compile concurrently (GeneratedCode::translationUnits).
 */
#ifndef POLYMAGE_CODEGEN_GENERATE_HPP
#define POLYMAGE_CODEGEN_GENERATE_HPP

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/grouping.hpp"
#include "core/range_analysis.hpp"
#include "core/storage.hpp"

namespace polymage::cg {

/**
 * How innermost loops are vectorised (docs/VECTORIZATION.md): the
 * paper's vec on/off axis.
 */
enum class VectorizeMode
{
    /** Scalar code, autovectorisation suppressed in the JIT flags. */
    Off,
    /**
     * Emit typed fixed-width vector operations (pm_vec prelude over
     * compiler vector extensions) on guard-free interior nests, with a
     * scalar tail loop; nests the emitter cannot prove safe fall back
     * to scalar code under an `omp simd` pragma.  The default.
     */
    Explicit,
};

/** Short name of a mode as reported in profile JSON. */
const char *vectorizeModeName(VectorizeMode m);

/**
 * Slices of a reduction's outermost dimension that run as parallel
 * tasks (GeneratedCode::slicedReductions), fewer when the dimension is
 * shorter.  A constant, so a reduction's result never depends on the
 * thread count; set from a sweep on Bilateral's grid reductions
 * (EXPERIMENTS.md "One pipeline entry").
 */
constexpr int kReductionSlices = 4;

/**
 * One slice of a sliced reduction (GeneratedCode::slicedReductions),
 * as the executor plans it per call (planSlices): the outermost
 * reduction rows [x0, x1] it sweeps and, for slice k > 0, the band
 * [b0, b1] of accumulator rows (dimension 0) its updates can reach.
 * Partial k holds only that band: its copy of the accumulator cell at
 * flat offset f is element off + f of the partials.  kReductionSlices
 * entries, padded to kSlicePlanBytes, head the reduction's partials
 * slot, and the partials follow, band after band.  Slices past the
 * slice count are empty.
 */
struct SlicePlan
{
    std::int64_t x0 = 0;
    std::int64_t x1 = -1;
    std::int64_t b0 = 0;
    std::int64_t b1 = -1;
    std::int64_t off = 0;
};
using SlicePlans = std::array<SlicePlan, kReductionSlices>;
constexpr std::int64_t kSlicePlanBytes =
    (std::int64_t(sizeof(SlicePlans)) + 63) / 64 * 64;

/**
 * Plan sliced reduction @p s under @p params, given its buffer's
 * @p shape: the slices of the outermost reduction dimension, and per
 * slice the rows poly::evalRange bounds the target's row index to over
 * the slice's sub-domain (every row when it has no bound).  Returns the
 * partials' element count.
 */
std::int64_t planSlices(const pg::PipelineGraph &g, int s,
                        const std::vector<std::int64_t> &params,
                        const std::vector<std::int64_t> &shape,
                        SlicePlans &plan);

/**
 * Code generation switches: the storage ablation and the paper's vec
 * axis (§4).  The opt axis is GroupingOptions::enable.  Every group's
 * scratchpads are carved from the 64-byte-aligned arena the caller
 * passes the entry (`pm_arena`, GeneratedCode::heapArenaBytes), which
 * holds any tile size; boundary conditions are always split into
 * interior and strip nests.
 */
struct CodegenOptions
{
    /**
     * Storage optimisation (paper §3.6): scratchpads for intra-group
     * intermediates.  Off keeps every stage in a full buffer even when
     * tiled -- the ablation the paper calls out ("without storage
     * reduction, the tiling transformations are not very effective").
     */
    bool storageOpt = true;
    /** Innermost-loop vectorisation strategy (see VectorizeMode). */
    VectorizeMode vectorize = VectorizeMode::Explicit;
};

/** The generated program. */
struct GeneratedCode
{
    /**
     * The whole program as one translation unit:
     * translationUnits(1).front().
     */
    std::string source;
    /**
     * The program in pieces that compile independently.  `prelude`
     * (helpers and vector typedefs) opens every unit.  `functions`
     * holds, per group, the stage functions -- one per stage of a
     * tiled group, `<entry>_g<k>_s<j>(buffers, parameters, T0[,
     * T1...], scratchpads)`, one per case nest of an untiled stage,
     * `<entry>_g<k>_s<j>_n<m>(buffers, parameters, outer indices)` --
     * then the group function `<entry>_g<k>`, taking the entry's
     * arguments and holding only its task loops, its scratchpad
     * allocation and the calls (an accumulator's loops are its own).
     * A stage function whose text equals an earlier one's up to the
     * names of its arguments is not emitted: its drivers call the
     * earlier function (`sharedCallers`).  All are hidden; a group
     * function's piece opens with declarations of the stage functions
     * it calls.  `entryPoints` declares the group functions and
     * defines the one extern "C" entry dispatching to them.  No unit
     * defines thread-local state: the scratch arena is the caller's.
     */
    std::string prelude;
    std::vector<std::string> functions;
    std::string entryPoints;
    /**
     * Split the program into min(@p n, functions + 1) translation units
     * of about equal line count, each opening with the prelude; unit 0
     * holds the entry points.  Linked together they define exactly the
     * symbols of `source`.
     */
    std::vector<std::string> translationUnits(int n) const;
    /**
     * Entry symbol (docs/SERVING.md "Scheduling"): the pipeline's
     * parallel phases as closed task lists a caller-owned scheduler
     * executes.  A tiled group is one phase whose tasks are its
     * outer-tile iterations, an untiled function nest is one phase
     * whose tasks flatten the loop dimensions up to and including the
     * parallel one, a sliced reduction is three phases (cells, slices,
     * cells), and recurrences are single-task phases (serialPhases).
     * long long entry(const long long *params, void *const *inputs,
     *                 void **outputs, void *const *slots,
     *                 long long phase, long long lo, long long hi,
     *                 void *arena);
     * Parameters/inputs/outputs follow graph order; `params` holds
     * exactly the graph parameters (tile sizes are folded constants,
     * docs/SHAPES.md).  Output buffers are caller-allocated (shape via
     * interp::stageShape).  `slots` holds one 64-byte-aligned
     * caller-provided allocation per entry of StoragePlan::slots, sized
     * to the largest member stage under the call's parameters, then
     * one per sliced reduction for its plan and partials
     * (rt::Executable services them from a BufferPool, so steady-state
     * calls perform no heap allocation).  `arena` is the calling
     * thread's 64-byte-aligned scratch of at least heapArenaBytes
     * (null when that is 0, and for the count queries).
     * phase < 0 returns the phase count (== phaseGroup.size()); lo < 0
     * returns the task count of `phase` under the call's parameters;
     * otherwise tasks [lo, min(hi, count-1)] of `phase` execute
     * serially in the calling thread and 0 is returned.  Tasks within
     * one phase are independent; phases must complete in order (the
     * scheduler's per-job barriers).
     */
    std::string entry;
    /**
     * Accumulator stages whose reductions run sliced, in stage order:
     * kReductionSlices tasks over the outermost reduction dimension,
     * slice k > 0 combining into its own partial copy of the band of
     * accumulator rows it can reach, merged into the accumulator in
     * slice order.  Each has its own slot after StoragePlan::slots, in
     * this order: its SlicePlans, then the partials (planSlices).
     */
    std::vector<int> slicedReductions;
    /**
     * Group index owning each phase of the entry: phaseGroup[p]
     * is the group whose loops run phase p.  A tiled group owns one
     * phase (one task per outer tile); an untiled stage owns one phase
     * per case nest.  This is what lets the executor fold the flat
     * task stream back into the per-group profile
     * (Executable::profile().groups).
     */
    std::vector<int> phaseGroup;
    /**
     * serialPhases[p]: phase p is one serial task -- a reduction
     * reading its own accumulator, a recurrence, or an untiled nest
     * with no dimension above its innermost.  The profile counts its
     * time as serial.
     */
    std::vector<bool> serialPhases;
    /**
     * Largest scratch (64-byte-padded bytes) any group carves from the
     * entry's arena argument; 0 when no group has scratchpads.  The
     * caller's per-thread arena must hold this much.  Feeds
     * Executable::memoryStats().
     */
    std::int64_t heapArenaBytes = 0;
    /**
     * Codegen-strategy observability (the `codegen` object of
     * polymage-profile-v1 entries): the loop-nest census of the
     * program -- `interiorNests` counts guard-free function-stage
     * nests, `guardedNests` those that kept a residual per-point `if`,
     * and `partitionedCases` the cases split into union-of-box strips.
     */
    int interiorNests = 0;
    int guardedNests = 0;
    int partitionedCases = 0;
    double interiorFraction() const
    {
        const int total = interiorNests + guardedNests;
        return total == 0 ? 1.0 : double(interiorNests) / total;
    }

    /**
     * Explicit-vectorisation observability (the `vector` object of
     * polymage-profile-v1 entries, docs/VECTORIZATION.md): per group,
     * how many of its guard-free interior nests went through the
     * explicit emitter, at what lane width and element type.
     */
    struct GroupVectorInfo
    {
        int group = 0;
        /** Compute element type of the widest vector nest ("f32",
         * "u16", ...); empty when nothing vectorised explicitly. */
        std::string elem;
        /** Lanes of the widest explicit nest (0: none). */
        int lanes = 0;
        /** Nests emitted through the explicit vector path. */
        int vectorNests = 0;
        /** Guard-free interior nests in the group (the denominator of
         * the explicit fraction). */
        int interiorNests = 0;
    };
    /** One entry per group, emission order (Explicit mode only). */
    std::vector<GroupVectorInfo> groupVector;
    /** ISA the lane count was derived from ("avx2", ...). */
    std::string vectorIsa;
    /** SIMD register bits backing the lane choice. */
    int vectorBits = 0;
    /** Mode actually used ("off", "explicit"). */
    std::string vectorizeMode;
    /** Total nests emitted through the explicit vector path. */
    int explicitNests = 0;
    /**
     * Interleaved residue nests: sibling case nests of one stage whose
     * innermost loops stride the same step at distinct phases (an
     * up-sampler's even and odd columns), emitted as one unit-stride
     * loop over the quotient (docs/VECTORIZATION.md).  Counted per
     * stage instance, like explicitNests.
     */
    int interleavedNests = 0;
    /**
     * Stage functions emitted, and for each emitted function that
     * other stage instances share, the names those instances' own
     * functions would have had (`<entry>_g<k>_s<j>[_n<m>]`), in
     * emission order.  Instances = stageFunctions + the shared names.
     */
    int stageFunctions = 0;
    std::map<std::string, std::vector<std::string>> sharedCallers;
    /** Stages stored in a range-narrowed type, as "name:u16". */
    std::vector<std::string> narrowedStages;
    double explicitFraction() const
    {
        return interiorNests == 0
                   ? 0.0
                   : double(explicitNests) / interiorNests;
    }
};

/**
 * Generate code for a scheduled pipeline.  @p ranges feeds the explicit
 * vector emitter's compute-type narrowing and the narrowed-stage report.
 */
GeneratedCode generate(const pg::PipelineGraph &g,
                       const core::GroupingResult &grouping,
                       const core::GroupingOptions &gopts,
                       const core::StoragePlan &storage,
                       const CodegenOptions &opts,
                       const core::RangeAnalysis &ranges);

} // namespace polymage::cg

#endif // POLYMAGE_CODEGEN_GENERATE_HPP
