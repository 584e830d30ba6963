/**
 * @file
 * Storage mapping (paper §3.6): live-outs and inter-group values get
 * full arrays; values private to a tiled group get small per-tile
 * scratchpads sized by the tile extent plus overlap, reused by every
 * tile a thread executes.
 */
#ifndef POLYMAGE_CORE_STORAGE_HPP
#define POLYMAGE_CORE_STORAGE_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "core/grouping.hpp"
#include "core/range_analysis.hpp"

namespace polymage::core {

/** Where a stage's values live. */
enum class StorageKind {
    FullBuffer, ///< array covering [0, upper] per dimension
    Scratchpad, ///< per-tile array, relative indexing
};

/** Storage decision for one stage. */
struct StageStorage
{
    StorageKind kind = StorageKind::FullBuffer;
    /**
     * Scratchpad extent per stage dimension (compile-time constants);
     * empty for full buffers.
     */
    std::vector<std::int64_t> scratchExtent;
    /** Total scratchpad bytes (0 for full buffers). */
    std::int64_t scratchBytes = 0;
    /**
     * Element type the buffer is allocated with: the declared dtype,
     * or the range analysis' narrower storage type for intermediates
     * whose values provably fit it (docs/VECTORIZATION.md).  Codegen,
     * the slot allocator, and the executor all size with this.
     */
    dsl::DType dtype = dsl::DType::Float;
};

/**
 * One shared allocation slot of the buffer-reuse plan.  Every
 * full-buffer intermediate (non-live-out stage that is not a
 * scratchpad) is assigned to exactly one slot; stages whose
 * group-granularity live ranges are disjoint may share a slot, so the
 * runtime sizes the slot to the largest member and hands the same
 * memory to each in turn.
 */
struct AllocSlot
{
    /** Member stage indices in live-range (birth) order. */
    std::vector<int> stages;
    /** Estimated slot bytes (max over members, under the estimates). */
    std::int64_t estBytes = 0;
};

/**
 * One scratchpad stage's contribution to its group's per-tile working
 * set, kept parameterised by the tile sizes so the tile cost model can
 * evaluate candidate sizes without re-planning storage.  Evaluating
 * the term at the plan's own tile sizes reproduces exactly the
 * StageStorage::scratchBytes the planner computed.
 */
struct FootprintTerm
{
    int stage = -1;
    /**
     * Per tiled group dimension (tiledDimsFor order): the cumulative
     * dependence halo at this stage's local level (extLeft + extRight,
     * group coordinates) and the stage's scale along the dimension.
     * scale 0 means the stage has no dimension mapped there (its
     * extent along that dimension is 1).
     */
    std::vector<std::int64_t> halo;
    std::vector<std::int64_t> scale;
    /** Product of the untiled constant extents. */
    std::int64_t fixedElems = 1;
    std::int64_t dtypeBytes = 1;

    /** Scratch bytes of this stage for tile sizes @p tau (one entry
     * per tiled dimension; the last entry repeats, matching
     * tileSizeFor). */
    std::int64_t bytesAt(const std::vector<std::int64_t> &tau) const;
};

/**
 * A tiled group's scratch working set as a function of tile size: the
 * sum of its stages' footprint terms.  This is what the tile cost
 * model sizes against the cache hierarchy.
 */
struct GroupFootprint
{
    std::vector<FootprintTerm> terms;

    /** Total scratch bytes of one tile under tile sizes @p tau. */
    std::int64_t bytesAt(const std::vector<std::int64_t> &tau) const;
    /**
     * Scratch bytes per tile point under @p tau: bytesAt / tile area.
     * Converges to the asymptotic per-point density for large tiles;
     * small tiles pay the halo.
     */
    double bytesPerTilePoint(const std::vector<std::int64_t> &tau) const;
};

/** Storage plan for the whole pipeline. */
struct StoragePlan
{
    std::map<int, StageStorage> stages; // stage idx -> storage

    /**
     * Per tiled multi-stage group index: the scratch working set as a
     * function of tile size (exposed before codegen so the tile cost
     * model and the guided autotuner can predict footprints of
     * candidate tile sizes).  Groups without scratchpads are absent.
     */
    std::map<int, GroupFootprint> groupFootprint;

    /**
     * Buffer-reuse plan (liveness-driven): full-buffer intermediate
     * stage idx -> allocation slot index.  Live-outs (caller-provided)
     * and scratchpads never appear here.
     */
    std::map<int, int> slot;
    /** Slot table; slot ids index this vector. */
    std::vector<AllocSlot> slots;
    /**
     * Estimated intermediate footprint without / with reuse, under the
     * parameter estimates.  The difference is the bytes the reuse plan
     * saves (reported by the trace layer and the benches).
     */
    std::int64_t estBytesNoReuse = 0;
    std::int64_t estBytesWithReuse = 0;

    bool
    isScratch(int stage_idx) const
    {
        auto it = stages.find(stage_idx);
        return it != stages.end() &&
               it->second.kind == StorageKind::Scratchpad;
    }

    /** Allocation element type of a stage's buffer (the narrowed
     * storage type when the range analysis proved one). */
    dsl::DType
    elemType(int stage_idx, const pg::PipelineGraph &g) const
    {
        auto it = stages.find(stage_idx);
        return it != stages.end()
                   ? it->second.dtype
                   : g.stage(stage_idx).callable->dtype();
    }
};

/**
 * Decide storage for every stage.
 *
 * A stage becomes a scratchpad when it is a non-live-out function whose
 * consumers all sit in its own (tiled, multi-stage) group and every one
 * of its dimensions is either tiled (extent tau + overlap, scaled) or
 * has a parameter-free constant extent.
 *
 * Full-buffer intermediates are then assigned to allocation slots: a
 * stage is live from its producing group until its last consuming
 * group (in emission order), and stages with disjoint live ranges and
 * compatible estimated byte sizes greedily share a slot (best fit by
 * size).
 *
 * @param tiling_enabled false makes everything a full buffer (the
 *        driver passes grouping.enable && codegen.storageOpt)
 * @param ranges optional range-analysis result; when present,
 *        intermediates with a proven narrower storage type are
 *        allocated (and their slots sized) with it
 */
StoragePlan planStorage(const pg::PipelineGraph &g,
                        const GroupingResult &grouping,
                        const GroupingOptions &opts,
                        bool tiling_enabled = true,
                        const RangeAnalysis *ranges = nullptr);

} // namespace polymage::core

#endif // POLYMAGE_CORE_STORAGE_HPP
