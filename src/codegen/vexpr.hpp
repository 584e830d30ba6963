/**
 * @file
 * Explicit typed vector emission (docs/VECTORIZATION.md): renders a
 * guard-free innermost loop body as fixed-width vector operations over
 * GCC/Clang vector extensions (`pm_v_<elem>x<lanes>` typedefs), with
 * unaligned loads/stores for stride-1 accesses, broadcast splats for
 * loop-uniform subexpressions, and `__builtin_convertvector` at type
 * boundaries.  Integer subexpressions compute in the minimal lane type
 * the range analysis proves exact (the compute-narrowing half of the
 * bitwidth story); anything the emitter cannot prove safe -- strided or
 * gathered accesses, possible integer wrap, transcendental math --
 * makes the whole nest fall back to the pragma path.
 */
#ifndef POLYMAGE_CODEGEN_VEXPR_HPP
#define POLYMAGE_CODEGEN_VEXPR_HPP

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "codegen/cexpr.hpp"
#include "core/range_analysis.hpp"

namespace polymage::cg {

/** Vector lane element descriptor. */
struct VElem
{
    const char *cname; ///< C spelling ("float", "unsigned short", ...)
    const char *tag;   ///< short tag for typedef names ("f32", "u16")
    int size;          ///< bytes per lane
    bool isFloat;
    bool isSigned;
};

/** Lane descriptor of a dtype. */
VElem velemOf(dsl::DType t);

/**
 * Registry of the vector typedefs one translation unit needs.  Bodies
 * request names while they render; the generator prepends
 * `typedefLines()` to the prelude afterwards.  Every type comes in an
 * aligned flavour (`pm_v_f32x8`) for values and an `aligned(1)` flavour
 * (`pm_v_f32x8_u`) used solely through pointer casts for unaligned
 * loads and stores.
 */
class VecTypes
{
  public:
    /** Typedef name for @p lanes lanes of @p e (registers it). */
    std::string name(const VElem &e, int lanes, bool unaligned = false);
    /** All requested typedefs, deterministic order. */
    std::vector<std::string> typedefLines() const;
    bool empty() const { return used_.empty(); }

  private:
    struct Entry
    {
        VElem elem;
        int lanes;
        bool unaligned;
    };
    std::map<std::string, Entry> used_;
};

/** Everything tryVectorize needs to know about one loop nest. */
struct VecRequest
{
    /** The case value to vectorise. */
    dsl::Expr value;
    /** Declared dtype of the stage (the scalar store cast). */
    dsl::DType declared = dsl::DType::Float;
    /** Allocation element type of the target buffer (narrowed). */
    dsl::DType storeType = dsl::DType::Float;
    /** Scalar store lvalue, indexed by the innermost variable. */
    std::string target;
    /** Scalar expression renderer environment (splats, index args). */
    const EmitEnv *env = nullptr;
    /** DSL entity id of the innermost loop variable. */
    int innerVarId = -1;
    /** C name of the innermost loop variable. */
    std::string innerVarName;
    /** SIMD register width the lane count is derived from. */
    int vectorBits = 128;
    /** Allocation element type of a call's backing buffer. */
    std::function<dsl::DType(const dsl::CallNode &)> loadType;
    /** Interval evaluator with every loop variable bound. */
    core::ExprRangeEval *rangeEval = nullptr;
};

/** A successfully vectorised loop body. */
struct VecResult
{
    /** Body statements, ending in the unaligned vector store. */
    std::vector<std::string> lines;
    /** Compute element tag of the stored value ("f32", "u16", ...). */
    std::string elemTag;
    /** Lane count (the main loop advances by this). */
    int lanes = 0;
};

/**
 * Attempt explicit vectorisation of one guard-free innermost body.
 * Returns nullopt whenever any safety proof fails -- the caller keeps
 * the scalar/pragma emission.  The proofs: every access along the
 * innermost variable is affine with coefficient 1 (unaligned vector
 * load/store), no intermediate integer result can leave its C type
 * (wrap would diverge from lockstep lane arithmetic), integer
 * division/modulo see only non-negative numerators and positive
 * divisors (vector `/` truncates; the DSL floors), and only
 * vector-expressible operations appear on varying subtrees.
 */
std::optional<VecResult> tryVectorize(const VecRequest &req,
                                      VecTypes &types);

} // namespace polymage::cg

#endif // POLYMAGE_CODEGEN_VEXPR_HPP
