#include "codegen/generate.hpp"

#include <algorithm>
#include <cctype>
#include <optional>
#include <set>
#include <string_view>
#include <unordered_set>

#include "codegen/cexpr.hpp"
#include "codegen/vexpr.hpp"
#include "codegen/writer.hpp"
#include "dsl/transform.hpp"
#include "machine/machine.hpp"
#include "poly/cond_box.hpp"
#include "poly/range.hpp"
#include "support/intmath.hpp"

namespace polymage::cg {

using core::GroupSchedule;
using core::StageMapping;
using core::StorageKind;
using dsl::DType;
using dsl::Expr;
using poly::AffineExpr;

namespace {

std::string
sanitize(const std::string &name)
{
    std::string out;
    for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_')
            out += c;
        else
            out += '_';
    }
    if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])))
        out = "v_" + out;
    return out;
}

/** Render an integer affine expression over parameters. */
std::string
emitAffineInt(const AffineExpr &e,
              const std::map<int, std::string> &names)
{
    std::string s;
    bool first = true;
    for (const auto &[id, c] : e.terms()) {
        PM_ASSERT(c.isInteger(), "fractional coefficient in bound");
        auto it = names.find(id);
        PM_ASSERT(it != names.end(), "unknown symbol in bound");
        const std::int64_t k = c.asInteger();
        if (!first)
            s += " + ";
        first = false;
        if (k == 1)
            s += it->second;
        else
            s += std::to_string(k) + "*" + it->second;
    }
    PM_ASSERT(e.constant().isInteger(), "fractional constant in bound");
    const std::int64_t c0 = e.constant().asInteger();
    if (first)
        return std::to_string(c0);
    if (c0 != 0)
        s += " + " + std::to_string(c0);
    return "(" + s + ")";
}

/** `fn(t0, fn(t1, ...))`: the max or min of bound terms. */
std::string
foldMinMax(const std::vector<std::string> &terms, const char *fn)
{
    PM_ASSERT(!terms.empty(), "no bound terms");
    std::string s = terms.back();
    for (int i = int(terms.size()) - 2; i >= 0; --i)
        s = std::string(fn) + "(" + terms[i] + ", " + s + ")";
    return s;
}

/**
 * Evaluate an affine bound under the parameter estimates; nullopt when
 * a symbol has no estimate (per-clause extents then stay unknown).
 */
std::optional<std::int64_t>
evalAffineParams(const AffineExpr &e, const poly::RangeEnv &env)
{
    Rational sum = e.constant();
    for (const auto &[id, c] : e.terms()) {
        auto it = env.params.find(id);
        if (it == env.params.end())
            return std::nullopt;
        sum += c * Rational(it->second);
    }
    if (!sum.isInteger())
        return std::nullopt;
    return sum.asInteger();
}

/** One generated loop dimension of a stage instance. */
struct LoopDim
{
    std::string var;             // loop variable C name
    std::vector<std::string> lb; // max of these
    std::vector<std::string> ub; // min of these
    /**
     * Loop stride; > 1 when a case condition pins the variable to a
     * residue class (var % step == phase), e.g. the even/odd rows of
     * an upsampling stage.  Replaces a per-point guard with a strided
     * loop (the paper's domain splitting, section 3.7).
     */
    std::int64_t step = 1;
    std::int64_t phase = 0;
    /** Estimated extent (-1 unknown); picks the parallel dimension. */
    std::int64_t estExtent = -1;
    /** Estimated inclusive range backing estExtent (valid when >= 0). */
    std::int64_t estLo = 0;
    std::int64_t estHi = -1;
};

/**
 * One loop nest implementing (part of) a case: its refined dimensions
 * plus the residual guards that must stay per-point `if`s.  Boundary
 * partitioning turns one guarded nest into several guard-free ones.
 */
struct CaseNest
{
    std::vector<LoopDim> dims;
    std::vector<std::string> guards;
};

/**
 * Minimum estimated extent for a loop dimension to end the task range.
 * A short outermost dimension -- typically the 3-wide channel axis of
 * an RGB pipeline -- must not cap a phase at 3 tasks, so the task
 * range flattens every dimension up to the first one estimated this
 * long (the paper's baselines parallelise rows).
 */
constexpr std::int64_t kMinParallelExtent = 16;

/** Index of the dimension of @p dims that hosts the parallel loop. */
std::size_t
parallelDim(const std::vector<LoopDim> &dims)
{
    std::size_t par_d = 0;
    for (std::size_t d = 0; d < dims.size(); ++d) {
        par_d = d;
        if (dims[d].estExtent < 0 || dims[d].estExtent >= kMinParallelExtent)
            break;
    }
    return par_d;
}

/** Match `v % step == phase` (either operand order) on a loop var. */
bool
matchResidue(const dsl::Condition &cond,
             const std::map<int, std::string> &var_names, int &var_id,
             std::int64_t &step, std::int64_t &phase)
{
    const dsl::CondNode &n = cond.node();
    if (n.kind != dsl::CondNode::Kind::Cmp || n.op != dsl::CmpOp::EQ)
        return false;
    auto parse_mod = [&](const dsl::Expr &e, const dsl::Expr &other) {
        if (e.node().kind() != dsl::ExprKind::BinOp)
            return false;
        const auto &b = static_cast<const dsl::BinOpNode &>(e.node());
        if (b.op != dsl::BinOpKind::Mod)
            return false;
        if (b.a.node().kind() != dsl::ExprKind::VarRef ||
            b.b.node().kind() != dsl::ExprKind::ConstInt ||
            other.node().kind() != dsl::ExprKind::ConstInt) {
            return false;
        }
        const int id =
            static_cast<const dsl::VarRefNode &>(b.a.node()).var->id;
        if (!var_names.count(id))
            return false;
        const std::int64_t c =
            static_cast<const dsl::ConstIntNode &>(b.b.node()).value;
        const std::int64_t k =
            static_cast<const dsl::ConstIntNode &>(other.node()).value;
        if (c <= 1 || k < 0 || k >= c)
            return false;
        var_id = id;
        step = c;
        phase = k;
        return true;
    };
    return parse_mod(n.lhs, n.rhs) || parse_mod(n.rhs, n.lhs);
}

/**
 * One residue class of an interleaved nest: the innermost dimension of
 * its case nest (bounds, step c, phase p) and its body, rendered at
 * `y = c*q + p` over the quotient q.
 */
struct ResidueClass
{
    LoopDim dim;
    std::vector<std::string> body;
};

/**
 * Sibling nests of one stage that share one interleaved loop (indices
 * into @p nests, first-appearance order): guard-free nests whose outer
 * dimensions are identical and whose innermost dimensions are strided
 * by the same step c > 1 at distinct phases.  Every other nest is a
 * unit of its own.  Cases are disjoint, so interleaving two classes
 * only reorders the points of a row.
 */
std::vector<std::vector<std::size_t>>
residueUnits(const std::vector<CaseNest> &nests)
{
    auto joinable = [&](std::size_t i, std::size_t j) {
        const CaseNest &a = nests[i], &b = nests[j];
        if (!a.guards.empty() || !b.guards.empty() || a.dims.empty() ||
            a.dims.size() != b.dims.size())
            return false;
        const LoopDim &ia = a.dims.back(), &ib = b.dims.back();
        if (ia.step <= 1 || ia.step != ib.step || ia.phase == ib.phase)
            return false;
        for (std::size_t d = 0; d + 1 < a.dims.size(); ++d) {
            const LoopDim &da = a.dims[d], &db = b.dims[d];
            if (da.lb != db.lb || da.ub != db.ub || da.step != db.step ||
                da.phase != db.phase)
                return false;
        }
        return true;
    };
    std::vector<std::vector<std::size_t>> units;
    for (std::size_t i = 0; i < nests.size(); ++i) {
        auto unit = std::find_if(units.begin(), units.end(), [&](auto &u) {
            return std::all_of(u.begin(), u.end(),
                               [&](std::size_t j) { return joinable(i, j); });
        });
        if (unit == units.end())
            units.push_back({i});
        else
            unit->push_back(i);
    }
    return units;
}

bool
isIndexType(DType t)
{
    return t == DType::Int || t == DType::Long;
}

Expr
intConst(std::int64_t v, DType t = DType::Int)
{
    return Expr(std::make_shared<dsl::ConstIntNode>(v, t));
}

/** The value of an integer constant; nullopt for any other node. */
std::optional<std::int64_t>
intValue(const Expr &e)
{
    if (e.node().kind() != dsl::ExprKind::ConstInt)
        return std::nullopt;
    return static_cast<const dsl::ConstIntNode &>(e.node()).value;
}

/** `a op b` over integers, constant operands folded (floor division and
 * modulo, as the DSL defines them). */
Expr
intOp(dsl::BinOpKind op, const Expr &a, const Expr &b, DType t)
{
    using dsl::BinOpKind;
    const auto x = intValue(a), y = intValue(b);
    if (x && y) {
        switch (op) {
          case BinOpKind::Add: return intConst(*x + *y, t);
          case BinOpKind::Sub: return intConst(*x - *y, t);
          case BinOpKind::Mul: return intConst(*x * *y, t);
          case BinOpKind::Div: return intConst(floorDiv(*x, *y), t);
          case BinOpKind::Mod: return intConst(floorMod(*x, *y), t);
          default: break;
        }
    }
    if (y && ((*y == 0 && (op == BinOpKind::Add || op == BinOpKind::Sub)) ||
              (*y == 1 && op == BinOpKind::Mul)))
        return a;
    return Expr(std::make_shared<dsl::BinOpNode>(op, a, b, t));
}

/** An integer expression as `k*q + rest`, rest free of q. */
struct QuotientSplit
{
    std::int64_t k = 0;
    Expr rest;
};

/**
 * Split @p e over the variable @p q; nullopt when it is not of that
 * form or when a subexpression the split does not look into (a call, a
 * select, a cast) may read q.
 */
std::optional<QuotientSplit>
splitQuotient(const Expr &e, int q)
{
    using dsl::BinOpKind;
    const dsl::ExprNode &n = e.node();
    switch (n.kind()) {
      case dsl::ExprKind::ConstInt:
      case dsl::ExprKind::ParamRef:
        return QuotientSplit{0, e};
      case dsl::ExprKind::VarRef:
        if (static_cast<const dsl::VarRefNode &>(n).var->id == q)
            return QuotientSplit{1, intConst(0)};
        return QuotientSplit{0, e};
      case dsl::ExprKind::UnOp: {
        auto a = splitQuotient(static_cast<const dsl::UnOpNode &>(n).a, q);
        if (!a || !isIndexType(n.dtype()))
            return std::nullopt;
        if (a->k == 0)
            return QuotientSplit{0, e};
        return QuotientSplit{-a->k, intOp(BinOpKind::Sub, intConst(0),
                                          a->rest, n.dtype())};
      }
      case dsl::ExprKind::BinOp: {
        const auto &b = static_cast<const dsl::BinOpNode &>(n);
        auto l = splitQuotient(b.a, q), r = splitQuotient(b.b, q);
        if (!l || !r || !isIndexType(n.dtype()))
            return std::nullopt;
        if (l->k == 0 && r->k == 0)
            return QuotientSplit{0, e};
        const Expr rest = intOp(b.op, l->rest, r->rest, n.dtype());
        switch (b.op) {
          case BinOpKind::Add: return QuotientSplit{l->k + r->k, rest};
          case BinOpKind::Sub: return QuotientSplit{l->k - r->k, rest};
          case BinOpKind::Mul: {
            // One factor is q-free; it must be a constant.
            const auto f = intValue((l->k == 0 ? l : r)->rest);
            if ((l->k != 0 && r->k != 0) || !f)
                return std::nullopt;
            return QuotientSplit{(l->k + r->k) * *f, rest};
          }
          default:
            return std::nullopt;
        }
      }
      default:
        return std::nullopt;
    }
}

/**
 * @p e with the loop variable @p var at `c*q + p`.  An integer division
 * or modulo by a constant d that divides q's coefficient k folds,
 * floor((k*q + r)/d) = (k/d)*q + floor(r/d) and (k*q + r) mod d =
 * r mod d, so an up-sampler's `y/2` becomes `q` and every index stays
 * affine in q -- the form the compiler vectorises.
 */
Expr
atResidue(const Expr &e, int var, const dsl::Variable &q, std::int64_t c,
          std::int64_t p)
{
    using dsl::BinOpKind;
    const Expr at = intOp(BinOpKind::Add,
                          intOp(BinOpKind::Mul, q, intConst(c), DType::Int),
                          intConst(p), DType::Int);
    return dsl::rewriteExpr(e, [&](const dsl::ExprNode &n)
                                   -> std::optional<Expr> {
        if (n.kind() == dsl::ExprKind::VarRef) {
            if (static_cast<const dsl::VarRefNode &>(n).var->id == var)
                return at;
            return std::nullopt;
        }
        if (n.kind() != dsl::ExprKind::BinOp || !isIndexType(n.dtype()))
            return std::nullopt;
        const auto &b = static_cast<const dsl::BinOpNode &>(n);
        const auto d = intValue(b.b);
        if ((b.op != BinOpKind::Div && b.op != BinOpKind::Mod) || !d ||
            *d <= 0)
            return std::nullopt;
        const auto s = splitQuotient(b.a, q.id());
        if (!s || s->k == 0 || s->k % *d != 0)
            return std::nullopt;
        const Expr r = intOp(b.op, s->rest, b.b, n.dtype());
        if (b.op == BinOpKind::Mod)
            return r;
        return intOp(BinOpKind::Add,
                     intOp(BinOpKind::Mul, q, intConst(s->k / *d), n.dtype()),
                     r, n.dtype());
    });
}

/**
 * The pipeline's one entry point and the group functions it dispatches
 * to take the call's data (the leading four arguments) and the
 * (phase, lo, hi) triple selecting what runs (GeneratedCode::entry);
 * the stage functions they call take the pointers and parameters they
 * read instead.
 */
const std::string kEntryParams =
    "const long long *params, void *const *inputs, void **outputs, "
    "void *const *pm_slots, long long pm_phase, long long pm_lo, "
    "long long pm_hi";
const std::string kEntryArgs =
    "params, inputs, outputs, pm_slots, pm_phase, pm_lo, pm_hi";

/**
 * Linkage of every internal function (group, stage and arena).  They
 * link across translation units of one shared object but stay out of
 * its dynamic symbol table.  Shared stage functions are never inlined
 * into or cloned for a caller in their own unit: every caller then runs
 * the same machine code (bitwise-equal results however the compiler
 * contracts floating-point expressions), and no body is optimised
 * twice.
 */
const std::string kLinkage =
    "__attribute__((visibility(\"hidden\"), noinline, noclone))";

/**
 * A local of the entry preamble and the statement declaring it.  Stage
 * functions take the pointers and parameters as arguments instead of
 * loading them from the ABI arrays, and recompute the locals derived
 * from those arguments.
 */
struct PreambleLine
{
    std::string name;
    std::string text;
    enum class Arg
    {
        None,   // a local of every function reading it
        Param,  // a graph parameter: `int` argument
        Buffer, // a buffer pointer: `T *` or `const T *` argument
    };
    Arg arg = Arg::None;
    /** Argument type (a buffer's element type) and the ABI array
     * element the driver passes: `inputs[1]`, `pm_slots[0]`,
     * `params[3]`. */
    std::string type;
    std::string source;
    /** The argument a derived local describes: a buffer's extent and
     * stride locals, a scratchpad's tile origin. */
    std::string owner;
};

/** An argument of a stage function other than a buffer or parameter. */
struct StageArg
{
    std::string decl;  // as declared, e.g. `long long T0`
    std::string name;  // declared name
    std::string value; // what the driver passes
};

/**
 * The driver's rest of an untiled loop nest: its dimensions up to and
 * including the parallel one, which the task range walks, whose body
 * is one call to the shared function running the dimensions below.
 */
struct OuterNest
{
    std::vector<LoopDim> dims;
    std::string call;
};

/**
 * One group as its group function sees it.  The stage loop nests are
 * emitted as shared functions (`functions`); the group function only
 * adds its task loop, its scratchpad allocation and one call per
 * stage.  An accumulator's phases are emitted in the group function
 * itself.
 */
struct GroupDriver
{
    enum class Kind
    {
        Tiled,       // overlapped tiles, one shared function per stage
        Untiled,     // one shared function per case nest
        Serial,      // self-recurrent stage: one serial shared nest
        Accumulator, // phases in the group function
    };
    Kind kind = Kind::Untiled;
    /** First parallel phase of the group (GeneratedCode::phaseGroup). */
    int firstPhase = 0;
    /** Stage functions first defined by this group, and declarations
     * of every stage function its drivers call. */
    std::vector<std::string> functions;
    std::string decls;
    /** Tiled and Serial: one call statement per stage, level order. */
    std::vector<std::string> calls;
    /** Untiled: the outer loops of every case nest, emission order. */
    std::vector<OuterNest> nests;
};

/**
 * Call @p fn on every identifier token of @p text, in order (numeric
 * literals skipped), as a view into @p text.
 */
template <class Fn>
void
forEachIdentifier(std::string_view text, Fn fn)
{
    auto word = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    for (std::size_t i = 0; i < text.size();) {
        if (!word(text[i])) {
            ++i;
            continue;
        }
        std::size_t j = i;
        while (j < text.size() && word(text[j]))
            ++j;
        if (!std::isdigit(static_cast<unsigned char>(text[i])))
            fn(text.substr(i, j - i));
        i = j;
    }
}

/** Add every identifier token of @p text, as a view into it. */
void
collectIdentifiers(std::string_view text,
                   std::unordered_set<std::string_view> &out)
{
    forEachIdentifier(text, [&](std::string_view tok) { out.insert(tok); });
}

/** @p text with every identifier token in @p to replaced by its image. */
std::string
renameIdentifiers(const std::string &text,
                  const std::map<std::string, std::string, std::less<>> &to)
{
    std::string out;
    std::size_t done = 0;
    forEachIdentifier(text, [&](std::string_view tok) {
        auto it = to.find(tok);
        if (it == to.end())
            return;
        const auto at = std::size_t(tok.data() - text.data());
        out.append(text, done, at - done);
        out += it->second;
        done = at + tok.size();
    });
    out.append(text, done, std::string::npos);
    return out;
}

/**
 * Whether accumulator @p stage runs as slice-parallel phases: it has
 * cells and a reduction dimension to slice, and neither its update nor
 * its target reads the accumulator (such a sweep depends on its order,
 * and stays one serial task).
 */
bool
slicedReduction(const pg::Stage &stage)
{
    const auto &a = stage.accum();
    bool self_ref = false;
    auto scan = [&](const dsl::Expr &e) {
        dsl::forEachNode(e, [&](const dsl::ExprNode &n) {
            if (n.kind() == dsl::ExprKind::Call)
                self_ref |= static_cast<const dsl::CallNode &>(n)
                                .callee->id() == stage.callable->id();
        });
    };
    scan(a.update());
    for (const auto &t : a.targetIndices())
        scan(t);
    return !self_ref && !a.varVars().empty() && !a.redVars().empty();
}

class Generator
{
  public:
    Generator(const pg::PipelineGraph &g,
              const core::GroupingResult &grouping,
              const core::GroupingOptions &gopts,
              const core::StoragePlan &storage,
              const CodegenOptions &opts,
              const core::RangeAnalysis &ranges)
        : g_(g), grouping_(grouping), gopts_(gopts), storage_(storage),
          opts_(opts), ranges_(ranges)
    {}

    GeneratedCode run();

  private:
    //------------------------------------------------------------------
    // Naming
    //------------------------------------------------------------------
    std::string
    claim(std::string want)
    {
        std::string name = want;
        int n = 1;
        while (!used_.insert(name).second)
            name = want + "_" + std::to_string(n++);
        return name;
    }

    const std::string &stageName(int s) { return stageName_.at(s); }

    //------------------------------------------------------------------
    // Emission helpers
    //------------------------------------------------------------------
    void emitPrelude();
    std::vector<PreambleLine> preambleLines();
    std::string groupFunctionName(int gi) const;
    std::string stageFunctionName(int gi, int j) const;
    /**
     * The preamble locals @p body reads, directly or through a kept
     * line (a stride reads its extents), so each function stays as
     * small as its loops.
     */
    std::string trimmedLocals(const std::string &body);
    /**
     * Define the stage function @p name running @p body (rendered one
     * block deep), unless an identical one is already defined, and
     * record its declaration in driver_; returns the call statement
     * the drivers run.  Its arguments are the buffers the body touches
     * (`T *` for @p written, `const T *` for the rest) and the
     * parameters it reads, in order of first use, then @p indices,
     * then the @p scratch pads it touches.  Two functions are
     * identical when their text matches once these arguments, and the
     * locals derived from them (preamble shapes, @p extra origins), are
     * renamed by position: the later stage then calls the first one's
     * function.
     */
    std::string addSharedFunction(const std::string &name,
                                  const std::string &written,
                                  const std::string &body,
                                  const std::vector<StageArg> &indices,
                                  const std::vector<StageArg> &scratch = {},
                                  const std::vector<PreambleLine> &extra = {});
    GroupDriver emitShared(int gi);
    std::string emitGroupFunction(int gi, const GroupDriver &d);
    std::string emitEntryPoints();
    void emitTiledStage(int gi, int s, int j);
    void emitTiledDriver(int gi, const GroupDriver &d);
    void emitUntiledStage(int gi, int s, int j);
    void emitOuterNest(const OuterNest &n);
    void emitAccumulator(int gi, int s);
    void emitSelfRecurrent(int gi, int s);
    void emitSerialPhase(const std::string &call);
    /** Open and close the block of the phase the group function is at. */
    void openPhase();
    void closePhase();

    /**
     * Loop nest emission with bound locals, pragmas, and the body.
     * With @p task_outer, the dimensions up to and including the
     * parallel one (parallelDim) flatten into the task range
     * [pm_lo, pm_hi]; a count query (pm_lo < 0) returns their count.
     * @p hoisted lines (loop-invariant `pm_base*` declarations) are
     * placed right before the innermost loop opens.
     *
     * @p vec_lines, when non-null, is an explicit vector body for the
     * innermost loop: it is split into a main loop advancing by
     * @p vec_lanes running the vector body and a scalar tail running
     * @p body_lines (the caller guarantees step 1, no guards, and that
     * the innermost dimension is not in the task range).  @p classes,
     * when non-null, replaces the innermost loop and the body with an
     * interleaved loop over the quotient named by the innermost
     * dimension's variable (emitInterleavedLoop).
     */
    void emitLoopNest(const std::vector<LoopDim> &dims,
                      const std::vector<std::string> &guards,
                      const std::vector<std::string> &body_lines,
                      bool task_outer,
                      const std::vector<std::string> &hoisted = {},
                      const std::vector<std::string> *vec_lines = nullptr,
                      int vec_lanes = 0,
                      const std::vector<ResidueClass> *classes = nullptr);

    /** Apply one analysed box's bounds and residues to a nest. */
    void applyBox(const poly::CondBox &box, const pg::Stage &stage,
                  const EmitEnv &env, std::vector<LoopDim> &dims,
                  std::vector<std::string> &guards);

    /**
     * Case condition -> the loop nests implementing it.  Normally one
     * nest (bounds folded in, residues strided, leftovers guarded);
     * when residual guards survive and partitioning is on, the
     * condition is split into a union of boxes and each clause becomes
     * its own guard-free nest (dense interior + narrow boundary
     * strips).
     */
    std::vector<CaseNest> caseNests(const pg::Stage &stage,
                                    const dsl::Case &cs,
                                    const EmitEnv &env,
                                    const std::vector<LoopDim> &base_dims);

    /**
     * Emit the loop nests of every case of function stage @p s: hoist
     * sink setup, the per-nest body rendering, and nest-census
     * bookkeeping.  Shared by the untiled and tiled stage emitters.
     * Residue-class siblings (residueUnits) become one interleaved
     * nest.  With @p outline empty the nests go inline into w_ (a tiled
     * stage function); otherwise each nest owns a parallel phase and is
     * split below its parallel dimension (never below the innermost):
     * the dimensions below become the shared function
     * `<outline>_n<m>`, the rest an OuterNest of driver_.
     */
    void emitStageNests(int gi, int s, const EmitEnv &env,
                        const std::vector<std::string> &idx,
                        const std::vector<LoopDim> &base_dims,
                        const std::string &outline);

    /**
     * The interleaved innermost loop over quotient @p q: each class's
     * quotient range, a short peel loop per class below the range all
     * classes share, the shared range running every class body in
     * phase order (under `omp simd` when @p simd), and a remainder
     * loop per class above it.
     */
    void emitInterleavedLoop(const std::string &q,
                             const std::vector<ResidueClass> &classes,
                             bool simd);

    /**
     * Attempt explicit vector emission for one guard-free nest
     * (docs/VECTORIZATION.md).  Must run while the hoist sink is still
     * active so vector loads share the scalar tail's pm_base locals.
     * Returns nullopt whenever the nest or the expression disqualifies
     * itself; the caller then keeps the pragma path.
     */
    std::optional<VecResult>
    tryVectorizeNest(int s, const dsl::Case &cs,
                     const EmitEnv &env, const CaseNest &nest,
                     const std::string &target);

    EmitEnv makeEnv(const std::map<int, std::string> &var_names, int gi);

    /**
     * Vectorising the innermost loop only pays when it is long enough
     * (the paper defers this call to icc's cost model; omp simd is a
     * demand, so we gate it on the estimated extent).
     */
    bool
    innermostVectorizable(const pg::Stage &stage)
    {
        const auto &dom = stage.loopDom();
        if (dom.empty())
            return false;
        auto lo = poly::evalConstant(dom.back().lower(),
                                     g_.estimateEnv());
        auto hi = poly::evalConstant(dom.back().upper(),
                                     g_.estimateEnv());
        if (!lo || !hi)
            return true; // unknown: assume long
        return *hi - *lo + 1 >= 8;
    }

    std::string flatIndexStr(const std::string &strides_base,
                             const std::vector<std::string> &idx);
    std::string fullIndex(int s_or_img, bool is_image,
                          const std::vector<std::string> &idx);
    std::string scratchIndex(int gi, int s,
                             const std::vector<std::string> &idx);

    std::string lenName(const std::string &base, int d);
    std::string strideName(const std::string &base, int d);

    std::string storeTarget(int gi, int s,
                            const std::vector<std::string> &idx);
    /**
     * Declarator of stage @p s's scratchpad array type around @p inner:
     * `float scr_x[N]`, `float (&scr_x)[N]`, `float (*)[N]`.
     */
    std::string scratchArray(int s, const std::string &inner) const;

    /** Scaled ceil/floor division renderers for tile bounds. */
    std::string
    ceilDivStr(const std::string &num, std::int64_t den)
    {
        if (den == 1)
            return num;
        return "(-pm_floordiv(-(" + num + "), " + std::to_string(den) +
               "))";
    }
    std::string
    floorDivStr(const std::string &num, std::int64_t den)
    {
        if (den == 1)
            return num;
        return "pm_floordiv(" + num + ", " + std::to_string(den) + ")";
    }

    //------------------------------------------------------------------
    // State
    //------------------------------------------------------------------
    const pg::PipelineGraph &g_;
    const core::GroupingResult &grouping_;
    const core::GroupingOptions &gopts_;
    const core::StoragePlan &storage_;
    const CodegenOptions &opts_;
    const core::RangeAnalysis &ranges_;

    CodeWriter w_;
    std::set<std::string> used_;
    std::map<int, std::string> stageName_; // stage idx -> unique name
    std::map<int, std::string> imageName_; // image entity id -> name
    std::map<int, std::string> paramName_; // param entity id -> name

    /** Locals every generated function may read (trimmed per function). */
    std::vector<PreambleLine> preamble_;
    bool vec_ = false;   // simd pragmas currently enabled
    int phase_ = 0;      // parallel phase the group function is at
    int tmp_ = 0;        // unique counter for bound locals
    /** Rendering an interleaved residue body: scratchpad tile origins
     * of the innermost index join the hoisted base (scratchIndex). */
    bool interleaving_ = false;
    /** Group whose shared functions are being emitted. */
    GroupDriver *driver_ = nullptr;
    int nestNo_ = 0; // case-nest counter of the untiled stage emitted
    /**
     * Active invariant-hoist collector; flatIndexStr/scratchIndex
     * route their terms through it while a loop body renders.  Null
     * outside function-stage bodies (reductions, bound expressions).
     */
    HoistSink *hoist_ = nullptr;
    int hoistTmp_ = 0; // unique counter for pm_base locals, per function
    int cseTmp_ = 0;   // unique counter for hoistable pm_cse locals
    /** A defined stage function and its signature. */
    struct SharedFunction
    {
        std::string name;
        std::string signature;
    };
    /** Stage functions by their text with arguments renamed by
     * position (addSharedFunction). */
    std::map<std::string, SharedFunction> shared_;
    /** Emitted stage function -> the other stage instances calling it. */
    std::map<std::string, std::vector<std::string>> sharedCallers_;
    /** phase id -> owning group, and whether the phase is one serial
     * task, filled as shared functions emit. */
    std::vector<int> phaseGroup_;
    std::vector<bool> serialPhases_;
    void
    addPhase(int gi, bool serial)
    {
        phaseGroup_.push_back(gi);
        serialPhases_.push_back(serial);
    }
    /** Largest padded per-thread scratch arena emitted. */
    std::int64_t heapArenaBytes_ = 0;
    /** Nest census of the program (GeneratedCode observability). */
    int interiorNests_ = 0;
    int guardedNests_ = 0;
    int partitionedCases_ = 0;
    /** Vector typedefs requested while bodies rendered (prepended to
     * the prelude afterwards). */
    VecTypes vtypes_;
    /** Per-group explicit-vectorisation census of the program. */
    std::map<int, GeneratedCode::GroupVectorInfo> groupVec_;
    int explicitNests_ = 0;
    int interleavedNests_ = 0;
};

std::string
Generator::lenName(const std::string &base, int d)
{
    return "len_" + base + "_" + std::to_string(d);
}

std::string
Generator::strideName(const std::string &base, int d)
{
    return "st_" + base + "_" + std::to_string(d);
}

void
Generator::emitPrelude()
{
    w_.line("// Generated by PolyMage-cpp. Do not edit.");
    w_.line("#include <cstdlib>");
    // Every translation unit parses the prelude, and <cmath> alone
    // would cost about 0.2 s of it (EXPERIMENTS.md "Parallel JIT"), so
    // the expression emitter calls GCC's libm builtins (cexpr.cpp) and
    // declares the transcendentals it calls by name here, with the two
    // constants it names.  glibc's <math.h> declares libmvec's SIMD
    // variants only under -ffast-math; declared `simd` here, the loops
    // calling them vectorise (the JIT links libmvec,
    // docs/VECTORIZATION.md).
    w_.line("#define INFINITY (__builtin_inff())");
    w_.line("#define NAN (__builtin_nanf(\"\"))");
    const std::string simd =
        machine::kSimdLibm && opts_.vectorize != VectorizeMode::Off
            ? " __attribute__((__simd__(\"notinbranch\")))"
            : "";
    w_.open("extern \"C\"");
    for (const char *fn : {"exp", "log", "sin", "cos"}) {
        w_.line("float " + std::string(fn) + "f(float) noexcept" + simd +
                ";");
        w_.line("double " + std::string(fn) + "(double) noexcept" + simd +
                ";");
    }
    w_.line("float powf(float, float) noexcept" + simd + ";");
    w_.line("double pow(double, double) noexcept" + simd + ";");
    w_.close();
    w_.blank();
    w_.line("static inline long long pm_floordiv(long long a, long long "
            "b)");
    w_.open("");
    w_.line("long long q = a / b, r = a % b;");
    w_.line("if (r != 0 && ((r < 0) != (b < 0))) --q;");
    w_.line("return q;");
    w_.close();
    w_.line("static inline long long pm_floormod(long long a, long long "
            "b)");
    w_.open("");
    w_.line("return a - pm_floordiv(a, b) * b;");
    w_.close();
    w_.line("static inline long long pm_min_i(long long a, long long b) "
            "{ return a < b ? a : b; }");
    w_.line("static inline long long pm_max_i(long long a, long long b) "
            "{ return a > b ? a : b; }");
    w_.line("static inline float pm_min_f(float a, float b) "
            "{ return a < b ? a : b; }");
    w_.line("static inline float pm_max_f(float a, float b) "
            "{ return a > b ? a : b; }");
    w_.line("static inline double pm_min_d(double a, double b) "
            "{ return a < b ? a : b; }");
    w_.line("static inline double pm_max_d(double a, double b) "
            "{ return a > b ? a : b; }");
    // One arena per thread and module, defined with the entry points.
    w_.line(kLinkage + " void *pm_task_arena(long long bytes);");
    w_.blank();
}

EmitEnv
Generator::makeEnv(const std::map<int, std::string> &var_names, int gi)
{
    EmitEnv env;
    env.varName = var_names;
    env.paramName = paramName_;
    env.access = [this, gi](const dsl::CallNode &call,
                            const std::vector<std::string> &idx) {
        if (call.callee->kind() == dsl::CallableData::Kind::Image) {
            return fullIndex(call.callee->id(), true, idx);
        }
        const int p = g_.stageIndexOf(call.callee->id());
        PM_ASSERT(p >= 0, "call to unknown stage");
        if (storage_.isScratch(p))
            return scratchIndex(gi, p, idx);
        return fullIndex(p, false, idx);
    };
    return env;
}

std::string
Generator::flatIndexStr(const std::string &strides_base,
                        const std::vector<std::string> &idx)
{
    std::vector<std::string> terms;
    for (std::size_t d = 0; d < idx.size(); ++d) {
        if (d + 1 == idx.size())
            terms.push_back("(" + idx[d] + ")");
        else
            terms.push_back("(long long)(" + idx[d] + ") * " +
                            strideName(strides_base, int(d)));
    }
    return joinHoistedIndex(terms, hoist_);
}

std::string
Generator::fullIndex(int s_or_img, bool is_image,
                     const std::vector<std::string> &idx)
{
    const std::string base = is_image ? imageName_.at(s_or_img)
                                      : "buf_" + stageName(s_or_img);
    const std::string strides_base =
        is_image ? imageName_.at(s_or_img) : stageName(s_or_img);
    return base + "[" + flatIndexStr(strides_base, idx) + "]";
}

std::string
Generator::scratchIndex(int gi, int s, const std::vector<std::string> &idx)
{
    const GroupSchedule &grp = grouping_.groups[gi];
    const StageMapping &m = grp.mapping.at(s);
    const auto &ext = storage_.stages.at(s).scratchExtent;
    const auto tiled = core::tiledDimsFor(grp, g_, gopts_);

    // Row-major strides over the compile-time extents.
    std::vector<std::int64_t> strides(ext.size(), 1);
    for (int d = int(ext.size()) - 2; d >= 0; --d)
        strides[d] = strides[d + 1] * ext[d + 1];

    std::vector<std::string> terms;
    for (std::size_t d = 0; d < idx.size(); ++d) {
        auto pos = std::find(tiled.begin(), tiled.end(), m.groupDim[d]);
        std::string term;
        if (pos != tiled.end()) {
            const std::string ob = "ob_" + stageName(s) + "_" +
                                   std::to_string(int(pos - tiled.begin()));
            if (interleaving_ && d + 1 == idx.size()) {
                // The origin joins the hoisted base, so the innermost
                // (unit-stride) index is affine in the quotient.
                terms.push_back("(" + idx[d] + ")");
                terms.push_back("(-" + ob + ")");
                continue;
            }
            term = "((" + idx[d] + ") - " + ob + ")";
        } else {
            term = "(" + idx[d] + ")";
        }
        if (strides[d] != 1)
            term += " * " + std::to_string(strides[d]);
        terms.push_back(std::move(term));
    }
    return "scr_" + stageName(s) + "[" + joinHoistedIndex(terms, hoist_) +
           "]";
}

std::string
Generator::storeTarget(int gi, int s, const std::vector<std::string> &idx)
{
    if (storage_.isScratch(s))
        return scratchIndex(gi, s, idx);
    return fullIndex(s, false, idx);
}

std::string
Generator::scratchArray(int s, const std::string &inner) const
{
    const core::StageStorage &st = storage_.stages.at(s);
    std::int64_t elems = 1;
    for (std::int64_t e : st.scratchExtent)
        elems *= e;
    const std::string decl =
        std::isalpha(static_cast<unsigned char>(inner[0]))
            ? inner
            : "(" + inner + ")";
    return std::string(dsl::dtypeCName(st.dtype)) + " " + decl + "[" +
           std::to_string(elems) + "]";
}

void
Generator::applyBox(const poly::CondBox &box, const pg::Stage &stage,
                    const EmitEnv &env, std::vector<LoopDim> &dims,
                    std::vector<std::string> &guards)
{
    const auto &vars = stage.loopVars();
    for (std::size_t d = 0; d < vars.size(); ++d) {
        auto it = box.bounds.find(vars[d].id());
        if (it == box.bounds.end())
            continue;
        for (const auto &lo : it->second.lowers) {
            dims[d].lb.push_back(emitAffineInt(lo, paramName_));
            // Refine the extent estimate so a 2-wide boundary strip
            // never becomes the parallel dimension.
            if (dims[d].estExtent >= 0) {
                if (auto v = evalAffineParams(lo, g_.estimateEnv()))
                    dims[d].estLo = std::max(dims[d].estLo, *v);
            }
        }
        for (const auto &hi : it->second.uppers) {
            dims[d].ub.push_back(emitAffineInt(hi, paramName_));
            if (dims[d].estExtent >= 0) {
                if (auto v = evalAffineParams(hi, g_.estimateEnv()))
                    dims[d].estHi = std::min(dims[d].estHi, *v);
            }
        }
        if (dims[d].estExtent >= 0) {
            dims[d].estExtent =
                std::max<std::int64_t>(0,
                                       dims[d].estHi - dims[d].estLo + 1);
        }
    }
    for (const auto &res : box.residual) {
        int var_id = -1;
        std::int64_t step = 1, phase = 0;
        if (matchResidue(res, env.varName, var_id, step, phase)) {
            for (std::size_t d = 0; d < vars.size(); ++d) {
                if (vars[d].id() == var_id && dims[d].step == 1) {
                    dims[d].step = step;
                    dims[d].phase = phase;
                    var_id = -1; // consumed
                    break;
                }
            }
            if (var_id == -1)
                continue;
        }
        guards.push_back(emitCond(res, env));
    }
}

std::optional<VecResult>
Generator::tryVectorizeNest(int s, const dsl::Case &cs,
                            const EmitEnv &env, const CaseNest &nest,
                            const std::string &target)
{
    if (!vec_ || !nest.guards.empty() || nest.dims.empty() ||
        nest.dims.back().step != 1)
        return std::nullopt;

    const pg::Stage &stage = g_.stage(s);
    const auto &vars = stage.loopVars();
    const auto &dom = stage.loopDom();
    if (vars.empty() || vars.size() != nest.dims.size())
        return std::nullopt;

    // Interval evaluator with every loop variable bound to its domain
    // (parameter bounds feed in through ParamRef; anything unbounded
    // only widens, failing proofs conservatively).
    core::ExprRangeEval ev(&ranges_, g_);
    for (std::size_t d = 0; d < vars.size() && d < dom.size(); ++d) {
        const core::ValueInterval lo = ev.eval(dom[d].lower());
        const core::ValueInterval hi = ev.eval(dom[d].upper());
        ev.bindVar(vars[d].id(), {lo.lo, hi.hi, true});
    }

    VecRequest req;
    req.value = cs.value();
    req.declared = stage.func().dtype();
    req.storeType = storage_.elemType(s, g_);
    req.target = target;
    req.env = &env;
    req.innerVarId = vars.back().id();
    req.innerVarName = nest.dims.back().var;
    req.vectorBits = machine::machineInfo().vectorBits;
    req.loadType = [this](const dsl::CallNode &call) {
        if (call.callee->kind() == dsl::CallableData::Kind::Image)
            return call.callee->dtype();
        const int p = g_.stageIndexOf(call.callee->id());
        return storage_.elemType(p, g_);
    };
    req.rangeEval = &ev;
    return tryVectorize(req, vtypes_);
}

std::vector<CaseNest>
Generator::caseNests(const pg::Stage &stage, const dsl::Case &cs,
                     const EmitEnv &env,
                     const std::vector<LoopDim> &base_dims)
{
    std::vector<CaseNest> nests;
    if (!cs.hasCondition()) {
        nests.push_back({base_dims, {}});
        return nests;
    }
    std::set<int> var_ids;
    for (const auto &v : stage.loopVars())
        var_ids.insert(v.id());

    CaseNest single;
    single.dims = base_dims;
    applyBox(poly::analyzeCondition(cs.condition(), var_ids), stage, env,
             single.dims, single.guards);
    if (single.guards.empty()) {
        nests.push_back(std::move(single));
        return nests;
    }

    // Residual guards survived: split the condition into a union of
    // boxes and give each clause its own nest with the clause bounds
    // folded in -- the interior clause becomes the dense guard-free
    // steady-state loop, boundary clauses narrow strips.  Overlapping
    // clauses are safe here because function cases are idempotent pure
    // assignments (accumulators and self-recurrent stages never reach
    // this path).
    auto clauses = poly::analyzeUnion(cs.condition(), var_ids);
    if (clauses && clauses->size() > 1) {
        std::vector<CaseNest> split;
        bool any_clean = false;
        for (const auto &box : *clauses) {
            CaseNest n;
            n.dims = base_dims;
            applyBox(box, stage, env, n.dims, n.guards);
            any_clean |= n.guards.empty();
            split.push_back(std::move(n));
        }
        // Only worth emitting when at least one clause dropped its
        // guard; otherwise the split just duplicates guarded sweeps.
        if (any_clean) {
            ++partitionedCases_;
            return split;
        }
    }
    nests.push_back(std::move(single));
    return nests;
}

void
Generator::emitStageNests(int gi, int s, const EmitEnv &env,
                          const std::vector<std::string> &idx,
                          const std::vector<LoopDim> &base_dims,
                          const std::string &outline)
{
    const pg::Stage &stage = g_.stage(s);
    const auto &f = stage.func();
    const bool untiled = !outline.empty();
    std::vector<const dsl::Case *> cases;
    std::vector<CaseNest> nests;
    for (const auto &cs : f.cases()) {
        for (CaseNest &nest : caseNests(stage, cs, env, base_dims)) {
            cases.push_back(&cs);
            nests.push_back(std::move(nest));
        }
    }
    for (std::vector<std::size_t> &unit : residueUnits(nests)) {
        const CaseNest &nest = nests[unit.front()];
        if (untiled) {
            // Each untiled nest is a function of its own.
            hoistTmp_ = 0;
            cseTmp_ = 0;
        }
        // Render the body with the invariant-hoist sink active: every
        // flat-index prefix not involving the innermost loop variable
        // lands in sink.lines as a pm_base local, declared by
        // emitLoopNest right before the innermost loop opens.
        HoistSink sink;
        HoistSink *saved = hoist_;
        if (!nest.dims.empty()) {
            sink.innerVar = nest.dims.back().var;
            sink.counter = hoistTmp_;
            sink.cseCounter = cseTmp_;
            hoist_ = &sink;
        } else {
            hoist_ = nullptr;
        }
        std::vector<LoopDim> dims = nest.dims;
        std::vector<std::string> body;
        std::optional<VecResult> vres;
        std::vector<ResidueClass> classes;
        if (unit.size() == 1) {
            const std::string target = storeTarget(gi, s, idx);
            body = emitAssignWithCSE(cases[unit[0]]->value(), target,
                                     f.dtype(), env, hoist_);
            // Attempt the explicit vector body while the hoist sink is
            // still active: vector loads route through the same pm_base
            // locals the scalar tail uses.
            vres = tryVectorizeNest(s, *cases[unit[0]], env, nest, target);
        } else {
            // Interleaved residue classes: each body is rendered at
            // y = c*q + p over the quotient q, the innermost variable of
            // the fused loop, in phase order.
            std::sort(unit.begin(), unit.end(), [&](auto a, auto b) {
                return nests[a].dims.back().phase < nests[b].dims.back().phase;
            });
            const dsl::Variable q("q");
            EmitEnv qenv = env;
            qenv.varName[q.id()] = claim("q");
            dims.back().var = sink.innerVar = qenv.varName[q.id()];
            const dsl::Variable &y = f.vars().back();
            interleaving_ = true;
            for (std::size_t i : unit) {
                const LoopDim &dim = nests[i].dims.back();
                std::vector<std::string> qidx = idx;
                qidx.back() = emitExpr(
                    atResidue(y, y.id(), q, dim.step, dim.phase), qenv);
                classes.push_back(
                    {dim, emitAssignWithCSE(
                              atResidue(cases[i]->value(), y.id(), q,
                                        dim.step, dim.phase),
                              storeTarget(gi, s, qidx), f.dtype(), qenv,
                              hoist_)});
            }
            interleaving_ = false;
            used_.erase(dims.back().var);
            ++interleavedNests_;
        }
        hoistTmp_ = std::max(hoistTmp_, sink.counter);
        cseTmp_ = std::max(cseTmp_, sink.cseCounter);
        hoist_ = saved;
        for (std::size_t i : unit) {
            if (nests[i].guards.empty())
                ++interiorNests_;
            else
                ++guardedNests_;
        }
        if (opts_.vectorize == VectorizeMode::Explicit &&
            nest.guards.empty()) {
            GeneratedCode::GroupVectorInfo &gv = groupVec_[gi];
            gv.group = gi;
            gv.interiorNests += int(unit.size());
            if (vres) {
                ++gv.vectorNests;
                ++explicitNests_;
                if (vres->lanes > gv.lanes) {
                    gv.lanes = vres->lanes;
                    gv.elem = vres->elemTag;
                }
            }
        }
        const std::vector<std::string> *vec_lines =
            vres ? &vres->lines : nullptr;
        const int vec_lanes = vres ? vres->lanes : 0;
        const std::vector<ResidueClass> *interleaved =
            classes.empty() ? nullptr : &classes;
        if (!untiled) {
            // Inside a tiled group the driver's tile loop owns the
            // (single) phase.
            emitLoopNest(dims, nest.guards, body, /*task_outer=*/false,
                         sink.lines, vec_lines, vec_lanes, interleaved);
            continue;
        }
        // Untiled nests each own a parallel phase.  The driver walks
        // the dimensions up to the parallel one as its task range, so
        // the dimensions below it run in one shared function taking
        // the outer indices.  That function keeps at least the innermost
        // loop, so it can vectorise: a nest whose only long dimension
        // is the innermost (a border row, a 1-D table) is walked in
        // parallel over its short outer dimensions, or is one serial
        // call when it has none.
        const std::size_t split =
            dims.empty() ? 0
                         : std::min(parallelDim(dims) + 1, dims.size() - 1);
        OuterNest outer;
        outer.dims.assign(dims.begin(), dims.begin() + split);
        const std::vector<LoopDim> inner(dims.begin() + split, dims.end());
        std::vector<StageArg> indices;
        for (const LoopDim &d : outer.dims)
            indices.push_back({"int " + d.var, d.var, d.var});
        w_ = CodeWriter(1);
        tmp_ = 0;
        emitLoopNest(inner, nest.guards, body, /*task_outer=*/false,
                     sink.lines, vec_lines, vec_lanes, interleaved);
        outer.call =
            addSharedFunction(outline + "_n" + std::to_string(nestNo_++),
                              "buf_" + stageName(s), w_.str(), indices);
        addPhase(gi, /*serial=*/outer.dims.empty());
        driver_->nests.push_back(std::move(outer));
    }
}

void
Generator::emitInterleavedLoop(const std::string &q,
                               const std::vector<ResidueClass> &classes,
                               bool simd)
{
    // Class k covers y = c*q + p in [lb, ub]: q in [qlo<k>, qhi<k>].
    std::vector<std::string> qlo, qhi;
    for (const ResidueClass &rc : classes) {
        const std::string k = std::to_string(tmp_++);
        const std::string c = std::to_string(rc.dim.step);
        const std::string p = std::to_string(rc.dim.phase);
        w_.line("const int lb" + k + " = (int)" +
                foldMinMax(rc.dim.lb, "pm_max_i") + ";");
        w_.line("const int ub" + k + " = (int)" +
                foldMinMax(rc.dim.ub, "pm_min_i") + ";");
        w_.line("const int qlo" + k + " = (int)-pm_floordiv(" + p +
                " - lb" + k + ", " + c + ");");
        w_.line("const int qhi" + k + " = (int)pm_floordiv(ub" + k + " - " +
                p + ", " + c + ");");
        qlo.push_back("qlo" + k);
        qhi.push_back("qhi" + k);
    }
    // The range every class shares; empty (hi = lo - 1) when they do
    // not meet, so peel and remainder loops never overlap.
    const std::string k = std::to_string(tmp_++);
    const std::string lo = "qlo" + k, hi = "qhi" + k;
    w_.line("const int " + lo + " = (int)" + foldMinMax(qlo, "pm_max_i") +
            ";");
    w_.line("const int " + hi + " = (int)pm_max_i(" +
            foldMinMax(qhi, "pm_min_i") + ", " + lo + " - 1);");
    // q from `from` to `to`, running the bodies of classes [first, last).
    auto loop = [&](const std::string &from, const std::string &to,
                    std::size_t first, std::size_t last) {
        w_.open("for (int " + q + " = " + from + "; " + q + " <= " + to +
                "; ++" + q + ")");
        for (std::size_t i = first; i < last; ++i)
            for (const std::string &l : classes[i].body)
                w_.line(l);
        w_.close();
    };
    for (std::size_t i = 0; i < classes.size(); ++i)
        loop(qlo[i], "pm_min_i(" + qhi[i] + ", " + lo + " - 1)", i, i + 1);
    if (simd)
        w_.line("#pragma omp simd");
    loop(lo, hi, 0, classes.size());
    for (std::size_t i = 0; i < classes.size(); ++i)
        loop("pm_max_i(" + qlo[i] + ", " + hi + " + 1)", qhi[i], i, i + 1);
}

void
Generator::emitLoopNest(const std::vector<LoopDim> &dims,
                        const std::vector<std::string> &guards,
                        const std::vector<std::string> &body_lines,
                        bool task_outer,
                        const std::vector<std::string> &hoisted,
                        const std::vector<std::string> *vec_lines,
                        int vec_lanes,
                        const std::vector<ResidueClass> *classes)
{
    const std::size_t par_d = parallelDim(dims);

    // Bound locals, then nested loops.
    int opened = 0;
    std::size_t d0 = 0;
    if (task_outer && !dims.empty()) {
        // Task-ABI root: the dimensions up to and including the
        // parallel one flatten into one closed task index; the caller
        // executes [pm_lo, pm_hi] of them.  Every bound here is
        // loop-invariant (function-stage domains are rectangular over
        // the parameters), so the counts resolve before any loop opens.
        std::vector<std::string> starts, counts;
        for (std::size_t d = 0; d <= par_d; ++d) {
            const std::string lb = "lb" + std::to_string(tmp_);
            const std::string ub = "ub" + std::to_string(tmp_);
            w_.line("const int " + lb + " = (int)" +
                    foldMinMax(dims[d].lb, "pm_max_i") + ";");
            w_.line("const int " + ub + " = (int)" +
                    foldMinMax(dims[d].ub, "pm_min_i") + ";");
            std::string start = lb;
            if (dims[d].step > 1) {
                const std::string aligned = lb + "a";
                w_.line("const int " + aligned + " = " + lb +
                        " + (int)pm_floormod(" +
                        std::to_string(dims[d].phase) + " - " + lb +
                        ", " + std::to_string(dims[d].step) + ");");
                start = aligned;
            }
            const std::string cnt = "pm_c" + std::to_string(tmp_);
            w_.line("const long long " + cnt + " = " + ub + " >= " +
                    start + " ? ((long long)(" + ub + " - " + start +
                    ") / " + std::to_string(dims[d].step) +
                    " + 1) : 0;");
            ++tmp_;
            starts.push_back(std::move(start));
            counts.push_back(cnt);
        }
        std::string prod = counts[0];
        for (std::size_t i = 1; i < counts.size(); ++i)
            prod += " * " + counts[i];
        w_.line("const long long pm_n = " + prod + ";");
        w_.line("if (pm_lo < 0) return pm_n;");
        w_.line("const long long pm_te = pm_min_i(pm_hi, pm_n - 1);");
        w_.open("for (long long pm_t = pm_lo; pm_t <= pm_te; ++pm_t)");
        ++opened;
        if (par_d > 0)
            w_.line("long long pm_tr = pm_t;");
        // Decompose the flat index, the parallel dimension fastest so
        // adjacent tasks touch adjacent rows.
        for (std::size_t i = par_d + 1; i-- > 0;) {
            const std::string idx =
                par_d == 0 ? "pm_t"
                           : (i == 0 ? "pm_tr"
                                     : "(pm_tr % " + counts[i] + ")");
            std::string term = "(int)" + idx;
            if (dims[i].step > 1)
                term = "(int)(" + idx + " * " +
                       std::to_string(dims[i].step) + ")";
            w_.line("const int " + dims[i].var + " = " + starts[i] +
                    " + " + term + ";");
            if (par_d > 0 && i != 0)
                w_.line("pm_tr /= " + counts[i] + ";");
        }
        d0 = par_d + 1;
    }
    // No loop left to open (the task range covered every dimension, or
    // the shared function below a parallel innermost dimension): the
    // bases go right before the body.
    if (d0 == dims.size()) {
        for (const auto &l : hoisted)
            w_.line(l);
    }
    for (std::size_t d = d0; d < dims.size(); ++d) {
        // Loop-invariant address bases: declared once per iteration of
        // the enclosing loop, right before the innermost loop opens.
        if (d + 1 == dims.size()) {
            for (const auto &l : hoisted)
                w_.line(l);
            if (classes != nullptr) {
                emitInterleavedLoop(dims[d].var, *classes, vec_);
                break;
            }
        }
        const std::string lb = "lb" + std::to_string(tmp_);
        const std::string ub = "ub" + std::to_string(tmp_);
        ++tmp_;
        w_.line("const int " + lb + " = (int)" +
                foldMinMax(dims[d].lb, "pm_max_i") + ";");
        w_.line("const int " + ub + " = (int)" +
                foldMinMax(dims[d].ub, "pm_min_i") + ";");
        std::string start = lb;
        std::string inc = "++" + dims[d].var;
        if (dims[d].step > 1) {
            // Align the lower bound to the residue class and stride.
            const std::string aligned = lb + "a";
            w_.line("const int " + aligned + " = " + lb +
                    " + (int)pm_floormod(" +
                    std::to_string(dims[d].phase) + " - " + lb + ", " +
                    std::to_string(dims[d].step) + ");");
            start = aligned;
            inc = dims[d].var + " += " + std::to_string(dims[d].step);
        }
        if (d + 1 == dims.size() && vec_lines != nullptr) {
            // Explicit vector split: a main loop advancing by the lane
            // count running the vector body, then a scalar tail.  The
            // extra block scopes the shared induction variable so
            // sibling nests can reuse the claimed name.
            const std::string lanes1 = std::to_string(vec_lanes - 1);
            w_.open("");
            w_.line("int " + dims[d].var + " = " + start + ";");
            w_.open("for (; " + dims[d].var + " + " + lanes1 + " <= " +
                    ub + "; " + dims[d].var + " += " +
                    std::to_string(vec_lanes) + ")");
            for (const auto &l : *vec_lines)
                w_.line(l);
            w_.close();
            w_.open("for (; " + dims[d].var + " <= " + ub + "; ++" +
                    dims[d].var + ")");
            opened += 2; // wrapper block + tail loop
            continue;
        }
        // A nest that kept a residual guard has per-point control flow
        // in its body; keep `omp simd` off it and let the compiler
        // decide (the partitioned interior nests are the ones that
        // must vectorise).  omp simd carries the no-loop-carried-
        // dependence promise the paper expresses with icc's ivdep.
        if (d + 1 == dims.size() && vec_ && guards.empty())
            w_.line("#pragma omp simd");
        w_.open("for (int " + dims[d].var + " = " + start + "; " +
                dims[d].var + " <= " + ub + "; " + inc + ")");
        ++opened;
    }
    int guard_blocks = 0;
    for (const auto &gd : guards) {
        w_.open("if (" + gd + ")");
        ++guard_blocks;
    }
    for (const auto &l : body_lines)
        w_.line(l);
    for (int i = 0; i < guard_blocks; ++i)
        w_.close();
    for (int i = 0; i < opened; ++i)
        w_.close();
}

void
Generator::emitUntiledStage(int gi, int s, int j)
{
    const pg::Stage &stage = g_.stage(s);
    const auto &f = stage.func();
    const auto &vars = f.vars();

    const bool saved_vec = vec_;
    vec_ = vec_ && innermostVectorizable(stage);
    nestNo_ = 0;
    std::map<int, std::string> var_names;
    std::vector<LoopDim> dims(vars.size());
    for (std::size_t d = 0; d < vars.size(); ++d) {
        var_names[vars[d].id()] = claim(sanitize(vars[d].name()));
        dims[d].var = var_names[vars[d].id()];
    }
    EmitEnv env = makeEnv(var_names, gi);
    for (std::size_t d = 0; d < vars.size(); ++d) {
        dims[d].lb.push_back(emitExpr(f.dom()[d].lower(), env));
        dims[d].ub.push_back(emitExpr(f.dom()[d].upper(), env));
        auto lo = poly::evalConstant(f.dom()[d].lower(), g_.estimateEnv());
        auto hi = poly::evalConstant(f.dom()[d].upper(), g_.estimateEnv());
        if (lo && hi) {
            dims[d].estLo = *lo;
            dims[d].estHi = *hi;
            dims[d].estExtent = *hi - *lo + 1;
        }
    }
    std::vector<std::string> idx;
    for (const auto &v : vars)
        idx.push_back(var_names[v.id()]);
    emitStageNests(gi, s, env, idx, dims, stageFunctionName(gi, j));
    // Free the claimed loop-variable names for reuse elsewhere.
    for (const auto &[id, nm] : var_names) {
        (void)id;
        used_.erase(nm);
    }
    vec_ = saved_vec;
}

void
Generator::emitOuterNest(const OuterNest &n)
{
    if (n.dims.empty()) {
        emitSerialPhase(n.call);
        return;
    }
    // Each untiled nest is its own dispatch phase.
    openPhase();
    emitLoopNest(n.dims, {}, {n.call}, /*task_outer=*/true);
    closePhase();
}

void
Generator::openPhase()
{
    // The phase block scopes the phase's task-count locals.
    w_.open("if (pm_phase == " + std::to_string(phase_) + ")");
}

void
Generator::closePhase()
{
    w_.line("return 0;");
    w_.close();
    ++phase_;
}

/** Tile size of each of a group's @p tiled dimensions. */
std::vector<std::int64_t>
tileSizes(std::size_t tiled, const core::GroupingOptions &gopts)
{
    std::vector<std::int64_t> tau;
    for (std::size_t i = 0; i < tiled; ++i)
        tau.push_back(core::tileSizeFor(gopts, int(i)));
    return tau;
}

void
Generator::emitTiledStage(int gi, int s, int j)
{
    const GroupSchedule &grp = grouping_.groups[gi];
    const auto tiled = core::tiledDimsFor(grp, g_, gopts_);
    const std::vector<std::int64_t> tau = tileSizes(tiled.size(), gopts_);
    const pg::Stage &stage = g_.stage(s);
    const auto &f = stage.func();
    const auto &vars = f.vars();
    const StageMapping &m = grp.mapping.at(s);
    const int lvl = grp.localLevel.at(s);

    w_ = CodeWriter(1);
    tmp_ = 0;
    hoistTmp_ = 0;
    cseTmp_ = 0;
    const bool saved_vec = vec_;
    vec_ = vec_ && innermostVectorizable(stage);
    std::map<int, std::string> var_names;
    std::vector<LoopDim> dims(vars.size());
    for (std::size_t d = 0; d < vars.size(); ++d) {
        var_names[vars[d].id()] = claim(sanitize(vars[d].name()));
        dims[d].var = var_names[vars[d].id()];
    }
    EmitEnv env = makeEnv(var_names, gi);
    for (std::size_t d = 0; d < vars.size(); ++d) {
        dims[d].lb.push_back(emitExpr(f.dom()[d].lower(), env));
        dims[d].ub.push_back(emitExpr(f.dom()[d].upper(), env));
        // Tile-region clamps for tiled dims.
        auto pos = std::find(tiled.begin(), tiled.end(), m.groupDim[d]);
        if (pos == tiled.end())
            continue;
        const std::size_t ti = pos - tiled.begin();
        const int gd = tiled[ti];
        const auto &info = grp.dims[gd];
        const std::string t = "T" + std::to_string(ti);
        const std::string tau_ll = std::to_string(tau[ti]) + "LL";
        const std::string lo_raw = "(" + tau_ll + " * " + t + " - " +
                                   std::to_string(info.extLeft[lvl]) + ")";
        const std::string hi_raw =
            "(" + tau_ll + " * " + t + " + " +
            std::to_string(tau[ti] - 1 + info.extRight[lvl]) + ")";
        dims[d].lb.push_back(ceilDivStr(lo_raw, m.scale[d]));
        dims[d].ub.push_back(floorDivStr(hi_raw, m.scale[d]));
    }
    std::vector<std::string> idx;
    for (const auto &v : vars)
        idx.push_back(var_names[v.id()]);
    emitStageNests(gi, s, env, idx, dims, /*outline=*/"");
    for (const auto &[id, nm] : var_names) {
        (void)id;
        used_.erase(nm);
    }
    vec_ = saved_vec;
    const std::string body = w_.str();

    // Scratchpad origins, ceil((tau*T - extLeft[level]) / scale), are
    // locals of the stage function like the preamble's: kept when read.
    std::vector<PreambleLine> origins;
    for (int sp : grp.stages) {
        if (!storage_.isScratch(sp))
            continue;
        const StageMapping &mp = grp.mapping.at(sp);
        const int lp = grp.localLevel.at(sp);
        for (std::size_t ti = 0; ti < tiled.size(); ++ti) {
            for (std::size_t d = 0; d < mp.groupDim.size(); ++d) {
                if (mp.groupDim[d] != tiled[ti])
                    continue;
                const std::string raw =
                    "(" + std::to_string(tau[ti]) + "LL * T" +
                    std::to_string(ti) + " - " +
                    std::to_string(grp.dims[tiled[ti]].extLeft[lp]) + ")";
                const std::string name =
                    "ob_" + stageName(sp) + "_" + std::to_string(ti);
                PreambleLine origin;
                origin.name = name;
                origin.text = "const int " + name + " = (int)" +
                              ceilDivStr(raw, mp.scale[d]) + ";";
                origin.owner = "scr_" + stageName(sp);
                origins.push_back(std::move(origin));
            }
        }
    }

    // Arguments after the buffers and parameters: the tile indices,
    // then the scratchpads, as restrict references to arrays of their
    // fixed size.  The stage then sees them as the distinct, bounded
    // per-thread arrays they are: loads under a select stay
    // unconditional loads that vectorise, as when the arrays were
    // locals of one function.
    std::vector<StageArg> indices, scratch;
    for (std::size_t ti = 0; ti < tiled.size(); ++ti) {
        const std::string t = "T" + std::to_string(ti);
        indices.push_back({"long long " + t, t, t});
    }
    for (int sp : grp.stages) {
        const std::string scr = "scr_" + stageName(sp);
        if (storage_.isScratch(sp))
            scratch.push_back(
                {scratchArray(sp, "&__restrict__ " + scr), scr, scr});
    }
    driver_->calls.push_back(addSharedFunction(
        stageFunctionName(gi, j), "buf_" + stageName(s), body, indices,
        scratch, origins));
}

void
Generator::emitTiledDriver(int gi, const GroupDriver &drv)
{
    const GroupSchedule &grp = grouping_.groups[gi];
    const auto tiled = core::tiledDimsFor(grp, g_, gopts_);
    PM_ASSERT(!tiled.empty(), "tiled group without tiled dims");
    const std::vector<std::int64_t> tau = tileSizes(tiled.size(), gopts_);

    EmitEnv param_env = makeEnv({}, gi);

    // The whole tiled group is one phase whose tasks are the
    // outer-tile (T0) iterations.
    openPhase();

    // Tile index ranges covering every stage's domain in group coords.
    std::vector<std::string> tlo(tiled.size()), thi(tiled.size());
    for (std::size_t ti = 0; ti < tiled.size(); ++ti) {
        const int gd = tiled[ti];
        std::vector<std::string> glo_terms, ghi_terms;
        for (int s : grp.stages) {
            const StageMapping &m = grp.mapping.at(s);
            const auto &dom = g_.stage(s).func().dom();
            for (std::size_t d = 0; d < m.groupDim.size(); ++d) {
                if (m.groupDim[d] != gd)
                    continue;
                const std::string k =
                    m.scale[d] == 1
                        ? ""
                        : std::to_string(m.scale[d]) + "LL * ";
                glo_terms.push_back(
                    "(" + k + "(long long)" +
                    emitExpr(dom[d].lower(), param_env) + ")");
                ghi_terms.push_back(
                    "(" + k + "(long long)" +
                    emitExpr(dom[d].upper(), param_env) + ")");
            }
        }
        const std::string glo = foldMinMax(glo_terms, "pm_min_i");
        const std::string ghi = foldMinMax(ghi_terms, "pm_max_i");
        const std::string t = std::to_string(ti);
        w_.line("const long long tlo" + t + "_g" + std::to_string(gi) +
                " = pm_floordiv(" + glo + ", " + std::to_string(tau[ti]) +
                ");");
        w_.line("const long long thi" + t + "_g" + std::to_string(gi) +
                " = pm_floordiv(" + ghi + ", " + std::to_string(tau[ti]) +
                ");");
        tlo[ti] = "tlo" + t + "_g" + std::to_string(gi);
        thi[ti] = "thi" + t + "_g" + std::to_string(gi);
    }

    // The task count resolves before the arena (if any) is fetched, so
    // count queries stay allocation-free.
    w_.line("const long long pm_n = " + thi[0] + " >= " + tlo[0] + " ? " +
            thi[0] + " - " + tlo[0] + " + 1 : 0;");
    w_.line("if (pm_lo < 0) return pm_n;");

    // Scratchpads: the calling thread's 64-byte-aligned arena, hoisted
    // out of the tile loop and carved into per-stage scratchpads at
    // padded offsets.  Chunk calls are frequent and thread-bound, so
    // the arena persists per thread (pm_task_arena): per-tile work
    // touches only warm, thread-local pages, with no allocator traffic.
    std::int64_t arena_bytes = 0;
    std::vector<std::pair<int, std::int64_t>> arena_off;
    for (int s : grp.stages) {
        if (!storage_.isScratch(s))
            continue;
        arena_off.emplace_back(s, arena_bytes);
        const auto &st = storage_.stages.at(s);
        arena_bytes += (st.scratchBytes + 63) & ~std::int64_t(63);
    }
    if (!arena_off.empty()) {
        const std::string arena = "pm_arena_g" + std::to_string(gi);
        heapArenaBytes_ = std::max(heapArenaBytes_, arena_bytes);
        w_.line("char *" + arena + " = (char *)pm_task_arena(" +
                std::to_string(arena_bytes) + ");");
        for (const auto &[s, off] : arena_off) {
            w_.line(scratchArray(s, "&scr_" + stageName(s)) + " = *(" +
                    scratchArray(s, "*") + ")(" + arena + " + " +
                    std::to_string(off) + ");");
        }
    }

    // Tile loops.
    w_.line("const long long pm_te = pm_min_i(pm_hi, pm_n - 1);");
    w_.open("for (long long pm_t = pm_lo; pm_t <= pm_te; ++pm_t)");
    w_.line("const long long T0 = " + tlo[0] + " + pm_t;");

    for (std::size_t ti = 1; ti < tiled.size(); ++ti) {
        w_.open("for (long long T" + std::to_string(ti) + " = " +
                tlo[ti] + "; T" + std::to_string(ti) + " <= " + thi[ti] +
                "; ++T" + std::to_string(ti) + ")");
    }
    // The stages, in level order.
    for (const std::string &call : drv.calls)
        w_.line(call);
    for (std::size_t ti = 1; ti < tiled.size(); ++ti)
        w_.close();
    w_.close(); // task loop
    closePhase();
}

void
Generator::emitAccumulator(int gi, int s)
{
    const pg::Stage &stage = g_.stage(s);
    const auto &a = stage.accum();
    const std::string ty = dsl::dtypeCName(a.dtype());
    auto combine = [&](const std::string &acc, const std::string &val) {
        switch (a.op()) {
          case dsl::ReduceOp::Sum:
            return "(" + ty + ")(" + acc + " + " + val + ")";
          case dsl::ReduceOp::Product:
            return "(" + ty + ")(" + acc + " * " + val + ")";
          case dsl::ReduceOp::Min:
          case dsl::ReduceOp::Max: {
            const bool mn = a.op() == dsl::ReduceOp::Min;
            std::string fn = mn ? "pm_min" : "pm_max";
            if (a.dtype() == DType::Float)
                fn += "_f";
            else if (a.dtype() == DType::Double)
                fn += "_d";
            else
                fn += "_i";
            return "(" + ty + ")" + fn + "(" + acc + ", " + val + ")";
          }
        }
        internalError("unknown reduce op");
    };
    auto loopDims = [&](const std::vector<dsl::Variable> &vars,
                        const std::vector<dsl::Interval> &dom,
                        std::map<int, std::string> &names) {
        std::vector<LoopDim> dims(vars.size());
        for (std::size_t d = 0; d < vars.size(); ++d) {
            names[vars[d].id()] = claim(sanitize(vars[d].name()));
            dims[d].var = names[vars[d].id()];
        }
        const EmitEnv env = makeEnv(names, gi);
        for (std::size_t d = 0; d < dom.size(); ++d) {
            dims[d].lb.push_back(emitExpr(dom[d].lower(), env));
            dims[d].ub.push_back(emitExpr(dom[d].upper(), env));
            auto lo = poly::evalConstant(dom[d].lower(), g_.estimateEnv());
            auto hi = poly::evalConstant(dom[d].upper(), g_.estimateEnv());
            if (lo && hi)
                dims[d].estExtent = *hi - *lo + 1;
        }
        return dims;
    };

    // The accumulator's cells (the variable domain) and its sweep (the
    // reduction domain).
    std::map<int, std::string> cell_names, red_names;
    const std::vector<LoopDim> cells =
        loopDims(a.varVars(), a.varDom(), cell_names);
    std::vector<LoopDim> red = loopDims(a.redVars(), a.redDom(), red_names);
    const EmitEnv cell_env = makeEnv(cell_names, gi);
    const EmitEnv red_env = makeEnv(red_names, gi);
    std::vector<std::string> cell_idx, red_idx;
    for (const auto &v : a.varVars())
        cell_idx.push_back(cell_names[v.id()]);
    for (const auto &t : a.targetIndices())
        red_idx.push_back(emitExpr(t, red_env));
    std::vector<std::string> guards;
    if (a.guard())
        guards.push_back(emitCond(*a.guard(), red_env));
    const std::string acc = fullIndex(s, false, cell_idx);
    const std::string init =
        "(" + ty + ")(" + emitExpr(a.init(), cell_env) + ")";
    const std::string upd = emitExpr(a.update(), red_env);
    const bool saved_vec = vec_;

    if (!slicedReduction(stage)) {
        // One serial task: an update reading the accumulator depends
        // on the sweep's lexicographic order.
        openPhase();
        w_.line("if (pm_lo < 0) return 1;");
        w_.open("if (pm_lo == 0)");
        w_.line("// init " + a.name());
        emitLoopNest(cells, {}, {acc + " = " + init + ";"},
                     /*task_outer=*/false);
        w_.line("// accumulate " + a.name());
        vec_ = false; // updates may collide on one cell
        const std::string cell = fullIndex(s, false, red_idx);
        emitLoopNest(red, guards, {cell + " = " + combine(cell, upd) + ";"},
                     /*task_outer=*/false);
        vec_ = saved_vec;
        w_.close();
        closePhase();
    } else {
        // Reductions are never fused (paper section 3.5); they are
        // parallelised by privatisation over kReductionSlices slices of
        // the outermost reduction dimension, in three phases.  Partial
        // k of slice k > 0 lives in the invocation's partials slot;
        // slice 0 combines into the accumulator itself.  The slice
        // count and the merge order never depend on the thread count.
        const std::string st = dsl::dtypeCName(storage_.elemType(s, g_));
        const std::string buf = "buf_" + stageName(s);
        std::string ncells;
        for (std::size_t d = 0; d < cells.size(); ++d)
            ncells += (d ? " * " : "") + lenName(stageName(s), int(d));
        // After the count query, so counting reads no slot.
        const std::vector<std::string> locals = {
            st + " *pm_part = (" + st + " *)pm_slots[" +
                std::to_string(storage_.slots.size()) + "];",
            "const long long pm_cells = " + ncells + ";"};
        const std::string flat = flatIndexStr(stageName(s), cell_idx);
        auto partial = [&](int k, const std::string &at) {
            return "pm_part[" + std::to_string(k) + " * pm_cells + " + at +
                   "]";
        };
        // Partials start at the identity; Min and Max start at the
        // initial value, which they absorb and which fits the
        // accumulator's (possibly range-narrowed) storage type.
        const std::string fill =
            a.op() == dsl::ReduceOp::Min || a.op() == dsl::ReduceOp::Max
                ? init
                : emitExpr(dsl::reduceIdentity(a.op(), a.dtype()), cell_env);

        // (a) Initialise the accumulator and the partials, over cells.
        std::vector<std::string> body = {acc + " = " + init + ";"};
        for (int k = 0; k + 1 < kReductionSlices; ++k)
            body.push_back(partial(k, flat) + " = " + fill + ";");
        openPhase();
        w_.line("// init " + a.name());
        emitLoopNest(cells, {}, body, /*task_outer=*/true, locals);
        closePhase();

        // (b) One task per slice of the outermost reduction dimension,
        // at most one slice per point of it.
        openPhase();
        w_.line("// accumulate " + a.name());
        w_.line("const int pm_rlo = (int)" + foldMinMax(red[0].lb, "pm_max_i") +
                ";");
        w_.line("const int pm_rhi = (int)" + foldMinMax(red[0].ub, "pm_min_i") +
                ";");
        w_.line("const long long pm_ext = pm_rhi >= pm_rlo ? (long long)pm_rhi "
                "- pm_rlo + 1 : 0;");
        w_.line("const long long pm_n = pm_min_i(" +
                std::to_string(kReductionSlices) + ", pm_ext);");
        w_.line("if (pm_lo < 0) return pm_n;");
        for (const std::string &l : locals)
            w_.line(l);
        w_.line("const long long pm_te = pm_min_i(pm_hi, pm_n - 1);");
        w_.open("for (long long pm_t = pm_lo; pm_t <= pm_te; ++pm_t)");
        w_.line(st + " *pm_acc = pm_t == 0 ? " + buf +
                " : pm_part + (pm_t - 1) * pm_cells;");
        red[0].lb = {"pm_rlo + (int)(pm_t * pm_ext / pm_n)"};
        red[0].ub = {"pm_rlo + (int)((pm_t + 1) * pm_ext / pm_n) - 1"};
        const std::string cell =
            "pm_acc[" + flatIndexStr(stageName(s), red_idx) + "]";
        vec_ = false; // updates may collide on one cell
        emitLoopNest(red, guards, {cell + " = " + combine(cell, upd) + ";"},
                     /*task_outer=*/false);
        vec_ = saved_vec;
        w_.close();
        closePhase();

        // (c) Merge the partials in slice order, over cells.
        body.clear();
        for (int k = 0; k + 1 < kReductionSlices; ++k)
            body.push_back(acc + " = " + combine(acc, partial(k, flat)) + ";");
        openPhase();
        w_.line("// merge " + a.name());
        emitLoopNest(cells, {}, body, /*task_outer=*/true, locals);
        closePhase();
    }
    for (const auto *names : {&cell_names, &red_names})
        for (const auto &[id, nm] : *names) {
            (void)id;
            used_.erase(nm);
        }
}

void
Generator::emitSelfRecurrent(int gi, int s)
{
    const pg::Stage &stage = g_.stage(s);
    const auto &f = stage.func();
    const auto &vars = f.vars();

    w_ = CodeWriter(1);
    tmp_ = 0;
    std::map<int, std::string> var_names;
    std::vector<LoopDim> dims(vars.size());
    for (std::size_t d = 0; d < vars.size(); ++d) {
        var_names[vars[d].id()] = claim(sanitize(vars[d].name()));
        dims[d].var = var_names[vars[d].id()];
    }
    EmitEnv env = makeEnv(var_names, gi);
    for (std::size_t d = 0; d < vars.size(); ++d) {
        dims[d].lb.push_back(emitExpr(f.dom()[d].lower(), env));
        dims[d].ub.push_back(emitExpr(f.dom()[d].upper(), env));
    }

    // A single sequential nest with an if/else chain keeps the
    // lexicographic evaluation order the recurrence depends on.
    std::vector<std::string> body;
    std::vector<std::string> idx;
    for (const auto &v : vars)
        idx.push_back(var_names[v.id()]);
    const std::string target = fullIndex(s, false, idx);
    bool first = true;
    for (const auto &cs : f.cases()) {
        std::string head;
        if (cs.hasCondition()) {
            head = std::string(first ? "if (" : "else if (") +
                   emitCond(cs.condition(), env) + ")";
        } else {
            head = first ? "" : "else";
        }
        const std::string assign =
            target + " = (" + std::string(dsl::dtypeCName(f.dtype())) +
            ")(" + emitExpr(cs.value(), env) + ");";
        if (head.empty())
            body.push_back(assign);
        else
            body.push_back(head + " { " + assign + " }");
        first = false;
    }
    const bool saved_vec = vec_;
    vec_ = false;
    emitLoopNest(dims, {}, body, /*task_outer=*/false);
    vec_ = saved_vec;
    for (const auto &[id, nm] : var_names) {
        (void)id;
        used_.erase(nm);
    }
    driver_->calls.push_back(addSharedFunction(
        stageFunctionName(gi, 0), "buf_" + stageName(s), w_.str(), {}));
}

void
Generator::emitSerialPhase(const std::string &call)
{
    // One phase, one task: a recurrence's lexicographic order is
    // inherently serial, and an untiled nest with no dimension above
    // its innermost has nothing to split.
    openPhase();
    w_.line("if (pm_lo < 0) return 1;");
    w_.open("if (pm_lo == 0)");
    w_.line(call);
    w_.close();
    closePhase();
}

GroupDriver
Generator::emitShared(int gi)
{
    const GroupSchedule &grp = grouping_.groups[gi];
    GroupDriver d;
    d.firstPhase = int(phaseGroup_.size());
    driver_ = &d;
    vec_ = opts_.vectorize != VectorizeMode::Off;
    if (grp.stages.size() == 1) {
        const int s = grp.stages[0];
        const pg::Stage &stage = g_.stage(s);
        if (stage.isAccumulator()) {
            d.kind = GroupDriver::Kind::Accumulator;
            if (slicedReduction(stage)) {
                for (int p = 0; p < 3; ++p)
                    addPhase(gi, /*serial=*/false);
            } else {
                addPhase(gi, /*serial=*/true);
            }
        } else if (stage.selfRecurrent) {
            d.kind = GroupDriver::Kind::Serial;
            emitSelfRecurrent(gi, s);
            addPhase(gi, /*serial=*/true);
        } else {
            emitUntiledStage(gi, s, 0);
        }
    } else {
        // Stages in level order.
        std::vector<int> order = grp.stages;
        std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
            return grp.localLevel.at(a) < grp.localLevel.at(b);
        });
        const bool tiled =
            gopts_.enable && !core::tiledDimsFor(grp, g_, gopts_).empty();
        if (tiled) {
            d.kind = GroupDriver::Kind::Tiled;
            addPhase(gi, /*serial=*/false);
        }
        // Untiled fallback: per-stage loops in level order.
        for (std::size_t j = 0; j < order.size(); ++j) {
            if (tiled)
                emitTiledStage(gi, order[j], int(j));
            else
                emitUntiledStage(gi, order[j], int(j));
        }
    }
    driver_ = nullptr;
    return d;
}

std::vector<PreambleLine>
Generator::preambleLines()
{
    std::vector<PreambleLine> out;
    auto add = [&](std::string name, std::string text) {
        out.emplace_back();
        out.back().name = std::move(name);
        out.back().text = std::move(text);
    };
    // A parameter or buffer pointer: stage functions take it as an
    // argument the driver passes from @p source, and the entry declares
    // it from the same strings: `const int p = (int)params[3];`,
    // `const float *in = (const float *)inputs[1];`.
    auto add_arg = [&](const std::string &name, PreambleLine::Arg arg,
                       const std::string &type, const std::string &source,
                       bool read_only) {
        const bool param = arg == PreambleLine::Arg::Param;
        const std::string cast =
            param ? type : (read_only ? "const " : "") + type + " *";
        add(name, (param ? "const " + type + " " : cast) + name + " = (" +
                      cast + ")" + source + ";");
        out.back().arg = arg;
        out.back().type = type;
        out.back().source = source;
    };

    // Parameters.
    for (std::size_t i = 0; i < g_.params().size(); ++i) {
        add_arg(paramName_.at(g_.params()[i]->id), PreambleLine::Arg::Param,
                "int", "params[" + std::to_string(i) + "]", true);
    }

    // Extent and row-major stride locals of the buffer @p owner.
    auto add_shape = [&](const std::string &owner, const std::string &base,
                         const std::vector<std::string> &extents) {
        for (std::size_t d = 0; d < extents.size(); ++d) {
            add(lenName(base, int(d)), "const long long " +
                                           lenName(base, int(d)) + " = " +
                                           extents[d] + ";");
            out.back().owner = owner;
        }
        for (int d = int(extents.size()) - 2; d >= 0; --d) {
            std::string prod = lenName(base, d + 1);
            if (d + 2 < int(extents.size()))
                prod += " * " + strideName(base, d + 1);
            add(strideName(base, d),
                "const long long " + strideName(base, d) + " = " + prod +
                    ";");
            out.back().owner = owner;
        }
    };

    // Inputs.
    EmitEnv param_env = makeEnv({}, -1);
    for (std::size_t i = 0; i < g_.images().size(); ++i) {
        const auto &img = *g_.images()[i];
        const std::string name = imageName_.at(img.id());
        const std::string ty = dsl::dtypeCName(img.dtype());
        add_arg(name, PreambleLine::Arg::Buffer, ty,
                "inputs[" + std::to_string(i) + "]", true);
        std::vector<std::string> extents;
        for (const auto &e : img.extents())
            extents.push_back("(long long)" + emitExpr(e, param_env));
        add_shape(name, name, extents);
    }

    // Full buffers: outputs come from the caller; intermediates live
    // in caller-provided allocation slots (the liveness-driven reuse
    // plan -- stages with disjoint live ranges receive the same slot
    // pointer, and the runtime recycles the slots across calls).
    std::map<int, int> output_slot;
    for (std::size_t i = 0; i < g_.outputs().size(); ++i)
        output_slot[g_.outputs()[i]] = int(i);
    for (std::size_t s = 0; s < g_.stages().size(); ++s) {
        if (storage_.isScratch(int(s)))
            continue;
        const pg::Stage &stage = g_.stage(int(s));
        const std::string name = stageName(int(s));
        // The plan's allocation type: range-narrowed for slot
        // intermediates, always the declared type for live-outs
        // (caller-allocated).
        const std::string ty =
            dsl::dtypeCName(storage_.elemType(int(s), g_));
        const auto &dom = stage.isFunction() ? stage.func().dom()
                                             : stage.accum().varDom();
        std::vector<std::string> extents;
        for (const auto &iv : dom)
            extents.push_back("(long long)" +
                              emitExpr(iv.upper(), param_env) + " + 1");
        add_shape("buf_" + name, name, extents);
        auto slot = output_slot.find(int(s));
        const std::string src =
            slot != output_slot.end()
                ? "outputs[" + std::to_string(slot->second) + "]"
                : "pm_slots[" + std::to_string(storage_.slot.at(int(s))) +
                      "]";
        add_arg("buf_" + name, PreambleLine::Arg::Buffer, ty, src, false);
    }
    return out;
}

std::string
Generator::groupFunctionName(int gi) const
{
    return "polymage_" + sanitize(g_.name()) + "_g" + std::to_string(gi);
}

std::string
Generator::stageFunctionName(int gi, int j) const
{
    return "polymage_" + sanitize(g_.name()) + "_g" + std::to_string(gi) +
           "_s" + std::to_string(j);
}

/**
 * The lines of @p lines that @p text reads, directly or through a kept
 * line (later lines read earlier ones, never the reverse), in order.
 */
std::vector<const PreambleLine *>
linesRead(const std::string &text,
          const std::vector<const PreambleLine *> &lines)
{
    std::unordered_set<std::string_view> used;
    collectIdentifiers(text, used);
    std::vector<const PreambleLine *> kept;
    for (std::size_t i = lines.size(); i-- > 0;) {
        if (used.count(lines[i]->name)) {
            kept.push_back(lines[i]);
            collectIdentifiers(lines[i]->text, used);
        }
    }
    std::reverse(kept.begin(), kept.end());
    return kept;
}

std::string
Generator::trimmedLocals(const std::string &body)
{
    std::vector<const PreambleLine *> lines;
    for (const PreambleLine &l : preamble_)
        lines.push_back(&l);
    CodeWriter w(1);
    for (const PreambleLine *l : linesRead(body, lines))
        w.line(l->text);
    w.blank();
    return w.str();
}

std::string
Generator::addSharedFunction(const std::string &name,
                             const std::string &written,
                             const std::string &body,
                             const std::vector<StageArg> &indices,
                             const std::vector<StageArg> &scratch,
                             const std::vector<PreambleLine> &extra)
{
    std::vector<const PreambleLine *> lines;
    for (const PreambleLine &l : preamble_)
        lines.push_back(&l);
    for (const PreambleLine &l : extra)
        lines.push_back(&l);
    const std::vector<const PreambleLine *> kept = linesRead(body, lines);
    std::map<std::string, const PreambleLine *, std::less<>> read;
    for (const PreambleLine *l : kept)
        read[l->name] = l;
    std::map<std::string, const StageArg *, std::less<>> pads;
    for (const StageArg &a : scratch)
        pads[a.name] = &a;

    // Buffers and scratchpads in order of first use in the body, a
    // derived local standing for its owner.
    std::vector<std::string_view> owners;
    forEachIdentifier(body, [&](std::string_view tok) {
        auto it = read.find(tok);
        if (it != read.end() && !it->second->owner.empty())
            tok = it->second->owner;
        else if (!pads.count(tok) &&
                 (it == read.end() ||
                  it->second->arg != PreambleLine::Arg::Buffer))
            return;
        if (std::find(owners.begin(), owners.end(), tok) == owners.end())
            owners.push_back(tok);
    });
    auto rank = [&](const PreambleLine *l) {
        return std::find(owners.begin(), owners.end(), l->owner) -
               owners.begin();
    };

    // Arguments and the locals derived from them, each numbered by
    // position for the sharing key: buffers, then the locals grouped
    // by owner, then the parameters in order of first use, the
    // indices, the scratchpads.
    std::vector<StageArg> args;
    std::map<std::string, std::string, std::less<>> positional;
    auto number = [&](std::string_view n) {
        const std::string pos = "@" + std::to_string(positional.size());
        positional.emplace(n, pos);
    };
    for (std::string_view o : owners) {
        auto it = read.find(o);
        if (it == read.end())
            continue;
        const PreambleLine &b = *it->second;
        const std::string type =
            (b.name == written ? "" : "const ") + b.type + " *";
        number(b.name);
        args.push_back({type + b.name, b.name, "(" + type + ")" + b.source});
    }
    std::vector<const PreambleLine *> locals;
    for (const PreambleLine *l : kept)
        if (l->arg == PreambleLine::Arg::None)
            locals.push_back(l);
    std::stable_sort(locals.begin(), locals.end(),
                     [&](const PreambleLine *a, const PreambleLine *b) {
                         return rank(a) < rank(b);
                     });
    CodeWriter w(1);
    for (const PreambleLine *l : locals) {
        w.line(l->text);
        number(l->name);
    }
    w.blank();
    const std::string text = w.str() + body;
    forEachIdentifier(text, [&](std::string_view tok) {
        auto it = read.find(tok);
        if (it == read.end() || it->second->arg != PreambleLine::Arg::Param ||
            positional.count(it->first))
            return;
        const PreambleLine &p = *it->second;
        number(p.name);
        args.push_back({p.type + " " + p.name, p.name,
                        "(" + p.type + ")" + p.source});
    });
    args.insert(args.end(), indices.begin(), indices.end());
    for (std::string_view o : owners) {
        auto it = pads.find(o);
        if (it != pads.end()) {
            number(o);
            args.push_back(*it->second);
        }
    }

    std::string decls, values;
    for (const StageArg &a : args) {
        decls += (decls.empty() ? "" : ", ") + a.decl;
        values += (values.empty() ? "" : ", ") + a.value;
    }
    const std::string key = renameIdentifiers(
        "(" + decls + ")\n{\n" + text + "}\n", positional);
    auto [it, fresh] = shared_.try_emplace(
        key, SharedFunction{name, kLinkage + " void " + name + "(" +
                                      decls + ")"});
    const SharedFunction &fn = it->second;
    if (fresh) {
        driver_->functions.push_back(fn.signature + "\n{\n" + text +
                                     "}\n\n");
    } else {
        sharedCallers_[fn.name].push_back(name);
    }
    // The function may live in another translation unit.
    const std::string decl = fn.signature + ";\n";
    if (driver_->decls.find(decl) == std::string::npos)
        driver_->decls += decl;
    return fn.name + "(" + values + ");";
}

std::string
Generator::emitGroupFunction(int gi, const GroupDriver &d)
{
    // Only an accumulator's own nests are emitted here; any other
    // task loop's body is a call, with nothing to vectorise.
    vec_ = d.kind == GroupDriver::Kind::Accumulator &&
           opts_.vectorize != VectorizeMode::Off;
    tmp_ = 0;
    hoistTmp_ = 0;
    cseTmp_ = 0;
    phase_ = d.firstPhase;

    const GroupSchedule &grp = grouping_.groups[gi];
    w_ = CodeWriter(1);
    std::string names;
    for (int st : grp.stages)
        names += stageName(st) + " ";
    w_.line("// ---- group " + std::to_string(gi) + ": " + names);
    switch (d.kind) {
    case GroupDriver::Kind::Tiled:
        emitTiledDriver(gi, d);
        break;
    case GroupDriver::Kind::Untiled:
        for (const OuterNest &n : d.nests)
            emitOuterNest(n);
        break;
    case GroupDriver::Kind::Serial:
        emitSerialPhase(d.calls.front());
        break;
    case GroupDriver::Kind::Accumulator:
        emitAccumulator(gi, grp.stages.front());
        break;
    }
    const std::string body = w_.str();

    // The shared functions called may live in other translation units.
    return d.decls + kLinkage + " long long " + groupFunctionName(gi) +
           "(" + kEntryParams + ")\n{\n    (void)pm_hi;\n" +
           trimmedLocals(body) + body + "    return 0;\n}\n\n";
}

std::string
Generator::emitEntryPoints()
{
    CodeWriter w;
    // Group functions may live in other translation units.
    for (std::size_t gi = 0; gi < grouping_.groups.size(); ++gi)
        w.line(kLinkage + " long long " + groupFunctionName(int(gi)) +
               "(" + kEntryParams + ");");
    w.blank();
    // The entry is invoked once per chunk of tiles, so a scratch
    // arena allocated inside the call would be paid on every chunk.
    // Cache it per thread instead: 64-byte aligned so vector accesses
    // never split cache lines, grown monotonically, reused across
    // calls, released at thread exit.  Defined here, once per module,
    // so a thread holds one arena however many units the group
    // functions are spread over.
    w.line("struct PmArena { void *p = nullptr; long long cap = 0; "
           "~PmArena() { std::free(p); } };");
    w.line(kLinkage + " void *pm_task_arena(long long bytes)");
    w.open("");
    w.line("static thread_local PmArena a;");
    w.open("if (a.cap < bytes)");
    w.line("std::free(a.p);");
    w.line("a.cap = (bytes + 63) & ~63LL;");
    w.line("a.p = std::aligned_alloc(64, (unsigned long)a.cap);");
    w.close();
    w.line("return a.p;");
    w.close();
    w.blank();
    w.line("extern \"C\" long long polymage_" + sanitize(g_.name()) + "(" +
           kEntryParams + ")");
    w.open("");
    // Dispatch a phase to the group owning it; a group's phases are
    // contiguous, numbered in group order.
    w.line("if (pm_phase < 0) return " + std::to_string(phaseGroup_.size()) +
           "LL;");
    for (std::size_t p = 0; p < phaseGroup_.size(); ++p) {
        if (p + 1 < phaseGroup_.size() && phaseGroup_[p + 1] == phaseGroup_[p])
            continue;
        w.line("if (pm_phase < " + std::to_string(p + 1) + ") return " +
               groupFunctionName(phaseGroup_[p]) + "(" + kEntryArgs + ");");
    }
    w.line("return 0;");
    w.close();
    w.blank();
    return w.str();
}

GeneratedCode
Generator::run()
{
    // Reserve helper and tile-loop names first so user-visible names
    // (e.g. a parameter called "T1") never shadow them.
    for (const char *n :
         {"params", "inputs", "outputs", "pm_slots", "T0", "T1", "T2",
          "T3", "T4", "T5", "T6", "T7", "pm_phase", "pm_lo", "pm_hi",
          "pm_t", "pm_te", "pm_tr", "pm_n", "pm_part", "pm_cells",
          "pm_acc", "pm_rlo", "pm_rhi", "pm_ext"}) {
        used_.insert(n);
    }
    // Claim global names.
    for (const auto &p : g_.params())
        paramName_[p->id] = claim(sanitize(p->name));
    for (const auto &img : g_.images())
        imageName_[img->id()] = claim("in_" + sanitize(img->name()));
    for (std::size_t s = 0; s < g_.stages().size(); ++s)
        stageName_[int(s)] = claim(sanitize(g_.stage(int(s)).name()));
    preamble_ = preambleLines();

    GeneratedCode out;
    // Group functions first: emitting the shared stage functions
    // records the phase map the entry dispatches on and registers
    // the vector typedefs the prelude must declare.
    for (std::size_t gi = 0; gi < grouping_.groups.size(); ++gi) {
        GroupDriver d = emitShared(int(gi));
        for (std::string &fn : d.functions)
            out.functions.push_back(std::move(fn));
        out.functions.push_back(emitGroupFunction(int(gi), d));
    }
    out.entryPoints = emitEntryPoints();

    w_ = CodeWriter();
    emitPrelude();
    if (!vtypes_.empty()) {
        for (const auto &l : vtypes_.typedefLines())
            w_.line(l);
        w_.blank();
    }
    out.prelude = w_.str();
    out.source = out.translationUnits(1).front();
    out.entry = "polymage_" + sanitize(g_.name());
    out.phaseGroup = phaseGroup_;
    for (std::size_t s = 0; s < g_.stages().size(); ++s)
        if (g_.stage(int(s)).isAccumulator() &&
            slicedReduction(g_.stage(int(s))))
            out.slicedReductions.push_back(int(s));
    out.serialPhases = serialPhases_;
    out.heapArenaBytes = heapArenaBytes_;
    out.interiorNests = interiorNests_;
    out.guardedNests = guardedNests_;
    out.partitionedCases = partitionedCases_;
    out.vectorizeMode = vectorizeModeName(opts_.vectorize);
    if (opts_.vectorize == VectorizeMode::Explicit) {
        out.vectorIsa = machine::machineInfo().isa;
        out.vectorBits = machine::machineInfo().vectorBits;
    }
    out.explicitNests = explicitNests_;
    out.interleavedNests = interleavedNests_;
    out.stageFunctions = int(shared_.size());
    out.sharedCallers = sharedCallers_;
    for (const auto &[gi, gv] : groupVec_)
        out.groupVector.push_back(gv);
    out.narrowedStages = ranges_.narrowedStages(g_);
    return out;
}

} // namespace

const char *
vectorizeModeName(VectorizeMode m)
{
    switch (m) {
    case VectorizeMode::Off: return "off";
    case VectorizeMode::Explicit: return "explicit";
    }
    return "off";
}

std::vector<std::string>
GeneratedCode::translationUnits(int n) const
{
    std::vector<const std::string *> pieces;
    for (const std::string &f : functions)
        pieces.push_back(&f);
    pieces.push_back(&entryPoints);
    n = std::clamp(n, 1, int(pieces.size()));

    // Costliest piece first onto the least loaded unit; every unit gets
    // a piece since n <= pieces.  A piece costs its line count: with
    // each stage's loops in a function of their own no piece is large,
    // and weighting long ones up (lines^1.5) balanced the units no
    // better (EXPERIMENTS.md "Parallel JIT").
    std::vector<std::size_t> cost;
    for (const std::string *p : pieces)
        cost.push_back(std::size_t(std::count(p->begin(), p->end(), '\n')));
    std::vector<std::size_t> order(pieces.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return cost[a] > cost[b];
                     });
    std::vector<std::vector<std::size_t>> members(static_cast<std::size_t>(n));
    std::vector<std::size_t> load(static_cast<std::size_t>(n), 0);
    for (std::size_t i : order) {
        const std::size_t k = std::size_t(
            std::min_element(load.begin(), load.end()) - load.begin());
        members[k].push_back(i);
        load[k] += cost[i];
    }
    // Unit 0 is the one holding the entry points (the last piece).
    for (std::vector<std::size_t> &m : members)
        if (std::count(m.begin(), m.end(), functions.size()))
            std::swap(m, members.front());

    std::vector<std::string> units;
    for (std::vector<std::size_t> &m : members) {
        std::sort(m.begin(), m.end()); // emission order within a unit
        std::string unit = prelude;
        for (std::size_t i : m)
            unit += *pieces[i];
        units.push_back(std::move(unit));
    }
    return units;
}

GeneratedCode
generate(const pg::PipelineGraph &g, const core::GroupingResult &grouping,
         const core::GroupingOptions &gopts,
         const core::StoragePlan &storage, const CodegenOptions &opts,
         const core::RangeAnalysis &ranges)
{
    Generator gen(g, grouping, gopts, storage, opts, ranges);
    return gen.run();
}

} // namespace polymage::cg
