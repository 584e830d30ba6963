#include "pipeline/inline.hpp"

#include <map>
#include <set>

#include "dsl/transform.hpp"
#include "poly/access.hpp"
#include "poly/cond_box.hpp"
#include "poly/range.hpp"
#include "support/diagnostics.hpp"

namespace polymage::pg {

using dsl::AccumData;
using dsl::CallableData;
using dsl::Condition;
using dsl::Expr;
using dsl::FuncData;
using poly::IntRange;
using poly::RangeEnv;

namespace {

std::set<int>
varIdSet(const std::vector<dsl::Variable> &vars)
{
    std::set<int> ids;
    for (const auto &v : vars)
        ids.insert(v.id());
    return ids;
}

/**
 * Producers whose (single-case) body exceeds this node count are not
 * inlined, bounding code growth along point-wise chains.
 */
constexpr int kMaxBodyNodes = 256;

/**
 * Point-wise test: every call argument in the body is either constant
 * or an identity reference to one of the function's variables.
 */
bool
isPointwiseBody(const FuncData &f)
{
    const auto &cs = f.cases()[0];
    if (dsl::countNodes(cs.value()) > kMaxBodyNodes)
        return false;
    if (cs.hasCondition()) {
        // Data-dependent guards defeat guard-coverage analysis.
        bool guard_calls = false;
        dsl::forEachNode(cs.condition(), [&](const dsl::ExprNode &n) {
            guard_calls |= (n.kind() == dsl::ExprKind::Call);
        });
        if (guard_calls)
            return false;
    }
    const std::set<int> vars = varIdSet(f.vars());
    bool ok = true;
    dsl::forEachNode(cs.value(), [&](const dsl::ExprNode &n) {
        // Transcendental bodies are not "minimal redundant
        // computation" (paper §3): a stencil consumer would evaluate
        // exp/log/pow once per tap instead of once per point.
        if (n.kind() == dsl::ExprKind::MathFn) {
            switch (static_cast<const dsl::MathFnNode &>(n).fn) {
              case dsl::MathFnKind::Exp:
              case dsl::MathFnKind::Log:
              case dsl::MathFnKind::Pow:
              case dsl::MathFnKind::Sin:
              case dsl::MathFnKind::Cos:
                ok = false;
                break;
              default:
                break;
            }
        }
        if (n.kind() != dsl::ExprKind::Call)
            return;
        const auto &call = static_cast<const dsl::CallNode &>(n);
        for (const auto &arg : call.args) {
            const poly::AccessDim d = poly::classifyAccessDim(arg, vars);
            const bool identity = d.kind == poly::AccessDim::Kind::Affine &&
                                  d.coeff == 1 && d.rest.isZero();
            if (!identity && !d.isConstant())
                ok = false;
        }
    });
    return ok;
}

/** Variable ranges of a consumer piece (domain refined by condition). */
RangeEnv
pieceEnv(const PipelineGraph &g, const Stage &s, const Condition *cond)
{
    RangeEnv env = g.estimateEnv();
    const auto &vars = s.loopVars();
    const auto &dom = s.loopDom();
    for (std::size_t d = 0; d < vars.size(); ++d) {
        auto lo = poly::evalConstant(dom[d].lower(), env);
        auto hi = poly::evalConstant(dom[d].upper(), env);
        if (lo && hi)
            env.vars[vars[d].id()] = IntRange{*lo, *hi};
    }
    if (cond) {
        poly::CondBox box = poly::analyzeCondition(*cond,
                                                   varIdSet(vars));
        auto binding = [&](int id) {
            auto it = env.params.find(id);
            PM_ASSERT(it != env.params.end(), "missing estimate");
            return Rational(it->second);
        };
        for (const auto &[var, vb] : box.bounds) {
            auto it = env.vars.find(var);
            if (it == env.vars.end())
                continue;
            for (const auto &lo : vb.lowers)
                it->second.lo = std::max(it->second.lo,
                                         lo.eval(binding).ceil());
            for (const auto &hi : vb.uppers)
                it->second.hi = std::min(it->second.hi,
                                         hi.eval(binding).floor());
        }
    }
    return env;
}

/** Guard box of a producer, per dimension, under estimates. */
std::optional<std::vector<IntRange>>
guardBox(const PipelineGraph &g, const FuncData &f)
{
    const auto &cs = f.cases()[0];
    std::vector<IntRange> box(f.vars().size());
    RangeEnv env = g.estimateEnv();
    for (std::size_t d = 0; d < f.vars().size(); ++d) {
        auto lo = poly::evalConstant(f.dom()[d].lower(), env);
        auto hi = poly::evalConstant(f.dom()[d].upper(), env);
        if (!lo || !hi)
            return std::nullopt;
        box[d] = IntRange{*lo, *hi};
    }
    if (!cs.hasCondition())
        return box;
    poly::CondBox cb = poly::analyzeCondition(cs.condition(),
                                              varIdSet(f.vars()));
    if (!cb.residual.empty())
        return std::nullopt;
    auto binding = [&](int id) {
        auto it = env.params.find(id);
        PM_ASSERT(it != env.params.end(), "missing estimate");
        return Rational(it->second);
    };
    for (std::size_t d = 0; d < f.vars().size(); ++d) {
        auto it = cb.bounds.find(f.vars()[d].id());
        if (it == cb.bounds.end())
            continue;
        for (const auto &lo : it->second.lowers)
            box[d].lo = std::max(box[d].lo, lo.eval(binding).ceil());
        for (const auto &hi : it->second.uppers)
            box[d].hi = std::min(box[d].hi, hi.eval(binding).floor());
    }
    return box;
}

/** The inlining rewriter for one consumer piece. */
class PieceRewriter
{
  public:
    PieceRewriter(const PipelineGraph &g,
                  const std::map<int, bool> &candidate,
                  const std::map<int, dsl::CallablePtr> &replacement,
                  const std::map<int, Expr> &inline_body,
                  std::set<std::string> &inlined, RangeEnv env)
        : g_(g), candidate_(candidate), replacement_(replacement),
          inlineBody_(inline_body), inlined_(inlined),
          env_(std::move(env))
    {}

    Expr rewrite(const Expr &e) { return dsl::rewriteExpr(e, fn()); }
    Condition
    rewrite(const Condition &c)
    {
        return dsl::rewriteCondition(c, fn());
    }

  private:
    dsl::RewriteFn
    fn()
    {
        return [this](const dsl::ExprNode &n) -> std::optional<Expr> {
            if (n.kind() != dsl::ExprKind::Call)
                return std::nullopt;
            const auto &call = static_cast<const dsl::CallNode &>(n);
            const int idx = g_.stageIndexOf(call.callee->id());
            if (idx < 0)
                return std::nullopt; // image access
            auto cand = candidate_.find(idx);
            if (cand != candidate_.end() && cand->second &&
                !dataDependentArgs(call) && coversAccess(idx, call)) {
                const Stage &p = g_.stage(idx);
                std::map<int, Expr> subst;
                const auto &vars = p.func().vars();
                for (std::size_t d = 0; d < vars.size(); ++d)
                    subst[vars[d].id()] = call.args[d];
                inlined_.insert(p.name());
                return dsl::substituteVars(inlineBody_.at(idx), subst);
            }
            // Re-target the call at the producer's clone.
            auto repl = replacement_.find(idx);
            PM_ASSERT(repl != replacement_.end(), "producer not cloned");
            return Expr(std::make_shared<dsl::CallNode>(repl->second,
                                                        call.args));
        };
    }

    /**
     * Data-dependent access (an index that itself reads a stage or
     * image): the producer acts as a lookup table and must stay
     * memoised rather than be recomputed per consumer point.
     */
    static bool
    dataDependentArgs(const dsl::CallNode &call)
    {
        for (const auto &arg : call.args) {
            bool has_call = false;
            dsl::forEachNode(arg, [&](const dsl::ExprNode &n) {
                has_call |= (n.kind() == dsl::ExprKind::Call);
            });
            if (has_call)
                return true;
        }
        return false;
    }

    /** Guard coverage: all accessed points satisfy the guard box. */
    bool
    coversAccess(int producer_idx, const dsl::CallNode &call)
    {
        const Stage &p = g_.stage(producer_idx);
        if (!p.func().cases()[0].hasCondition())
            return true;
        auto box = guardBox(g_, p.func());
        if (!box)
            return false;
        for (std::size_t d = 0; d < call.args.size(); ++d) {
            auto r = poly::evalRange(call.args[d], env_);
            if (!r || !(*box)[d].contains(*r))
                return false;
        }
        return true;
    }

    const PipelineGraph &g_;
    const std::map<int, bool> &candidate_;
    const std::map<int, dsl::CallablePtr> &replacement_;
    const std::map<int, Expr> &inlineBody_;
    std::set<std::string> &inlined_;
    RangeEnv env_;
};

} // namespace

InlineResult
inlinePointwise(const dsl::PipelineSpec &spec)
{
    PipelineGraph g = PipelineGraph::build(spec);

    dsl::PipelineSpec out(spec.name());
    for (const auto &p : spec.params())
        out.addParam(p);
    for (const auto &img : spec.inputs())
        out.addInput(img);
    for (const auto &[id, v] : spec.estimates())
        out.estimateById(id, v);

    // Candidate producers (keyed by stage index).
    std::map<int, bool> candidate;
    for (std::size_t i = 0; i < g.stages().size(); ++i) {
        const Stage &s = g.stage(int(i));
        candidate[int(i)] =
            s.isFunction() && !s.liveOut && !s.selfRecurrent &&
            s.func().cases().size() == 1 && isPointwiseBody(s.func());
    }

    std::map<int, dsl::CallablePtr> replacement; // old idx -> clone
    std::map<int, Expr> inline_body;             // old idx -> new body
    std::set<std::string> inlined;

    for (std::size_t i = 0; i < g.stages().size(); ++i) {
        const Stage &s = g.stage(int(i));
        if (s.isFunction()) {
            const FuncData &f = s.func();
            dsl::Function clone(f.name(), f.vars(), f.dom(), f.dtype());
            // Register before rewriting so self-recurrent calls retarget
            // to the clone.
            replacement[int(i)] = clone.data();
            std::vector<dsl::Case> cases;
            for (const auto &cs : f.cases()) {
                const Condition *cond =
                    cs.hasCondition() ? &cs.condition() : nullptr;
                PieceRewriter rw(g, candidate, replacement, inline_body,
                                 inlined, pieceEnv(g, s, cond));
                Expr value = rw.rewrite(cs.value());
                if (cond) {
                    cases.emplace_back(rw.rewrite(*cond), value);
                } else {
                    cases.emplace_back(value);
                }
            }
            clone.define(std::move(cases));
            if (candidate[int(i)])
                inline_body[int(i)] = clone.cases()[0].value();
        } else {
            const AccumData &a = s.accum();
            dsl::Accumulator clone(a.name(), a.varVars(), a.varDom(),
                                   a.redVars(), a.redDom(), a.dtype());
            replacement[int(i)] = clone.data();
            const Condition *guard =
                a.guard() ? &*a.guard() : nullptr;
            PieceRewriter rw(g, candidate, replacement, inline_body,
                             inlined, pieceEnv(g, s, guard));
            std::vector<Expr> target;
            for (const auto &t : a.targetIndices())
                target.push_back(rw.rewrite(t));
            std::optional<Condition> new_guard;
            if (guard)
                new_guard = rw.rewrite(*guard);
            clone.accumulate(std::move(target), rw.rewrite(a.update()),
                             a.op(), rw.rewrite(a.init()),
                             std::move(new_guard));
        }
    }

    for (int out_idx : g.outputs())
        out.addOutput(replacement.at(out_idx));

    InlineResult result{std::move(out), {}};
    result.inlined.assign(inlined.begin(), inlined.end());
    return result;
}

} // namespace polymage::pg
