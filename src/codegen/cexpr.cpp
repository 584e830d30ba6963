#include "codegen/cexpr.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <functional>
#include <set>

#include "support/diagnostics.hpp"

namespace polymage::cg {

using dsl::BinOpKind;
using dsl::DType;
using dsl::Expr;
using dsl::ExprKind;
using dsl::MathFnKind;

namespace {

/** True for element types narrower than int (need explicit wrapping). */
bool
isNarrowInt(DType t)
{
    return t == DType::UChar || t == DType::Short || t == DType::UShort;
}

/** Wrap a rendered expression in a cast to @p t when needed. */
std::string
wrapNarrow(DType t, const std::string &s)
{
    if (isNarrowInt(t))
        return "(" + std::string(dsl::dtypeCName(t)) + ")" + s;
    return s;
}

/**
 * The libm call for @p fn on @p t.  The generated prelude includes no
 * <cmath> (EXPERIMENTS.md "Parallel JIT"): functions that compile to
 * instructions are named by their GCC builtins, which need no
 * declaration, and the transcendentals by their libm names, which the
 * prelude declares (with their SIMD variants where libmvec exists).
 */
std::string
mathFnName(MathFnKind fn, DType t)
{
    const std::string f = t == DType::Float ? "f" : "";
    auto builtin = [&f](const std::string &name) {
        return "__builtin_" + name + f;
    };
    switch (fn) {
      case MathFnKind::Exp: return "exp" + f;
      case MathFnKind::Log: return "log" + f;
      case MathFnKind::Sqrt: return builtin("sqrt");
      case MathFnKind::Sin: return "sin" + f;
      case MathFnKind::Cos: return "cos" + f;
      case MathFnKind::Pow: return "pow" + f;
      case MathFnKind::Floor: return builtin("floor");
      case MathFnKind::Ceil: return builtin("ceil");
      case MathFnKind::Abs:
        return dsl::dtypeIsFloat(t) ? builtin("fabs") : "llabs";
    }
    internalError("unknown math fn");
}

std::string emit(const Expr &e, const EmitEnv &env);

std::string
emitBinOp(const dsl::BinOpNode &b, const EmitEnv &env)
{
    const std::string a = emit(b.a, env);
    const std::string c = emit(b.b, env);
    const DType t = b.dtype();
    const bool flt = dsl::dtypeIsFloat(t);
    switch (b.op) {
      case BinOpKind::Add:
        return wrapNarrow(t, "(" + a + " + " + c + ")");
      case BinOpKind::Sub:
        return wrapNarrow(t, "(" + a + " - " + c + ")");
      case BinOpKind::Mul:
        return wrapNarrow(t, "(" + a + " * " + c + ")");
      case BinOpKind::Div:
        if (flt)
            return "(" + a + " / " + c + ")";
        // DSL integer division is floor division.
        return wrapNarrow(
            t, (t == DType::Long ? "" : "(int)") +
                   ("pm_floordiv((long long)" + a + ", (long long)" + c +
                    ")"));
      case BinOpKind::Mod:
        if (flt) {
            return std::string(t == DType::Float ? "__builtin_fmodf"
                                                 : "__builtin_fmod") +
                   "(" + a + ", " + c + ")";
        }
        return wrapNarrow(
            t, (t == DType::Long ? "" : "(int)") +
                   ("pm_floormod((long long)" + a + ", (long long)" + c +
                    ")"));
      case BinOpKind::Min:
      case BinOpKind::Max: {
        const char *fn = b.op == BinOpKind::Min ? "pm_min" : "pm_max";
        std::string suffix;
        if (t == DType::Float)
            suffix = "_f";
        else if (t == DType::Double)
            suffix = "_d";
        else
            suffix = "_i";
        std::string call =
            std::string(fn) + suffix + "(" + a + ", " + c + ")";
        if (!flt && t != DType::Long)
            call = "(int)" + call;
        return wrapNarrow(t, call);
      }
    }
    internalError("unknown binop");
}

std::string
emit(const Expr &e, const EmitEnv &env)
{
    const dsl::ExprNode &n = e.node();
    if (!env.bound.empty()) {
        auto it = env.bound.find(&n);
        if (it != env.bound.end())
            return it->second;
    }
    switch (n.kind()) {
      case ExprKind::ConstInt: {
        const auto v = static_cast<const dsl::ConstIntNode &>(n).value;
        std::string s = std::to_string(v);
        if (n.dtype() == DType::Long)
            s += "LL";
        return wrapNarrow(n.dtype(), s);
      }
      case ExprKind::ConstFloat:
        return floatLiteral(
            static_cast<const dsl::ConstFloatNode &>(n).value,
            n.dtype());
      case ExprKind::VarRef: {
        const int id = static_cast<const dsl::VarRefNode &>(n).var->id;
        auto it = env.varName.find(id);
        PM_ASSERT(it != env.varName.end(),
                  "unbound variable in code generation");
        return it->second;
      }
      case ExprKind::ParamRef: {
        const int id =
            static_cast<const dsl::ParamRefNode &>(n).param->id;
        auto it = env.paramName.find(id);
        PM_ASSERT(it != env.paramName.end(),
                  "unbound parameter in code generation");
        return it->second;
      }
      case ExprKind::Call: {
        const auto &c = static_cast<const dsl::CallNode &>(n);
        std::vector<std::string> idx;
        idx.reserve(c.args.size());
        for (const auto &a : c.args)
            idx.push_back(emit(a, env));
        PM_ASSERT(env.access, "no access renderer configured");
        return env.access(c, idx);
      }
      case ExprKind::BinOp:
        return emitBinOp(static_cast<const dsl::BinOpNode &>(n), env);
      case ExprKind::UnOp:
        return wrapNarrow(
            n.dtype(),
            "(-" + emit(static_cast<const dsl::UnOpNode &>(n).a, env) +
                ")");
      case ExprKind::Cast: {
        const auto &c = static_cast<const dsl::CastNode &>(n);
        return "(" + std::string(dsl::dtypeCName(n.dtype())) + ")(" +
               emit(c.a, env) + ")";
      }
      case ExprKind::Select: {
        const auto &s = static_cast<const dsl::SelectNode &>(n);
        const std::string t = dsl::dtypeCName(n.dtype());
        return "(" + emitCond(s.cond, env) + " ? (" + t + ")" +
               emit(s.t, env) + " : (" + t + ")" + emit(s.f, env) + ")";
      }
      case ExprKind::MathFn: {
        const auto &m = static_cast<const dsl::MathFnNode &>(n);
        std::string s = mathFnName(m.fn, n.dtype());
        s += "(";
        for (std::size_t i = 0; i < m.args.size(); ++i) {
            if (i)
                s += ", ";
            s += emit(m.args[i], env);
        }
        s += ")";
        if (m.fn == MathFnKind::Abs && !dsl::dtypeIsFloat(n.dtype()) &&
            n.dtype() != DType::Long) {
            s = "(int)" + s;
        }
        return wrapNarrow(n.dtype(), s);
      }
    }
    internalError("unknown expr node");
}

} // namespace

std::string
floatLiteral(double v, DType t)
{
    if (std::isinf(v))
        return v < 0 ? "(-INFINITY)" : "INFINITY";
    if (std::isnan(v))
        return "NAN";
    char buf[64];
    if (t == DType::Float) {
        std::snprintf(buf, sizeof(buf), "%.9gf", v);
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    std::string s(buf);
    // Ensure the literal parses as floating point (e.g. "3" -> "3.0").
    if (s.find('.') == std::string::npos &&
        s.find('e') == std::string::npos &&
        s.find("inf") == std::string::npos &&
        s.find("nan") == std::string::npos) {
        s.insert(t == DType::Float ? s.size() - 1 : s.size(), ".0");
    }
    return s;
}

std::string
emitExpr(const Expr &e, const EmitEnv &env)
{
    return emit(e, env);
}

namespace {

/** Children of a node, conditions included. */
void
forEachChild(const dsl::ExprNode &n,
             const std::function<void(const Expr &)> &fn)
{
    using dsl::ExprKind;
    switch (n.kind()) {
      case ExprKind::ConstInt:
      case ExprKind::ConstFloat:
      case ExprKind::VarRef:
      case ExprKind::ParamRef:
        break;
      case ExprKind::Call:
        for (const auto &a : static_cast<const dsl::CallNode &>(n).args)
            fn(a);
        break;
      case ExprKind::BinOp: {
        const auto &b = static_cast<const dsl::BinOpNode &>(n);
        fn(b.a);
        fn(b.b);
        break;
      }
      case ExprKind::UnOp:
        fn(static_cast<const dsl::UnOpNode &>(n).a);
        break;
      case ExprKind::Cast:
        fn(static_cast<const dsl::CastNode &>(n).a);
        break;
      case ExprKind::Select: {
        const auto &sel = static_cast<const dsl::SelectNode &>(n);
        std::function<void(const dsl::CondNode &)> walk_cond =
            [&](const dsl::CondNode &c) {
                if (c.kind == dsl::CondNode::Kind::Cmp) {
                    fn(c.lhs);
                    fn(c.rhs);
                } else {
                    walk_cond(*c.a);
                    walk_cond(*c.b);
                }
            };
        walk_cond(sel.cond.node());
        fn(sel.t);
        fn(sel.f);
        break;
      }
      case ExprKind::MathFn:
        for (const auto &a :
             static_cast<const dsl::MathFnNode &>(n).args) {
            fn(a);
        }
        break;
    }
}

/** Worth binding into a temporary when referenced multiple times. */
bool
bindable(const dsl::ExprNode &n)
{
    using dsl::ExprKind;
    switch (n.kind()) {
      case ExprKind::Call:
      case ExprKind::BinOp:
      case ExprKind::Select:
      case ExprKind::MathFn:
      case ExprKind::Cast:
        return true;
      default:
        return false;
    }
}

/**
 * True when every `pm_cse` temporary mentioned in @p code was hoisted
 * into @p sink -- none is a body-resident, per-point temporary.
 */
bool
mentionsOnlyInvariantCse(const std::string &code, const HoistSink &sink)
{
    const std::string prefix = "pm_cse";
    for (std::size_t pos = code.find(prefix); pos != std::string::npos;
         pos = code.find(prefix, pos + 1)) {
        if (pos > 0 &&
            (std::isalnum(static_cast<unsigned char>(code[pos - 1])) ||
             code[pos - 1] == '_')) {
            continue; // substring of a longer identifier
        }
        std::size_t end = pos + prefix.size();
        while (end < code.size() &&
               std::isdigit(static_cast<unsigned char>(code[end]))) {
            ++end;
        }
        if (end == pos + prefix.size())
            return false; // malformed; be conservative
        if (!sink.invariantLocals.count(code.substr(pos, end - pos)))
            return false;
    }
    return true;
}

} // namespace

std::vector<std::string>
emitAssignWithCSE(const dsl::Expr &value, const std::string &target,
                  dsl::DType store_type, const EmitEnv &env,
                  HoistSink *sink)
{
    // In-degree count over the shared AST (descend once per node).
    std::map<const dsl::ExprNode *, int> refs;
    std::function<void(const Expr &)> count = [&](const Expr &e) {
        const dsl::ExprNode *n = &e.node();
        if (++refs[n] > 1)
            return;
        forEachChild(*n, count);
    };
    count(value);

    // Emit temporaries in dependency (post) order.
    std::vector<std::string> lines;
    EmitEnv local = env;
    int next_tmp = sink ? sink->cseCounter : 0;
    std::set<const dsl::ExprNode *> visited;
    std::function<void(const Expr &)> lower = [&](const Expr &e) {
        const dsl::ExprNode *n = &e.node();
        if (!visited.insert(n).second)
            return;
        forEachChild(*n, lower);
        if (refs[n] > 1 && bindable(*n)) {
            const std::string name =
                "pm_cse" + std::to_string(next_tmp++);
            const std::string rhs = emitExpr(e, local);
            const std::string decl =
                "const " + std::string(dsl::dtypeCName(n->dtype())) +
                " " + name + " = " + rhs + ";";
            // A temporary that neither reads the innermost loop
            // variable nor a body-resident temporary is the same for
            // every point of the row: declare it once before the
            // innermost loop (e.g. the x/2 source row of an upsample).
            if (sink != nullptr &&
                !mentionsIdentifier(rhs, sink->innerVar) &&
                mentionsOnlyInvariantCse(rhs, *sink)) {
                sink->lines.push_back(decl);
                sink->invariantLocals.insert(name);
            } else {
                lines.push_back(decl);
            }
            local.bound[n] = name;
        }
    };
    lower(value);
    if (sink)
        sink->cseCounter = next_tmp;

    lines.push_back(target + " = (" +
                    std::string(dsl::dtypeCName(store_type)) + ")(" +
                    emitExpr(value, local) + ");");
    return lines;
}

bool
mentionsIdentifier(const std::string &code, const std::string &name)
{
    auto is_ident = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    for (std::size_t pos = code.find(name); pos != std::string::npos;
         pos = code.find(name, pos + 1)) {
        const bool left_ok = pos == 0 || !is_ident(code[pos - 1]);
        const std::size_t end = pos + name.size();
        const bool right_ok = end >= code.size() || !is_ident(code[end]);
        if (left_ok && right_ok)
            return true;
    }
    return false;
}

std::string
joinHoistedIndex(const std::vector<std::string> &terms, HoistSink *sink)
{
    auto join = [](const std::vector<std::string> &ts) {
        std::string s;
        for (std::size_t i = 0; i < ts.size(); ++i)
            s += (i ? " + " : "") + ts[i];
        return s;
    };
    if (sink == nullptr)
        return join(terms);

    std::vector<std::string> invariant, variant;
    for (const auto &t : terms) {
        // Body-resident CSE temporaries are declared per point inside
        // the loop, so any term referencing one must stay inline;
        // temporaries the sink itself hoisted are fair game.
        if (mentionsIdentifier(t, sink->innerVar) ||
            !mentionsOnlyInvariantCse(t, *sink)) {
            variant.push_back(t);
        } else {
            invariant.push_back(t);
        }
    }
    // Only worth a local when it saves a stride multiplication or
    // folds several terms; a bare `(x)` prefix is left alone.
    const bool worthwhile =
        invariant.size() > 1 ||
        (invariant.size() == 1 &&
         invariant[0].find('*') != std::string::npos);
    if (!worthwhile)
        return join(terms);

    const std::string expr = join(invariant);
    auto it = sink->memo.find(expr);
    std::string local;
    if (it != sink->memo.end()) {
        local = it->second;
    } else {
        local = "pm_base" + std::to_string(sink->counter++);
        sink->lines.push_back("const long long " + local + " = " + expr +
                              ";");
        sink->memo.emplace(expr, local);
    }
    if (variant.empty())
        return local;
    return local + " + " + join(variant);
}

std::string
emitCond(const dsl::Condition &c, const EmitEnv &env)
{
    const dsl::CondNode &n = c.node();
    switch (n.kind) {
      case dsl::CondNode::Kind::And:
        return "(" + emitCond(dsl::Condition(n.a), env) + " && " +
               emitCond(dsl::Condition(n.b), env) + ")";
      case dsl::CondNode::Kind::Or:
        return "(" + emitCond(dsl::Condition(n.a), env) + " || " +
               emitCond(dsl::Condition(n.b), env) + ")";
      case dsl::CondNode::Kind::Cmp: {
        const char *op = nullptr;
        switch (n.op) {
          case dsl::CmpOp::LT: op = "<"; break;
          case dsl::CmpOp::LE: op = "<="; break;
          case dsl::CmpOp::GT: op = ">"; break;
          case dsl::CmpOp::GE: op = ">="; break;
          case dsl::CmpOp::EQ: op = "=="; break;
          case dsl::CmpOp::NE: op = "!="; break;
        }
        return "(" + emitExpr(n.lhs, env) + " " + op + " " +
               emitExpr(n.rhs, env) + ")";
      }
    }
    internalError("unknown condition node");
}

} // namespace polymage::cg
