#include "codegen/vexpr.hpp"

#include <algorithm>
#include <cmath>

#include "support/diagnostics.hpp"

namespace polymage::cg {

using core::ValueInterval;
using dsl::DType;
using dsl::Expr;
using dsl::ExprKind;
using dsl::ExprNode;

VElem
velemOf(DType t)
{
    switch (t) {
    case DType::UChar: return {"unsigned char", "u8", 1, false, false};
    case DType::Short: return {"short", "i16", 2, false, true};
    case DType::UShort: return {"unsigned short", "u16", 2, false, false};
    case DType::Int: return {"int", "i32", 4, false, true};
    case DType::Long: return {"long long", "i64", 8, false, true};
    case DType::Float: return {"float", "f32", 4, true, true};
    case DType::Double: return {"double", "f64", 8, true, true};
    }
    return {"int", "i32", 4, false, true};
}

namespace {

/** Signed integer lane type backing a comparison mask of @p size. */
VElem
maskElem(int size)
{
    switch (size) {
    case 1: return {"signed char", "i8", 1, false, true};
    case 2: return velemOf(DType::Short);
    case 8: return velemOf(DType::Long);
    default: return velemOf(DType::Int);
    }
}

bool
mentionsVar(const Expr &e, int id)
{
    bool found = false;
    dsl::forEachNode(e, [&](const ExprNode &n) {
        if (n.kind() == ExprKind::VarRef &&
            static_cast<const dsl::VarRefNode &>(n).var->id == id)
            found = true;
    });
    return found;
}

/**
 * Coefficient of variable @p id in an index expression, following +,
 * -, negation and multiplication by integer literals; nullopt when the
 * variable appears in any non-linear position.  Coefficient 1 is what
 * makes the scalar-rendered access the base of a contiguous vector.
 */
std::optional<std::int64_t>
innerCoeff(const Expr &e, int id)
{
    const ExprNode &n = e.node();
    switch (n.kind()) {
    case ExprKind::VarRef:
        return static_cast<const dsl::VarRefNode &>(n).var->id == id
                   ? 1
                   : 0;
    case ExprKind::BinOp: {
        const auto &b = static_cast<const dsl::BinOpNode &>(n);
        const auto ca = innerCoeff(b.a, id);
        const auto cb = innerCoeff(b.b, id);
        if (!ca || !cb)
            return std::nullopt;
        switch (b.op) {
        case dsl::BinOpKind::Add: return *ca + *cb;
        case dsl::BinOpKind::Sub: return *ca - *cb;
        case dsl::BinOpKind::Mul:
            if (*ca == 0 &&
                b.a.node().kind() == ExprKind::ConstInt) {
                return static_cast<const dsl::ConstIntNode &>(
                           b.a.node())
                           .value *
                       *cb;
            }
            if (*cb == 0 &&
                b.b.node().kind() == ExprKind::ConstInt) {
                return *ca * static_cast<const dsl::ConstIntNode &>(
                                 b.b.node())
                                 .value;
            }
            if (*ca == 0 && *cb == 0)
                return 0;
            return std::nullopt;
        default:
            if (*ca == 0 && *cb == 0)
                return 0;
            return std::nullopt;
        }
    }
    case ExprKind::UnOp: {
        const auto c =
            innerCoeff(static_cast<const dsl::UnOpNode &>(n).a, id);
        if (!c)
            return std::nullopt;
        return -*c;
    }
    default:
        return mentionsVar(e, id) ? std::nullopt
                                  : std::optional<std::int64_t>(0);
    }
}

const char *
cmpOpStr(dsl::CmpOp op)
{
    switch (op) {
    case dsl::CmpOp::LT: return "<";
    case dsl::CmpOp::LE: return "<=";
    case dsl::CmpOp::GT: return ">";
    case dsl::CmpOp::GE: return ">=";
    case dsl::CmpOp::EQ: return "==";
    case dsl::CmpOp::NE: return "!=";
    }
    return "==";
}

class VecEmitter
{
  public:
    VecEmitter(const VecRequest &req, VecTypes &types)
        : req_(req), types_(types)
    {}

    std::optional<VecResult> run();

  private:
    struct Info
    {
        bool mentions = false;
        int refs = 0;
        std::string name; ///< bound local (empty until emitted)
    };

    //------------------------------------------------------------------
    // Analysis
    //------------------------------------------------------------------

    ValueInterval iv(const Expr &e) { return req_.rangeEval->eval(e); }

    void
    hullInt(const ValueInterval &v)
    {
        intHull_ = haveInt_ ? core::ivUnion(intHull_, v) : v;
        haveInt_ = true;
    }

    void noteElem(int size) { maxElem_ = std::max(maxElem_, size); }

    /** Register the contribution of a node to the compute-type pick. */
    void
    noteValue(const Expr &e)
    {
        if (dsl::dtypeIsFloat(e.type()))
            noteElem(velemOf(e.type()).size);
        else
            hullInt(iv(e));
    }

    /** A uniform child of a varying parent gets splatted: its value
     * lands in lanes of its natural type, so it constrains the pick
     * exactly like a varying node. */
    void
    noteSplat(const Expr &e, bool mentions)
    {
        if (!mentions)
            noteValue(e);
    }

    bool scan(const Expr &e);
    bool condMentions(const dsl::CondNode &c) const;
    bool scanCond(const dsl::CondNode &c);

    //------------------------------------------------------------------
    // Emission
    //------------------------------------------------------------------

    /** Natural lane type of a node: its own float type, or the shared
     * narrowed integer compute type. */
    VElem
    ntOf(const Expr &e) const
    {
        return dsl::dtypeIsFloat(e.type()) ? velemOf(e.type())
                                           : velemOf(tint_);
    }

    std::string vt(const VElem &e) { return types_.name(e, lanes_); }

    std::string
    coerce(const std::string &s, const VElem &from, const VElem &to)
    {
        if (std::string(from.tag) == to.tag)
            return s;
        return "__builtin_convertvector(" + s + ", " + vt(to) + ")";
    }

    std::string
    bindLocal(const std::string &expr, const VElem &et)
    {
        if (expr.rfind("pm_vv", 0) == 0)
            return expr; // already a bound lane register
        const std::string nm = "pm_vv" + std::to_string(tmp_++);
        lines_.push_back("const " + vt(et) + " " + nm + " = " + expr +
                         ";");
        return nm;
    }

    /** Broadcast a loop-uniform value into lanes of its natural type. */
    std::string
    splat(const Expr &e)
    {
        const VElem et = ntOf(e);
        return "(" + vt(et) + "{} + (" + std::string(et.cname) + ")" +
               emitExpr(e, *req_.env) + ")";
    }

    std::string emit(const Expr &e);
    std::string emitMask(const dsl::CondNode &c, int size);

    const VecRequest &req_;
    VecTypes &types_;
    std::map<const ExprNode *, Info> info_;

    bool ok_ = true;
    ValueInterval intHull_ = ValueInterval::unknown(true);
    bool haveInt_ = false;
    int maxElem_ = 0;
    DType tint_ = DType::Int;
    int lanes_ = 0;
    std::vector<std::string> lines_;
    int tmp_ = 0;
};

bool
VecEmitter::scan(const Expr &e)
{
    if (!ok_)
        return false;
    const ExprNode &n = e.node();
    if (auto it = info_.find(&n); it != info_.end()) {
        ++it->second.refs;
        return it->second.mentions;
    }
    bool m = false;
    switch (n.kind()) {
    case ExprKind::ConstInt:
    case ExprKind::ConstFloat:
    case ExprKind::ParamRef:
        break;
    case ExprKind::VarRef:
        m = static_cast<const dsl::VarRefNode &>(n).var->id ==
            req_.innerVarId;
        break;
    case ExprKind::Call: {
        const auto &c = static_cast<const dsl::CallNode &>(n);
        for (const auto &a : c.args)
            m |= mentionsVar(a, req_.innerVarId);
        if (m) {
            // Contiguous load: the last (fastest-varying) index must
            // step with the loop, one element per iteration; every
            // other index must be loop-uniform.  Anything else would
            // need a gather.
            if (c.args.empty() || !req_.loadType) {
                ok_ = false;
                break;
            }
            for (std::size_t i = 0; i + 1 < c.args.size(); ++i) {
                if (mentionsVar(c.args[i], req_.innerVarId))
                    ok_ = false;
            }
            const auto co =
                innerCoeff(c.args.back(), req_.innerVarId);
            if (!co || *co != 1)
                ok_ = false;
            if (ok_)
                noteElem(velemOf(req_.loadType(c)).size);
        }
        break;
    }
    case ExprKind::BinOp: {
        const auto &b = static_cast<const dsl::BinOpNode &>(n);
        const bool ma = scan(b.a);
        const bool mb = scan(b.b);
        m = ma || mb;
        if (m && ok_) {
            noteSplat(b.a, ma);
            noteSplat(b.b, mb);
            const ValueInterval x = iv(b.a);
            const ValueInterval y = iv(b.b);
            const bool flt = dsl::dtypeIsFloat(n.dtype());
            ValueInterval ex;
            bool check = false;
            switch (b.op) {
            case dsl::BinOpKind::Add:
                ex = core::ivAdd(x, y);
                check = true;
                break;
            case dsl::BinOpKind::Sub:
                ex = core::ivSub(x, y);
                check = true;
                break;
            case dsl::BinOpKind::Mul:
                ex = core::ivMul(x, y);
                check = true;
                break;
            case dsl::BinOpKind::Div:
            case dsl::BinOpKind::Mod:
                // Vector / and % truncate toward zero; the DSL floors.
                // They agree exactly on non-negative numerators and
                // positive divisors, and the result magnitude never
                // exceeds the operands', so no wrap check is needed.
                if (!flt && (x.lo < 0.0 || y.lo <= 0.0))
                    ok_ = false;
                break;
            case dsl::BinOpKind::Min:
            case dsl::BinOpKind::Max:
                break; // stays within the operands' hull
            }
            // Lockstep lane arithmetic has no C integer promotion: a
            // result that would wrap in the node's C type diverges, so
            // any possible wrap kills the whole nest (widen-on-
            // overflow, never narrow-on-hope).
            if (!flt && check &&
                !core::dtypeInterval(n.dtype()).contains(ex))
                ok_ = false;
        }
        break;
    }
    case ExprKind::UnOp: {
        const auto &u = static_cast<const dsl::UnOpNode &>(n);
        m = scan(u.a);
        if (m && ok_ && !dsl::dtypeIsFloat(n.dtype()) &&
            !core::dtypeInterval(n.dtype())
                 .contains(core::ivNeg(iv(u.a))))
            ok_ = false;
        break;
    }
    case ExprKind::Cast: {
        const auto &c = static_cast<const dsl::CastNode &>(n);
        m = scan(c.a);
        if (m && ok_ && !dsl::dtypeIsFloat(n.dtype())) {
            // Value-preserving casts only: a wrapping narrow would
            // diverge from the scalar semantics lane-wise.
            ValueInterval src = iv(c.a);
            if (dsl::dtypeIsFloat(c.a.type())) {
                if (!src.bounded()) {
                    ok_ = false;
                    break;
                }
                src.lo = std::floor(src.lo);
                src.hi = std::ceil(src.hi);
                src.integral = true;
            }
            if (!core::dtypeInterval(n.dtype()).contains(src))
                ok_ = false;
        }
        break;
    }
    case ExprKind::Select: {
        const auto &s = static_cast<const dsl::SelectNode &>(n);
        const bool mc = scanCond(s.cond.node());
        const bool mt = scan(s.t);
        const bool mf = scan(s.f);
        m = mc || mt || mf;
        if (m && ok_) {
            noteSplat(s.t, mt);
            noteSplat(s.f, mf);
        }
        break;
    }
    case ExprKind::MathFn: {
        const auto &f = static_cast<const dsl::MathFnNode &>(n);
        for (const auto &a : f.args)
            m |= scan(a);
        if (m && f.fn != dsl::MathFnKind::Abs)
            ok_ = false; // transcendentals stay scalar
        break;
    }
    }
    if (m && ok_)
        noteValue(e);
    Info inf;
    inf.mentions = m;
    inf.refs = 1;
    info_.emplace(&n, inf);
    return m;
}

bool
VecEmitter::condMentions(const dsl::CondNode &c) const
{
    if (c.kind == dsl::CondNode::Kind::Cmp) {
        return mentionsVar(c.lhs, req_.innerVarId) ||
               mentionsVar(c.rhs, req_.innerVarId);
    }
    return condMentions(*c.a) || condMentions(*c.b);
}

bool
VecEmitter::scanCond(const dsl::CondNode &c)
{
    if (!condMentions(c))
        return false; // rendered as a scalar condition
    if (c.kind == dsl::CondNode::Kind::Cmp) {
        const bool ml = scan(c.lhs);
        const bool mr = scan(c.rhs);
        noteSplat(c.lhs, ml);
        noteSplat(c.rhs, mr);
        return true;
    }
    // A uniform side of And/Or broadcasts as an all-ones/all-zero mask.
    const bool ma = condMentions(*c.a) ? scanCond(*c.a) : false;
    const bool mb = condMentions(*c.b) ? scanCond(*c.b) : false;
    return ma || mb;
}

std::string
VecEmitter::emitMask(const dsl::CondNode &c, int size)
{
    const VElem me = maskElem(size);
    if (!condMentions(c)) {
        // Loop-uniform subcondition: broadcast the scalar verdict.
        const std::string sc = emitCond(
            dsl::Condition(std::shared_ptr<const dsl::CondNode>(
                &c, [](const dsl::CondNode *) {})),
            *req_.env);
        return "(" + vt(me) + "{} + (" + std::string(me.cname) + ")(" +
               sc + " ? -1 : 0))";
    }
    if (c.kind == dsl::CondNode::Kind::Cmp) {
        // Compare in the promoted lane type of the operands, then
        // reshape the mask to the consumer's lane width.
        const VElem lt = ntOf(c.lhs);
        const VElem rt = ntOf(c.rhs);
        VElem ct;
        if (lt.isFloat || rt.isFloat)
            ct = (lt.isFloat && lt.size == 8) ||
                         (rt.isFloat && rt.size == 8)
                     ? velemOf(DType::Double)
                     : velemOf(DType::Float);
        else
            ct = velemOf(tint_);
        const std::string l = coerce(emit(c.lhs), lt, ct);
        const std::string r = coerce(emit(c.rhs), rt, ct);
        std::string mask =
            "(" + l + " " + cmpOpStr(c.op) + " " + r + ")";
        if (ct.size != size)
            mask = "__builtin_convertvector(" + mask + ", " + vt(me) +
                   ")";
        return mask;
    }
    const char *op = c.kind == dsl::CondNode::Kind::And ? " & " : " | ";
    return "(" + emitMask(*c.a, size) + op + emitMask(*c.b, size) + ")";
}

std::string
VecEmitter::emit(const Expr &e)
{
    const ExprNode &n = e.node();
    Info &inf = info_.at(&n);
    if (!inf.name.empty())
        return inf.name;

    std::string s;
    if (!inf.mentions) {
        s = splat(e);
    } else {
        switch (n.kind()) {
        case ExprKind::VarRef: {
            // The loop variable itself: iota plus broadcast base.
            const VElem et = ntOf(e);
            std::string io = "((" + vt(et) + "){";
            for (int i = 0; i < lanes_; ++i)
                io += (i ? ", " : "") + std::to_string(i);
            io += "}";
            s = io + " + (" + std::string(et.cname) + ")" +
                req_.innerVarName + ")";
            break;
        }
        case ExprKind::Call: {
            const auto &c = static_cast<const dsl::CallNode &>(n);
            std::vector<std::string> idx;
            for (const auto &a : c.args)
                idx.push_back(emitExpr(a, *req_.env));
            const std::string acc = req_.env->access(c, idx);
            const VElem le = velemOf(req_.loadType(c));
            const std::string load =
                "(*(const " + types_.name(le, lanes_, true) + " *)&(" +
                acc + "))";
            s = coerce(load, le, ntOf(e));
            break;
        }
        case ExprKind::BinOp: {
            const auto &b = static_cast<const dsl::BinOpNode &>(n);
            const VElem et = ntOf(e);
            std::string a = coerce(emit(b.a), ntOf(b.a), et);
            std::string bb = coerce(emit(b.b), ntOf(b.b), et);
            switch (b.op) {
            case dsl::BinOpKind::Add: s = "(" + a + " + " + bb + ")"; break;
            case dsl::BinOpKind::Sub: s = "(" + a + " - " + bb + ")"; break;
            case dsl::BinOpKind::Mul: s = "(" + a + " * " + bb + ")"; break;
            case dsl::BinOpKind::Div: s = "(" + a + " / " + bb + ")"; break;
            case dsl::BinOpKind::Mod: s = "(" + a + " % " + bb + ")"; break;
            case dsl::BinOpKind::Min:
            case dsl::BinOpKind::Max: {
                a = bindLocal(a, et);
                bb = bindLocal(bb, et);
                const char *op =
                    b.op == dsl::BinOpKind::Min ? " < " : " > ";
                s = "(" + a + op + bb + " ? " + a + " : " + bb + ")";
                break;
            }
            }
            break;
        }
        case ExprKind::UnOp: {
            const auto &u = static_cast<const dsl::UnOpNode &>(n);
            s = "(-" +
                coerce(emit(u.a), ntOf(u.a), ntOf(e)) + ")";
            break;
        }
        case ExprKind::Cast: {
            const auto &c = static_cast<const dsl::CastNode &>(n);
            s = coerce(emit(c.a), ntOf(c.a), ntOf(e));
            break;
        }
        case ExprKind::Select: {
            const auto &sl = static_cast<const dsl::SelectNode &>(n);
            const VElem et = ntOf(e);
            const std::string t = coerce(emit(sl.t), ntOf(sl.t), et);
            const std::string f = coerce(emit(sl.f), ntOf(sl.f), et);
            if (!condMentions(sl.cond.node())) {
                s = "(" + emitCond(sl.cond, *req_.env) + " ? " + t +
                    " : " + f + ")";
            } else {
                s = "(" + emitMask(sl.cond.node(), et.size) + " ? " +
                    t + " : " + f + ")";
            }
            break;
        }
        case ExprKind::MathFn: {
            const auto &f = static_cast<const dsl::MathFnNode &>(n);
            const VElem et = ntOf(e);
            const std::string a = bindLocal(
                coerce(emit(f.args[0]), ntOf(f.args[0]), et), et);
            if (!et.isSigned) {
                s = a; // |x| == x on unsigned lanes
            } else {
                s = "(" + a + " < (" + std::string(et.cname) +
                    ")0 ? -" + a + " : " + a + ")";
            }
            break;
        }
        default:
            PM_ASSERT(false, "unreachable vector node");
        }
    }
    if (inf.refs > 1) {
        // Shared DAG node: bind once, reuse the lane register.
        if (s.rfind("pm_vv", 0) != 0)
            s = bindLocal(s, ntOf(e));
        inf.name = s;
    }
    return s;
}

std::optional<VecResult>
VecEmitter::run()
{
    if (req_.env == nullptr || req_.rangeEval == nullptr ||
        req_.innerVarId < 0 || !req_.value.defined())
        return std::nullopt;

    const bool m = scan(req_.value);
    if (!ok_ || !m)
        return std::nullopt;

    // One shared integer compute type, wide enough for every integer
    // lane value the expression can produce (the narrowing pick).
    if (haveInt_) {
        tint_ = core::minimalIntType(intHull_, DType::Long);
        const VElem te = velemOf(tint_);
        if (!intHull_.bounded() || te.size > 4)
            return std::nullopt;
        noteElem(te.size);
    }

    // The store must be value-preserving through both the declared
    // cast and the (possibly narrowed) allocation type.
    const bool rootF = dsl::dtypeIsFloat(req_.value.type());
    if (!dsl::dtypeIsFloat(req_.declared)) {
        ValueInterval sv = iv(req_.value);
        if (rootF) {
            if (!sv.bounded())
                return std::nullopt;
            sv.lo = std::trunc(sv.lo);
            sv.hi = std::trunc(sv.hi);
            sv.integral = true;
        }
        if (!core::dtypeInterval(req_.declared).contains(sv) ||
            !core::dtypeInterval(req_.storeType).contains(sv))
            return std::nullopt;
    }
    const VElem se = velemOf(req_.storeType);
    noteElem(se.size);

    if (maxElem_ <= 0)
        return std::nullopt;
    lanes_ = req_.vectorBits / (8 * maxElem_);
    if (lanes_ < 2)
        return std::nullopt;

    const std::string v = emit(req_.value);
    const VElem rt = ntOf(req_.value);
    const std::string sv = coerce(v, rt, se);
    const std::string uvt = types_.name(se, lanes_, true);

    VecResult res;
    lines_.push_back("*(" + uvt + " *)&(" + req_.target + ") = " + sv +
                     ";");
    res.lines = std::move(lines_);
    res.elemTag = rt.tag;
    res.lanes = lanes_;
    return res;
}

} // namespace

std::string
VecTypes::name(const VElem &e, int lanes, bool unaligned)
{
    std::string nm = "pm_v_" + std::string(e.tag) + "x" +
                     std::to_string(lanes);
    if (unaligned)
        nm += "_u";
    used_.emplace(nm, Entry{e, lanes, unaligned});
    return nm;
}

std::vector<std::string>
VecTypes::typedefLines() const
{
    std::vector<std::string> lines;
    for (const auto &[nm, en] : used_) {
        std::string attrs = "vector_size(" +
                            std::to_string(en.elem.size * en.lanes) +
                            ")";
        if (en.unaligned)
            attrs += ", aligned(1)";
        lines.push_back("typedef " + std::string(en.elem.cname) + " " +
                        nm + " __attribute__((" + attrs + "));");
    }
    return lines;
}

std::optional<VecResult>
tryVectorize(const VecRequest &req, VecTypes &types)
{
    VecEmitter em(req, types);
    return em.run();
}

} // namespace polymage::cg
