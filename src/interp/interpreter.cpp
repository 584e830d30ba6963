/**
 * @file
 * Reference interpreter.  Each stage's expressions are lowered once per
 * evaluate() call into a flat, index-linked node array (Program); the
 * per-point loop then walks that array.  Loop variables live in a slot
 * array indexed by their position in the stage's vars() or redVars(),
 * parameters are folded into constants, every call's buffer, shape and
 * dtype are resolved up front, and integer index expressions that are
 * provably affine and int32-safe skip the double carrier entirely.
 *
 * Semantics are those of a direct tree walk over the double carrier:
 * every node's value is coerced to its dtype, operands evaluate left to
 * right, & and | short-circuit, only the taken select branch runs, and
 * a runtime error (out-of-bounds access, case overlap, integer division
 * by zero, a variable outside its domain) is raised when the faulting
 * node is reached, never at lowering time.
 */
#include "interp/interpreter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "poly/range.hpp"
#include "support/diagnostics.hpp"
#include "support/intmath.hpp"

namespace polymage::interp {

using dsl::BinOpKind;
using dsl::DType;
using dsl::Expr;
using dsl::ExprKind;
using dsl::MathFnKind;

namespace {

/** Coerce a value to an element type with C conversion semantics. */
double
coerce(DType t, double v)
{
    switch (t) {
      case DType::UChar:
        return double(
            static_cast<unsigned char>(static_cast<std::int64_t>(v)));
      case DType::Short:
        return double(static_cast<short>(static_cast<std::int64_t>(v)));
      case DType::UShort:
        return double(
            static_cast<unsigned short>(static_cast<std::int64_t>(v)));
      case DType::Int:
        return double(static_cast<int>(static_cast<std::int64_t>(v)));
      case DType::Long:
        return double(static_cast<long long>(v));
      case DType::Float:
        return double(static_cast<float>(v));
      case DType::Double:
        return v;
    }
    internalError("unknown dtype");
}

/** Element @p flat of raw storage of type @p t, as a double. */
double
loadAs(DType t, const void *data, std::int64_t flat)
{
    switch (t) {
      case DType::UChar:
        return static_cast<const unsigned char *>(data)[flat];
      case DType::Short:
        return static_cast<const short *>(data)[flat];
      case DType::UShort:
        return static_cast<const unsigned short *>(data)[flat];
      case DType::Int:
        return static_cast<const int *>(data)[flat];
      case DType::Long:
        return double(static_cast<const long long *>(data)[flat]);
      case DType::Float:
        return static_cast<const float *>(data)[flat];
      case DType::Double:
        return static_cast<const double *>(data)[flat];
    }
    internalError("unknown dtype");
}

/** What the lowering needs to know about the run. */
struct Env
{
    std::map<int, std::int64_t> params;     // param id -> value
    std::map<int, const rt::Buffer *> bufs; // callable id -> buffer
};

/** Node operations.  Lt..Or are conditions, evaluated by test(). */
enum class Op : std::uint8_t {
    Const, Slot, Load, Fail,
    Add, Sub, Mul, Div, Mod, IDiv, IMod, Min, Max,
    Neg, Cast, Select,
    Exp, Log, Sqrt, Sin, Cos, Abs, Pow, Floor, Ceil,
    Lt, Le, Gt, Ge, Eq, Ne, And, Or,
};

/**
 * One lowered node.  a, b, c are operand node indices, except for Slot
 * (a = slot), Load (a = load), Fail (a = message, b = 1 if internal)
 * and Select (a = condition, b = true value, c = false value).
 */
struct Node
{
    Op op;
    DType type; // coerce target of the node's value
    int a = -1, b = -1, c = -1;
    double k = 0.0; // Const value
};

/**
 * Index of one call dimension: llround of node's value (generic path),
 * or, when node < 0, c0 + sum of coef * slot over terms [term0, termEnd)
 * (affine path).
 */
struct Index
{
    int node = -1;
    int term0 = 0, termEnd = 0;
    std::int64_t c0 = 0;
};

struct Term
{
    int slot;
    std::int64_t coef;
};

/**
 * A resolved call: dimension d uses args_, dims_, strides_ and coords_
 * at dim0 + d.
 */
struct Load
{
    const void *data;
    DType type;
    int rank;
    int dim0;
    const dsl::CallableData *callee;
};

/** Integer interval for the affine-index guard. */
struct Range
{
    std::int64_t lo, hi;
};

bool
fitsInt32(Range r)
{
    return r.lo >= std::numeric_limits<std::int32_t>::min() &&
           r.hi <= std::numeric_limits<std::int32_t>::max();
}

/**
 * Affine form c0 + sum coef[slot] * slot, with the range of its value.
 * The value of every accepted node lies in int32, so c0 + sum coef *
 * slot taken modulo 2^64 is exact even when a folded coefficient wraps;
 * c0 and coef therefore use wrapping (uint64) arithmetic.
 */
struct Affine
{
    std::int64_t c0 = 0;
    std::map<int, std::int64_t> coef;
    Range range{0, 0};
};

std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return std::int64_t(std::uint64_t(a) + std::uint64_t(b));
}

/** Multiply @p a by the int32-range factor @p f. */
void
scale(Affine &a, std::int64_t f)
{
    a.c0 = std::int64_t(std::uint64_t(a.c0) * std::uint64_t(f));
    for (auto &[s, k] : a.coef)
        k = std::int64_t(std::uint64_t(k) * std::uint64_t(f));
    const std::int64_t p = a.range.lo * f, q = a.range.hi * f;
    a.range = {std::min(p, q), std::max(p, q)};
}

/**
 * The lowered expressions of one stage, bound to one slot per loop
 * variable.  Lowering never throws a SpecError: a node whose evaluation
 * must fail becomes a Fail node that throws when it is reached.
 */
class Program
{
  public:
    /** Bind @p vars to slots; their loops run over [lo[d], hi[d]]. */
    Program(const Env &env, const std::vector<dsl::Variable> &vars,
            const std::vector<std::int64_t> &lo,
            const std::vector<std::int64_t> &hi)
        : env_(env), slots_(vars.size()), lo_(lo), hi_(hi)
    {
        for (std::size_t d = 0; d < vars.size(); ++d)
            slotOf_[vars[d].id()] = int(d);
    }

    /** Slot of a bound variable (its last position in vars). */
    int slotOf(const dsl::Variable &v) const { return slotOf_.at(v.id()); }

    std::int64_t *slots() { return slots_.data(); }

    int lower(const Expr &e);
    int lower(const dsl::Condition &c);
    Index lowerIndex(const Expr &e);

    double eval(int i);
    bool test(int i);
    std::int64_t index(const Index &ix);

  private:
    int push(const Node &n);
    int fail(bool internal, std::string msg);
    int lowerCall(const dsl::CallNode &call);
    int fold(int mark, int i);
    bool affine(const Expr &e, Affine &out) const;
    double load(const Load &l);

    const Env &env_;
    std::vector<std::int64_t> slots_;
    std::vector<std::int64_t> lo_, hi_;
    std::map<int, int> slotOf_; // var id -> slot

    std::vector<Node> nodes_;
    std::vector<Load> loads_;
    std::vector<std::string> fails_;
    std::vector<Term> terms_;
    std::vector<Index> args_;
    std::vector<std::int64_t> dims_, strides_, coords_;
};

int
Program::push(const Node &n)
{
    nodes_.push_back(n);
    return int(nodes_.size()) - 1;
}

int
Program::fail(bool internal, std::string msg)
{
    fails_.push_back(std::move(msg));
    return push({Op::Fail, DType::Double, int(fails_.size()) - 1,
                 internal ? 1 : 0});
}

/**
 * Replace node @p i by a constant when all its operands are constants
 * and evaluating it does not throw (an integer division by a constant
 * zero stays a node, so it raises only when reached).  Nodes from
 * @p mark on are the operands' subtrees.
 */
int
Program::fold(int mark, int i)
{
    const Node &n = nodes_[std::size_t(i)];
    for (int op : {n.a, n.b}) {
        if (op >= 0 && nodes_[std::size_t(op)].op != Op::Const)
            return i;
    }
    const DType type = n.type;
    double v;
    try {
        v = eval(i);
    } catch (const SpecError &) {
        return i;
    }
    nodes_.resize(std::size_t(mark));
    return push({Op::Const, type, -1, -1, -1, v});
}

int
Program::lower(const dsl::Condition &c)
{
    const dsl::CondNode &n = c.node();
    switch (n.kind) {
      case dsl::CondNode::Kind::And:
      case dsl::CondNode::Kind::Or: {
        const int a = lower(dsl::Condition(n.a));
        const int b = lower(dsl::Condition(n.b));
        return push({n.kind == dsl::CondNode::Kind::And ? Op::And : Op::Or,
                     DType::Int, a, b});
      }
      case dsl::CondNode::Kind::Cmp: {
        const int a = lower(n.lhs);
        const int b = lower(n.rhs);
        Op op = Op::Eq;
        switch (n.op) {
          case dsl::CmpOp::LT: op = Op::Lt; break;
          case dsl::CmpOp::LE: op = Op::Le; break;
          case dsl::CmpOp::GT: op = Op::Gt; break;
          case dsl::CmpOp::GE: op = Op::Ge; break;
          case dsl::CmpOp::EQ: op = Op::Eq; break;
          case dsl::CmpOp::NE: op = Op::Ne; break;
        }
        return push({op, DType::Int, a, b});
      }
    }
    internalError("unknown condition node");
}

int
Program::lowerCall(const dsl::CallNode &call)
{
    auto it = env_.bufs.find(call.callee->id());
    if (it == env_.bufs.end() || it->second == nullptr)
        return fail(true, "stage evaluated before producer");
    const rt::Buffer &buf = *it->second;
    PM_ASSERT(buf.rank() == int(call.args.size()),
              "call rank does not match its buffer");

    // Indices first: lowering them may add calls of their own.
    std::vector<Index> args;
    for (const Expr &arg : call.args)
        args.push_back(lowerIndex(arg));
    const Load l{buf.data(), buf.dtype(), buf.rank(), int(dims_.size()),
                 call.callee.get()};
    args_.insert(args_.end(), args.begin(), args.end());
    dims_.insert(dims_.end(), buf.dims().begin(), buf.dims().end());
    std::int64_t stride = 1;
    strides_.resize(dims_.size());
    for (std::size_t d = dims_.size(); d-- > std::size_t(l.dim0);) {
        strides_[d] = stride;
        stride *= dims_[d];
    }
    coords_.resize(dims_.size());
    loads_.push_back(l);
    return push({Op::Load, call.callee->dtype(), int(loads_.size()) - 1});
}

int
Program::lower(const Expr &e)
{
    const dsl::ExprNode &n = e.node();
    const int mark = int(nodes_.size());
    switch (n.kind()) {
      case ExprKind::ConstInt:
        return push({Op::Const, n.dtype(), -1, -1, -1,
                     coerce(n.dtype(),
                            double(static_cast<const dsl::ConstIntNode &>(n)
                                       .value))});
      case ExprKind::ConstFloat:
        return push(
            {Op::Const, n.dtype(), -1, -1, -1,
             coerce(n.dtype(),
                    static_cast<const dsl::ConstFloatNode &>(n).value)});
      case ExprKind::VarRef: {
        const int id = static_cast<const dsl::VarRefNode &>(n).var->id;
        auto it = slotOf_.find(id);
        if (it == slotOf_.end()) {
            return fail(false, "expression references a variable outside "
                               "its function domain");
        }
        return push({Op::Slot, DType::Int, it->second});
      }
      case ExprKind::ParamRef: {
        const int id =
            static_cast<const dsl::ParamRefNode &>(n).param->id;
        auto it = env_.params.find(id);
        if (it == env_.params.end())
            return fail(true, "unbound parameter");
        // Parameters are not coerced to their dtype.
        return push({Op::Const, n.dtype(), -1, -1, -1, double(it->second)});
      }
      case ExprKind::Call:
        return lowerCall(static_cast<const dsl::CallNode &>(n));
      case ExprKind::BinOp: {
        const auto &b = static_cast<const dsl::BinOpNode &>(n);
        const int x = lower(b.a);
        const int y = lower(b.b);
        const bool integral = !dsl::dtypeIsFloat(b.dtype());
        Op op = Op::Add;
        switch (b.op) {
          case BinOpKind::Add: op = Op::Add; break;
          case BinOpKind::Sub: op = Op::Sub; break;
          case BinOpKind::Mul: op = Op::Mul; break;
          case BinOpKind::Div: op = integral ? Op::IDiv : Op::Div; break;
          case BinOpKind::Mod: op = integral ? Op::IMod : Op::Mod; break;
          case BinOpKind::Min: op = Op::Min; break;
          case BinOpKind::Max: op = Op::Max; break;
        }
        return fold(mark, push({op, n.dtype(), x, y}));
      }
      case ExprKind::UnOp: {
        const int x = lower(static_cast<const dsl::UnOpNode &>(n).a);
        return fold(mark, push({Op::Neg, n.dtype(), x}));
      }
      case ExprKind::Cast: {
        const int x = lower(static_cast<const dsl::CastNode &>(n).a);
        return fold(mark, push({Op::Cast, n.dtype(), x}));
      }
      case ExprKind::Select: {
        const auto &s = static_cast<const dsl::SelectNode &>(n);
        const int c = lower(s.cond);
        const int t = lower(s.t);
        const int f = lower(s.f);
        return push({Op::Select, n.dtype(), c, t, f});
      }
      case ExprKind::MathFn: {
        const auto &m = static_cast<const dsl::MathFnNode &>(n);
        const int x = lower(m.args[0]);
        if (m.fn == MathFnKind::Pow) {
            const int y = lower(m.args[1]);
            return fold(mark, push({Op::Pow, n.dtype(), x, y}));
        }
        Op op = Op::Exp;
        switch (m.fn) {
          case MathFnKind::Exp: op = Op::Exp; break;
          case MathFnKind::Log: op = Op::Log; break;
          case MathFnKind::Sqrt: op = Op::Sqrt; break;
          case MathFnKind::Sin: op = Op::Sin; break;
          case MathFnKind::Cos: op = Op::Cos; break;
          case MathFnKind::Abs: op = Op::Abs; break;
          case MathFnKind::Pow: break;
          case MathFnKind::Floor: op = Op::Floor; break;
          case MathFnKind::Ceil: op = Op::Ceil; break;
        }
        return fold(mark, push({op, n.dtype(), x}));
      }
    }
    internalError("unknown expr node");
}

/**
 * Whether @p e is an affine index the int64 fast path may evaluate:
 * variables, constants and parameters combined by Int-typed +, -, unary
 * - and multiplication by a variable-free factor, with every node's
 * value provably inside int32 over the stage's loop bounds.  Then the
 * double carrier is exact and no coerce wraps, so c0 + sum coef * slot
 * equals the generic path's result.
 */
bool
Program::affine(const Expr &e, Affine &out) const
{
    const dsl::ExprNode &n = e.node();
    switch (n.kind()) {
      case ExprKind::ConstInt: {
        if (dsl::dtypeIsFloat(n.dtype()))
            return false;
        const auto v = std::int64_t(coerce(
            n.dtype(),
            double(static_cast<const dsl::ConstIntNode &>(n).value)));
        out = {v, {}, {v, v}};
        break;
      }
      case ExprKind::ParamRef: {
        auto it = env_.params.find(
            static_cast<const dsl::ParamRefNode &>(n).param->id);
        if (it == env_.params.end())
            return false;
        out = {it->second, {}, {it->second, it->second}};
        break;
      }
      case ExprKind::VarRef: {
        auto it =
            slotOf_.find(static_cast<const dsl::VarRefNode &>(n).var->id);
        if (it == slotOf_.end())
            return false;
        const auto s = std::size_t(it->second);
        if (lo_[s] > hi_[s])
            return false;
        out = {0, {{it->second, 1}}, {lo_[s], hi_[s]}};
        break;
      }
      case ExprKind::UnOp:
        if (n.dtype() != DType::Int ||
            !affine(static_cast<const dsl::UnOpNode &>(n).a, out))
            return false;
        scale(out, -1);
        break;
      case ExprKind::BinOp: {
        const auto &b = static_cast<const dsl::BinOpNode &>(n);
        Affine y;
        if (n.dtype() != DType::Int || !affine(b.a, out) ||
            !affine(b.b, y))
            return false;
        // Operand ranges lie in int32, so range arithmetic never
        // overflows int64.
        if (b.op == BinOpKind::Mul) {
            if (!out.coef.empty() && !y.coef.empty())
                return false;
            if (y.coef.empty()) {
                scale(out, y.c0);
            } else {
                scale(y, out.c0);
                out = std::move(y);
            }
            break;
        }
        if (b.op == BinOpKind::Sub)
            scale(y, -1);
        else if (b.op != BinOpKind::Add)
            return false;
        out.c0 = wrapAdd(out.c0, y.c0);
        for (const auto &[s, k] : y.coef)
            out.coef[s] = wrapAdd(out.coef[s], k);
        out.range = {out.range.lo + y.range.lo, out.range.hi + y.range.hi};
        break;
      }
      default:
        return false;
    }
    return fitsInt32(out.range);
}

Index
Program::lowerIndex(const Expr &e)
{
    Index ix;
    Affine a;
    if (affine(e, a)) {
        ix.c0 = a.c0;
        ix.term0 = int(terms_.size());
        for (const auto &[s, k] : a.coef) {
            if (k != 0)
                terms_.push_back({s, k});
        }
        ix.termEnd = int(terms_.size());
    } else {
        ix.node = lower(e);
    }
    return ix;
}

std::int64_t
Program::index(const Index &ix)
{
    if (ix.node >= 0) {
        // Index expressions are integer-typed; their double carrier is
        // exact, so rounding recovers the integer.
        return std::llround(eval(ix.node));
    }
    std::uint64_t v = std::uint64_t(ix.c0);
    for (int t = ix.term0; t < ix.termEnd; ++t) {
        const Term &term = terms_[std::size_t(t)];
        v += std::uint64_t(term.coef) *
             std::uint64_t(slots_[std::size_t(term.slot)]);
    }
    return std::int64_t(v);
}

double
Program::load(const Load &l)
{
    const std::size_t d0 = std::size_t(l.dim0);
    std::int64_t *coords = coords_.data() + d0;
    for (int d = 0; d < l.rank; ++d)
        coords[d] = index(args_[d0 + std::size_t(d)]);
    std::int64_t flat = 0;
    for (int d = 0; d < l.rank; ++d) {
        if (coords[d] < 0 || coords[d] >= dims_[d0 + std::size_t(d)]) {
            std::string pos;
            for (int e = 0; e < l.rank; ++e)
                pos += (e ? ", " : "") + std::to_string(coords[e]);
            specError("runtime out-of-bounds access to '",
                      l.callee->name(), "' at (", pos, ")");
        }
        flat += coords[d] * strides_[d0 + std::size_t(d)];
    }
    return loadAs(l.type, l.data, flat);
}

bool
Program::test(int i)
{
    const Node &n = nodes_[std::size_t(i)];
    switch (n.op) {
      case Op::And: return test(n.a) && test(n.b);
      case Op::Or: return test(n.a) || test(n.b);
      default: break;
    }
    const double x = eval(n.a);
    const double y = eval(n.b);
    switch (n.op) {
      case Op::Lt: return x < y;
      case Op::Le: return x <= y;
      case Op::Gt: return x > y;
      case Op::Ge: return x >= y;
      case Op::Eq: return x == y;
      case Op::Ne: return x != y;
      default: break;
    }
    internalError("unknown condition node");
}

double
Program::eval(int i)
{
    const Node &n = nodes_[std::size_t(i)];
    switch (n.op) {
      case Op::Const: return n.k;
      case Op::Slot: return double(slots_[std::size_t(n.a)]);
      case Op::Load: return load(loads_[std::size_t(n.a)]);
      case Op::Fail:
        if (n.b != 0)
            internalError(fails_[std::size_t(n.a)]);
        else
            specError(fails_[std::size_t(n.a)]);
      case Op::Neg: return coerce(n.type, -eval(n.a));
      case Op::Cast: return coerce(n.type, eval(n.a));
      case Op::Select:
        return coerce(n.type, test(n.a) ? eval(n.b) : eval(n.c));
      case Op::Exp: return coerce(n.type, std::exp(eval(n.a)));
      case Op::Log: return coerce(n.type, std::log(eval(n.a)));
      case Op::Sqrt: return coerce(n.type, std::sqrt(eval(n.a)));
      case Op::Sin: return coerce(n.type, std::sin(eval(n.a)));
      case Op::Cos: return coerce(n.type, std::cos(eval(n.a)));
      case Op::Abs: return coerce(n.type, std::abs(eval(n.a)));
      case Op::Floor: return coerce(n.type, std::floor(eval(n.a)));
      case Op::Ceil: return coerce(n.type, std::ceil(eval(n.a)));
      default: break;
    }
    // Binary: operands left to right.
    const double x = eval(n.a);
    const double y = eval(n.b);
    double v;
    switch (n.op) {
      case Op::Add: v = x + y; break;
      case Op::Sub: v = x - y; break;
      case Op::Mul: v = x * y; break;
      case Op::Div: v = x / y; break;
      case Op::Mod: v = std::fmod(x, y); break;
      case Op::IDiv: {
        const auto yi = std::int64_t(y);
        if (yi == 0)
            specError("integer division by zero in pipeline");
        v = double(floorDiv(std::int64_t(x), yi));
        break;
      }
      case Op::IMod: {
        const auto yi = std::int64_t(y);
        if (yi == 0)
            specError("integer modulo by zero in pipeline");
        v = double(floorMod(std::int64_t(x), yi));
        break;
      }
      case Op::Min: v = std::min(x, y); break;
      case Op::Max: v = std::max(x, y); break;
      case Op::Pow: v = std::pow(x, y); break;
      default: internalError("unknown expr node");
    }
    return coerce(n.type, v);
}

/** Evaluate a parameter-only expression to an integer. */
std::int64_t
evalParamExpr(const Expr &e, const std::map<int, std::int64_t> &params,
              const char *what)
{
    poly::RangeEnv env;
    env.params = params;
    auto v = poly::evalConstant(e, env);
    if (!v) {
        specError(what, " '", dsl::toString(e),
                  "' is not an integer expression of parameters");
    }
    return *v;
}

/**
 * Run nested loops over [lo[d], hi[d]], outermost first, holding the
 * current point in @p slot, and call body at each point.
 */
template <typename Body>
void
forEachPoint(std::int64_t *slot, const std::vector<std::int64_t> &lo,
             const std::vector<std::int64_t> &hi, const Body &body)
{
    const std::size_t n = lo.size();
    for (std::size_t d = 0; d < n; ++d) {
        if (lo[d] > hi[d])
            return;
        slot[d] = lo[d];
    }
    if (n == 0) {
        body();
        return;
    }
    const std::size_t last = n - 1;
    for (;;) {
        for (slot[last] = lo[last]; slot[last] <= hi[last]; ++slot[last])
            body();
        std::size_t d = last;
        for (;;) {
            if (d == 0)
                return;
            --d;
            if (++slot[d] <= hi[d])
                break;
            slot[d] = lo[d];
        }
    }
}

/** Evaluate interval bounds of a domain under the run's parameters. */
void
domainBounds(const std::vector<dsl::Interval> &dom,
             const std::map<int, std::int64_t> &params,
             std::vector<std::int64_t> &lo, std::vector<std::int64_t> &hi)
{
    lo.clear();
    hi.clear();
    for (const auto &iv : dom) {
        lo.push_back(evalParamExpr(iv.lower(), params, "interval bound"));
        hi.push_back(evalParamExpr(iv.upper(), params, "interval bound"));
    }
}

double
combine(dsl::ReduceOp op, double acc, double v)
{
    switch (op) {
      case dsl::ReduceOp::Sum: return acc + v;
      case dsl::ReduceOp::Product: return acc * v;
      case dsl::ReduceOp::Min: return std::min(acc, v);
      case dsl::ReduceOp::Max: return std::max(acc, v);
    }
    internalError("unknown reduce op");
}

void
evalFunctionStage(const pg::Stage &s, rt::Buffer &out, const Env &env,
                  const EvalOptions &opts)
{
    const dsl::FuncData &f = s.func();
    std::vector<std::int64_t> lo, hi;
    domainBounds(f.dom(), env.params, lo, hi);
    const auto &vars = f.vars();
    Program p(env, vars, lo, hi);

    struct Piece
    {
        int cond; // -1: unguarded
        int value;
    };
    std::vector<Piece> pieces;
    for (const auto &cs : f.cases()) {
        const int cond = cs.hasCondition() ? p.lower(cs.condition()) : -1;
        pieces.push_back({cond, p.lower(cs.value())});
    }

    // Output element of the current point, from each dimension's slot.
    std::vector<int> slot(vars.size());
    std::vector<std::int64_t> stride(vars.size());
    std::int64_t st = 1;
    for (std::size_t d = vars.size(); d-- > 0;) {
        slot[d] = p.slotOf(vars[d]);
        stride[d] = st;
        st *= out.dims()[d];
    }
    const std::int64_t *at = p.slots();

    forEachPoint(p.slots(), lo, hi, [&] {
        bool matched = false;
        for (const Piece &pc : pieces) {
            if (pc.cond >= 0 && !p.test(pc.cond))
                continue;
            if (matched && opts.checkCaseOverlap) {
                specError("function '", f.name(),
                          "' has overlapping cases; the definition is ",
                          "ambiguous");
            }
            const double v = coerce(f.dtype(), p.eval(pc.value));
            std::int64_t flat = 0;
            for (std::size_t d = 0; d < slot.size(); ++d)
                flat += at[slot[d]] * stride[d];
            out.storeFromDouble(flat, v);
            matched = true;
            if (!opts.checkCaseOverlap)
                break;
        }
        // Unmatched points stay at their zero-initialised value.
    });
}

void
evalAccumulatorStage(const pg::Stage &s, rt::Buffer &out, const Env &env)
{
    const dsl::AccumData &a = s.accum();

    // Initialise the variable domain (no loop variable is bound).
    {
        Program p(env, {}, {}, {});
        const double init = coerce(a.dtype(), p.eval(p.lower(a.init())));
        out.fill(init);
    }

    // Sweep the reduction domain.
    std::vector<std::int64_t> lo, hi;
    domainBounds(a.redDom(), env.params, lo, hi);
    Program p(env, a.redVars(), lo, hi);
    const int guard = a.guard() ? p.lower(*a.guard()) : -1;
    std::vector<Index> targets;
    for (const Expr &t : a.targetIndices())
        targets.push_back(p.lowerIndex(t));
    const int update = p.lower(a.update());

    std::vector<std::int64_t> target(targets.size());
    forEachPoint(p.slots(), lo, hi, [&] {
        if (guard >= 0 && !p.test(guard))
            return;
        for (std::size_t d = 0; d < target.size(); ++d)
            target[d] = p.index(targets[d]);
        if (!out.inBounds(target.data())) {
            specError("accumulator '", a.name(),
                      "' update targets a cell outside its domain");
        }
        const std::int64_t flat = out.flatIndex(target.data());
        const double v = p.eval(update);
        out.storeFromDouble(
            flat,
            coerce(a.dtype(), combine(a.op(), out.loadAsDouble(flat), v)));
    });
}

} // namespace

std::vector<std::int64_t>
stageShape(const pg::Stage &s, const pg::PipelineGraph &g,
           const std::vector<std::int64_t> &params)
{
    std::map<int, std::int64_t> pv;
    PM_ASSERT(params.size() == g.params().size(),
              "parameter count mismatch");
    for (std::size_t i = 0; i < params.size(); ++i)
        pv[g.params()[i]->id] = params[i];

    const auto &dom = s.isFunction() ? s.func().dom() : s.accum().varDom();
    std::vector<std::int64_t> shape;
    for (const auto &iv : dom) {
        const std::int64_t lo =
            evalParamExpr(iv.lower(), pv, "interval bound");
        const std::int64_t hi =
            evalParamExpr(iv.upper(), pv, "interval bound");
        if (lo < 0) {
            specError("stage '", s.name(), "' has a negative domain ",
                      "lower bound (", lo, "); allocations cover [0, hi]");
        }
        if (hi < lo)
            specError("stage '", s.name(), "' has an empty domain");
        shape.push_back(hi + 1);
    }
    return shape;
}

std::vector<std::int64_t>
imageShape(const dsl::ImageData &img, const pg::PipelineGraph &g,
           const std::vector<std::int64_t> &params)
{
    std::map<int, std::int64_t> pv;
    for (std::size_t i = 0; i < params.size(); ++i)
        pv[g.params()[i]->id] = params[i];
    std::vector<std::int64_t> shape;
    for (const auto &e : img.extents())
        shape.push_back(evalParamExpr(e, pv, "image extent"));
    return shape;
}

EvalResult
evaluate(const pg::PipelineGraph &g,
         const std::vector<std::int64_t> &params,
         const std::vector<const rt::Buffer *> &inputs,
         const EvalOptions &opts)
{
    if (params.size() != g.params().size()) {
        specError("pipeline '", g.name(), "' expects ",
                  g.params().size(), " parameters, got ", params.size());
    }
    if (inputs.size() != g.images().size()) {
        specError("pipeline '", g.name(), "' expects ",
                  g.images().size(), " input images, got ",
                  inputs.size());
    }

    Env env;
    for (std::size_t i = 0; i < params.size(); ++i)
        env.params[g.params()[i]->id] = params[i];

    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const auto &img = *g.images()[i];
        PM_ASSERT(inputs[i] != nullptr, "null input buffer");
        const auto want = imageShape(img, g, params);
        if (inputs[i]->dims() != want) {
            specError("input image '", img.name(),
                      "' has mismatched dimensions");
        }
        if (inputs[i]->dtype() != img.dtype()) {
            specError("input image '", img.name(), "' expects dtype ",
                      dsl::dtypeName(img.dtype()), ", got ",
                      dsl::dtypeName(inputs[i]->dtype()));
        }
        env.bufs[img.id()] = inputs[i];
    }

    EvalResult result;
    for (const pg::Stage &s : g.stages()) {
        rt::Buffer buf(s.callable->dtype(), stageShape(s, g, params));
        // Self-recurrent stages read their own partially-filled buffer.
        result.stageBuffers[s.callable->id()] = std::move(buf);
        rt::Buffer &stored = result.stageBuffers[s.callable->id()];
        env.bufs[s.callable->id()] = &stored;
        if (s.isFunction())
            evalFunctionStage(s, stored, env, opts);
        else
            evalAccumulatorStage(s, stored, env);
    }

    for (int out_idx : g.outputs()) {
        result.outputs.push_back(
            result.stageBuffers.at(g.stage(out_idx).callable->id()));
    }
    return result;
}

} // namespace polymage::interp
