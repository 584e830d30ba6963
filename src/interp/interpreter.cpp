/**
 * @file
 * Reference interpreter.  Each stage's expressions are lowered once per
 * evaluate() call into a flat, index-linked node array (Program), which
 * is then evaluated a batch at a time: up to kLanes consecutive points
 * of the stage's innermost loop, lane l holding innermost index base + l.
 * Each node writes its lanes into a column of kLanes doubles (a register
 * reused along the tree, or a shared constant column), so a node is
 * dispatched once per batch rather than once per point.  Loop variables
 * live in a slot array indexed by their position in the stage's vars()
 * or redVars(), parameters are folded into constants, every call's
 * buffer, shape and dtype are resolved up front, and integer index
 * expressions that are provably affine and int32-safe skip the double
 * carrier entirely (and, when every index of a call is affine, its loads
 * are a strided gather).
 *
 * Semantics are those of a direct tree walk over the double carrier,
 * point after point in loop order: every node's value is coerced to its
 * dtype, operands evaluate left to right, & and | short-circuit, only
 * the taken select branch runs, and a runtime error (out-of-bounds
 * access, case overlap, integer division by zero, a variable outside
 * its domain) is raised when the faulting node is reached, never at
 * lowering time.  Within a batch this holds lane by lane: an operation
 * runs only on the lanes that reach it (a selection vector), and a
 * fault in a batch of several points abandons the batch, which stores
 * nothing until all its values are known, and replays it one point at
 * a time so the first fault in loop order is the one raised.  A stage
 * that reads its own buffer sees the points before it, so it runs one
 * point per batch.
 *
 * Given a scheduler, a function stage's rows (the points of every loop
 * but the innermost, in loop order) are the tasks of one phase, run as
 * contiguous bands, each on its own copy of the stage lowered once; the
 * first band that faulted raises its error, which is the first fault in
 * loop order.  Stages that read their own buffer and accumulators,
 * whose combines must keep their order, run on the calling thread.
 */
#include "interp/interpreter.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "poly/range.hpp"
#include "runtime/scheduler.hpp"
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

/** Points per batch: consecutive indices of a stage's innermost loop. */
constexpr int kLanes = 256;

/**
 * The lanes of a batch an operation runs on: at[0..n) in increasing
 * order, or every lane 0..n-1 when at is null (the dense case).
 */
struct Lanes
{
    const std::uint16_t *at = nullptr;
    int n = 0;
};

template <typename F>
inline void
forLanes(Lanes s, const F &f)
{
    if (s.at == nullptr) {
        for (int l = 0; l < s.n; ++l)
            f(l);
    } else {
        for (int k = 0; k < s.n; ++k)
            f(int(s.at[k]));
    }
}

/**
 * The lanes of @p s where keep(lane) holds, listed in @p buf (which may
 * be s.at itself); a dense @p s stays dense when every lane is kept.
 */
template <typename Keep>
Lanes
filter(Lanes s, std::uint16_t *buf, const Keep &keep)
{
    int k = 0;
    forLanes(s, [&](int l) {
        buf[k] = std::uint16_t(l);
        k += keep(l) ? 1 : 0;
    });
    if (s.at == nullptr && k == s.n)
        return s;
    return {buf, k};
}

/**
 * Raised by a fault inside a batch of several points: forEachBatch()
 * replays the batch one point at a time to raise the first fault in
 * loop order with its exact message.
 */
struct BatchFault
{};

/** Coerce lanes @p s of @p v to @p t (see coerce()). */
template <typename T>
void
coerceAs(double *v, Lanes s)
{
    forLanes(s, [&](int l) {
        v[l] = double(static_cast<T>(static_cast<std::int64_t>(v[l])));
    });
}

void
coerceLanes(DType t, double *v, Lanes s)
{
    switch (t) {
      case DType::UChar: coerceAs<unsigned char>(v, s); return;
      case DType::Short: coerceAs<short>(v, s); return;
      case DType::UShort: coerceAs<unsigned short>(v, s); return;
      case DType::Int: coerceAs<int>(v, s); return;
      case DType::Long:
        forLanes(s, [&](int l) {
            v[l] = double(static_cast<long long>(v[l]));
        });
        return;
      case DType::Float:
        forLanes(s, [&](int l) { v[l] = double(static_cast<float>(v[l])); });
        return;
      case DType::Double: return;
    }
    internalError("unknown dtype");
}

/** v[lane] = element at(lane) of raw storage of type T, on lanes @p s. */
template <typename T, typename At>
void
gatherAs(const void *data, Lanes s, double *v, const At &at)
{
    const T *p = static_cast<const T *>(data);
    forLanes(s, [&](int l) { v[l] = double(p[at(l)]); });
}

template <typename At>
void
gather(DType t, const void *data, Lanes s, double *v, const At &at)
{
    switch (t) {
      case DType::UChar: gatherAs<unsigned char>(data, s, v, at); return;
      case DType::Short: gatherAs<short>(data, s, v, at); return;
      case DType::UShort: gatherAs<unsigned short>(data, s, v, at); return;
      case DType::Int: gatherAs<int>(data, s, v, at); return;
      case DType::Long: gatherAs<long long>(data, s, v, at); return;
      case DType::Float: gatherAs<float>(data, s, v, at); return;
      case DType::Double: gatherAs<double>(data, s, v, at); return;
    }
    internalError("unknown dtype");
}

/** What the lowering needs to know about the run. */
struct Env
{
    std::map<int, std::int64_t> params;     // param id -> value
    std::map<int, const rt::Buffer *> bufs; // callable id -> buffer
};

/** Node operations.  Lt..Or are conditions, valued 0 or 1. */
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
    int col = -1;   // column holding the node's lanes
};

/**
 * Index of one call dimension: llround of node's value (generic path),
 * or, when node < 0, c0 + sum of coef * slot over terms [term0, termEnd)
 * (affine path), which grows by step from one lane to the next.
 */
struct Index
{
    int node = -1;
    int term0 = 0, termEnd = 0;
    std::int64_t c0 = 0;
    std::int64_t step = 0;
};

struct Term
{
    int slot;
    std::int64_t coef;
};

/**
 * A resolved call: dimension d uses args_, dims_, strides_ and starts_
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
 * variable; the last slot is the innermost loop, whose lanes a batch
 * spans.  Lowering never throws a SpecError: a node whose evaluation
 * must fail becomes a Fail node that throws when it is reached.
 */
class Program
{
  public:
    /** Bind @p vars to slots; their loops run over [lo[d], hi[d]]. */
    Program(const Env &env, const std::vector<dsl::Variable> &vars,
            const std::vector<std::int64_t> &lo,
            const std::vector<std::int64_t> &hi)
        : env_(env), slots_(vars.size()), inner_(int(vars.size()) - 1),
          lo_(lo), hi_(hi)
    {
        for (std::size_t d = 0; d < vars.size(); ++d)
            slotOf_[vars[d].id()] = int(d);
    }

    /** Slot of a bound variable (its last position in vars). */
    int slotOf(const dsl::Variable &v) const { return slotOf_.at(v.id()); }
    /** Slot of the innermost loop, -1 without loops. */
    int inner() const { return inner_; }

    std::int64_t *slots() { return slots_.data(); }

    int lower(const Expr &e);
    int lower(const dsl::Condition &c);
    Index lowerIndex(const Expr &e);

    /** Whether a lowered call reads @p c. */
    bool reads(const dsl::CallableData *c) const;

    /**
     * Start a batch of @p n points whose innermost index is @p base at
     * lane 0; the outer slots hold the batch's outer indices.
     */
    void
    batch(std::int64_t base, int n)
    {
        if (inner_ >= 0)
            slots_[std::size_t(inner_)] = base;
        n_ = n;
    }

    /**
     * Make node @p i (or the node of @p ix) a root evaluated on its own,
     * its value in register @p reg; the caller keeps every register it
     * still reads below those of the roots it evaluates next.
     */
    int root(int i, int reg = 0);
    Index root(const Index &ix, int reg);

    /** Evaluate root or operand @p i on lanes @p s into values(i). */
    void eval(int i, Lanes s);
    const double *values(int i) const { return col(i); }

    /**
     * Evaluate the node of index @p ix on lanes @p s; returns the value
     * at lane 0 of an affine index.  laneIndex() then gives each lane's.
     */
    std::int64_t index(const Index &ix, Lanes s);
    std::int64_t
    laneIndex(const Index &ix, std::int64_t start, int lane) const
    {
        // Index expressions are integer-typed; their double carrier is
        // exact, so rounding recovers the integer.
        if (ix.node >= 0)
            return std::llround(col(ix.node)[lane]);
        return std::int64_t(std::uint64_t(start) +
                            std::uint64_t(ix.step) * std::uint64_t(lane));
    }

    /**
     * Raise SpecError(args...) at the single point of a one-point batch;
     * in a larger batch, throw BatchFault so the batch is replayed.
     */
    template <typename... A>
    [[noreturn]] void
    fault(const A &...args) const
    {
        if (n_ > 1)
            throw BatchFault{};
        specError(args...);
    }

  private:
    int push(const Node &n);
    int fail(bool internal, std::string msg);
    int lowerCall(const dsl::CallNode &call);
    int fold(int mark, int i);
    bool affine(const Expr &e, Affine &out) const;
    void load(int li, Lanes s, double *v);
    [[noreturn]] void outOfBounds(const Load &l, int lane) const;
    int newColumn();

    double *
    col(int i)
    {
        return &cols_[std::size_t(nodes_[std::size_t(i)].col) * kLanes];
    }
    const double *
    col(int i) const
    {
        return &cols_[std::size_t(nodes_[std::size_t(i)].col) * kLanes];
    }
    std::uint16_t *
    lanes(int i)
    {
        return &lanes_[std::size_t(nodes_[std::size_t(i)].col) * kLanes];
    }

    const Env &env_;
    std::vector<std::int64_t> slots_;
    int inner_;
    int n_ = 1; // points in the current batch
    std::vector<std::int64_t> lo_, hi_;
    std::map<int, int> slotOf_; // var id -> slot

    std::vector<Node> nodes_;
    std::vector<double> cols_;           // kLanes values per column
    std::vector<std::uint16_t> lanes_;   // kLanes lane list per column
    std::vector<int> regs_;              // register -> column
    std::map<std::uint64_t, int> consts_; // constant bits -> column
    std::vector<Load> loads_;
    std::vector<std::int64_t> flats_;   // kLanes element indices per load
    std::vector<std::string> fails_;
    std::vector<Term> terms_;
    std::vector<Index> args_;
    std::vector<std::int64_t> dims_, strides_, starts_;
};

int
Program::newColumn()
{
    const int c = int(cols_.size() / kLanes);
    cols_.resize(cols_.size() + kLanes);
    lanes_.resize(cols_.size());
    return c;
}

int
Program::push(const Node &n)
{
    nodes_.push_back(n);
    const int i = int(nodes_.size()) - 1;
    if (n.op == Op::Const) {
        // Equal constants share one read-only column holding the value
        // in every lane.
        std::uint64_t bits;
        std::memcpy(&bits, &n.k, sizeof bits);
        auto [it, fresh] = consts_.emplace(bits, 0);
        if (fresh) {
            it->second = newColumn();
            std::fill_n(&cols_[std::size_t(it->second) * kLanes], kLanes,
                        n.k);
        }
        nodes_.back().col = it->second;
    }
    return i;
}

/**
 * Registers follow the evaluation order: an operation's value overwrites
 * its first operand's register, later operands take the registers above
 * it, so every value is kept until its consumer runs and a program needs
 * about as many columns as its expressions are deep.
 */
int
Program::root(int i, int reg)
{
    Node &n = nodes_[std::size_t(i)];
    if (n.op == Op::Const)
        return i;
    while (int(regs_.size()) <= reg)
        regs_.push_back(newColumn());
    n.col = regs_[std::size_t(reg)];
    switch (n.op) {
      case Op::Slot:
      case Op::Fail: break;
      case Op::Load: {
        const Load &l = loads_[std::size_t(n.a)];
        for (int d = 0; d < l.rank; ++d)
            root(args_[std::size_t(l.dim0 + d)], reg + d);
        break;
      }
      default:
        for (int op : {n.a, n.b, n.c}) {
            if (op >= 0)
                root(op, reg++);
        }
    }
    return i;
}

Index
Program::root(const Index &ix, int reg)
{
    if (ix.node >= 0)
        root(ix.node, reg);
    return ix;
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
    try {
        eval(root(i), {nullptr, 1});
    } catch (const SpecError &) {
        return i;
    }
    const double v = col(i)[0];
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
    starts_.resize(dims_.size());
    loads_.push_back(l);
    flats_.resize(loads_.size() * kLanes);
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
            if (s == inner_)
                ix.step = k;
        }
        ix.termEnd = int(terms_.size());
    } else {
        ix.node = lower(e);
    }
    return ix;
}

bool
Program::reads(const dsl::CallableData *c) const
{
    return std::any_of(loads_.begin(), loads_.end(),
                       [&](const Load &l) { return l.callee == c; });
}

std::int64_t
Program::index(const Index &ix, Lanes s)
{
    if (ix.node >= 0) {
        eval(ix.node, s);
        return 0;
    }
    std::uint64_t v = std::uint64_t(ix.c0);
    for (int t = ix.term0; t < ix.termEnd; ++t) {
        const Term &term = terms_[std::size_t(t)];
        v += std::uint64_t(term.coef) *
             std::uint64_t(slots_[std::size_t(term.slot)]);
    }
    return std::int64_t(v);
}

void
Program::outOfBounds(const Load &l, int lane) const
{
    if (n_ > 1)
        throw BatchFault{};
    const std::size_t d0 = std::size_t(l.dim0);
    std::string pos;
    for (int e = 0; e < l.rank; ++e) {
        const std::size_t d = d0 + std::size_t(e);
        pos += (e ? ", " : "") +
               std::to_string(laneIndex(args_[d], starts_[d], lane));
    }
    specError("runtime out-of-bounds access to '", l.callee->name(),
              "' at (", pos, ")");
}

/**
 * Load call @p li on lanes @p s into @p v.  Every index is evaluated
 * before any is bounds-checked.  When all indices are affine, each
 * coordinate is linear in the lane, so checking the first and the last
 * lane bounds them all and the load is a strided gather.
 */
void
Program::load(int li, Lanes s, double *v)
{
    const Load &l = loads_[std::size_t(li)];
    const std::size_t d0 = std::size_t(l.dim0);
    const Index *args = args_.data() + d0;
    const std::int64_t *dims = dims_.data() + d0;
    const std::int64_t *strides = strides_.data() + d0;
    std::int64_t *starts = starts_.data() + d0;
    bool linear = true;
    for (int d = 0; d < l.rank; ++d) {
        starts[d] = index(args[d], s);
        linear = linear && args[d].node < 0;
    }

    if (linear) {
        const int ends[2] = {s.at ? s.at[0] : 0,
                             s.at ? s.at[s.n - 1] : s.n - 1};
        std::int64_t flat0 = 0, step = 0;
        for (int d = 0; d < l.rank; ++d) {
            for (int lane : ends) {
                const std::int64_t c = laneIndex(args[d], starts[d], lane);
                if (c < 0 || c >= dims[d])
                    outOfBounds(l, lane);
            }
            flat0 += starts[d] * strides[d];
            step += args[d].step * strides[d];
        }
        gather(l.type, l.data, s, v,
               [&](int lane) { return flat0 + step * lane; });
        return;
    }

    std::int64_t *flat = flats_.data() + std::size_t(li) * kLanes;
    forLanes(s, [&](int lane) {
        std::int64_t f = 0;
        for (int d = 0; d < l.rank; ++d) {
            const std::int64_t c = laneIndex(args[d], starts[d], lane);
            if (c < 0 || c >= dims[d])
                outOfBounds(l, lane);
            f += c * strides[d];
        }
        flat[lane] = f;
    });
    gather(l.type, l.data, s, v, [&](int lane) { return flat[lane]; });
}

void
Program::eval(int i, Lanes s)
{
    if (s.n == 0)
        return;
    const Node &n = nodes_[std::size_t(i)];
    double *v = col(i);
    // Const, Slot, Load and Fail have no operand node.
    const double *x = n.op > Op::Fail ? col(n.a) : nullptr;
    // v[l] = f(x[l]) on the lanes, coerced to the node's type.
    auto unary = [&](const auto &f) {
        eval(n.a, s);
        forLanes(s, [&](int l) { v[l] = f(x[l]); });
        coerceLanes(n.type, v, s);
    };
    switch (n.op) {
      case Op::Const: return;
      case Op::Slot: {
        const std::int64_t at = slots_[std::size_t(n.a)];
        if (n.a == inner_)
            forLanes(s, [&](int l) { v[l] = double(at + l); });
        else
            forLanes(s, [&](int l) { v[l] = double(at); });
        return;
      }
      case Op::Load: load(n.a, s, v); return;
      case Op::Fail:
        if (n_ > 1)
            throw BatchFault{};
        if (n.b != 0)
            internalError(fails_[std::size_t(n.a)]);
        else
            specError(fails_[std::size_t(n.a)]);
      case Op::And:
      case Op::Or: {
        // The right operand runs only where the left one leaves the
        // result open: true for &, false for |.
        const bool open_on = n.op == Op::And;
        eval(n.a, s);
        const Lanes open =
            filter(s, lanes(i),
                   [&](int l) { return (x[l] != 0) == open_on; });
        eval(n.b, open);
        const double *y = col(n.b);
        forLanes(s, [&](int l) {
            v[l] = (x[l] != 0) == open_on ? y[l] : double(!open_on);
        });
        return;
      }
      case Op::Select: {
        // Each branch runs only on the lanes that take it.
        std::uint16_t *buf = lanes(i);
        eval(n.a, s);
        eval(n.b, filter(s, buf, [&](int l) { return x[l] != 0; }));
        eval(n.c, filter(s, buf, [&](int l) { return x[l] == 0; }));
        const double *t = col(n.b), *f = col(n.c);
        forLanes(s, [&](int l) { v[l] = x[l] != 0 ? t[l] : f[l]; });
        coerceLanes(n.type, v, s);
        return;
      }
      case Op::Neg: unary([](double a) { return -a; }); return;
      case Op::Cast: unary([](double a) { return a; }); return;
      case Op::Exp: unary([](double a) { return std::exp(a); }); return;
      case Op::Log: unary([](double a) { return std::log(a); }); return;
      case Op::Sqrt: unary([](double a) { return std::sqrt(a); }); return;
      case Op::Sin: unary([](double a) { return std::sin(a); }); return;
      case Op::Cos: unary([](double a) { return std::cos(a); }); return;
      case Op::Abs: unary([](double a) { return std::abs(a); }); return;
      case Op::Floor: unary([](double a) { return std::floor(a); }); return;
      case Op::Ceil: unary([](double a) { return std::ceil(a); }); return;
      default: break;
    }

    // Binary: operands left to right.
    eval(n.a, s);
    eval(n.b, s);
    const double *y = col(n.b);
    auto binary = [&](const auto &f) {
        forLanes(s, [&](int l) { v[l] = f(x[l], y[l]); });
    };
    switch (n.op) {
      case Op::Add: binary([](double a, double b) { return a + b; }); break;
      case Op::Sub: binary([](double a, double b) { return a - b; }); break;
      case Op::Mul: binary([](double a, double b) { return a * b; }); break;
      case Op::Div: binary([](double a, double b) { return a / b; }); break;
      case Op::Mod:
        binary([](double a, double b) { return std::fmod(a, b); });
        break;
      case Op::IDiv:
      case Op::IMod:
        forLanes(s, [&](int l) {
            if (std::int64_t(y[l]) == 0) {
                fault("integer ",
                      n.op == Op::IDiv ? "division" : "modulo",
                      " by zero in pipeline");
            }
        });
        if (n.op == Op::IDiv) {
            binary([](double a, double b) {
                return double(floorDiv(std::int64_t(a), std::int64_t(b)));
            });
        } else {
            binary([](double a, double b) {
                return double(floorMod(std::int64_t(a), std::int64_t(b)));
            });
        }
        break;
      case Op::Min:
        binary([](double a, double b) { return std::min(a, b); });
        break;
      case Op::Max:
        binary([](double a, double b) { return std::max(a, b); });
        break;
      case Op::Pow:
        binary([](double a, double b) { return std::pow(a, b); });
        break;
      // Conditions are 0 or 1 and need no coercion.
      case Op::Lt: binary([](double a, double b) { return a < b; }); return;
      case Op::Le: binary([](double a, double b) { return a <= b; }); return;
      case Op::Gt: binary([](double a, double b) { return a > b; }); return;
      case Op::Ge: binary([](double a, double b) { return a >= b; }); return;
      case Op::Eq: binary([](double a, double b) { return a == b; }); return;
      case Op::Ne: binary([](double a, double b) { return a != b; }); return;
      default: internalError("unknown expr node");
    }
    coerceLanes(n.type, v, s);
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
 * Rows of the loop nest over [lo[d], hi[d]]: the index tuples of every
 * loop but the innermost, numbered in loop order.  One without loops or
 * with a single loop, none when a loop is empty.
 */
std::int64_t
loopRows(const std::vector<std::int64_t> &lo,
         const std::vector<std::int64_t> &hi)
{
    std::int64_t rows = 1;
    for (std::size_t d = 0; d < lo.size(); ++d) {
        if (lo[d] > hi[d])
            return 0;
        if (d + 1 < lo.size())
            rows *= hi[d] - lo[d] + 1;
    }
    return rows;
}

/**
 * Run rows [first, end) of the loop nest over [lo[d], hi[d]] (see
 * loopRows()), in loop order, as batches of up to @p width points of the
 * innermost loop: body(n) evaluates the batch p.batch() has set up.  A
 * batch that raises BatchFault is rerun one point at a time, so its
 * first fault in loop order is raised.
 */
template <typename Body>
void
forEachBatch(Program &p, const std::vector<std::int64_t> &lo,
             const std::vector<std::int64_t> &hi, int width,
             std::int64_t first, std::int64_t end, const Body &body)
{
    auto run = [&](std::int64_t base, int n) {
        p.batch(base, n);
        try {
            body(n);
        } catch (const BatchFault &) {
            for (int l = 0; l < n; ++l) {
                p.batch(base + l, 1);
                body(1);
            }
        }
    };
    if (first >= end)
        return; // also every empty loop nest: it has no rows
    if (lo.empty()) {
        run(0, 1);
        return;
    }
    // The outer indices of row `first`, the last outer loop fastest.
    std::int64_t *slot = p.slots();
    const std::size_t last = lo.size() - 1;
    std::int64_t rest = first;
    for (std::size_t d = last; d-- > 0;) {
        const std::int64_t extent = hi[d] - lo[d] + 1;
        slot[d] = lo[d] + rest % extent;
        rest /= extent;
    }
    for (std::int64_t row = first; row < end; ++row) {
        for (std::int64_t b = lo[last]; b <= hi[last]; b += width)
            run(b, int(std::min<std::int64_t>(width, hi[last] - b + 1)));
        for (std::size_t d = last; d-- > 0;) {
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

/**
 * A function stage lowered for evaluation: its program, case pieces and
 * output addressing, with the case state of one batch.  Running rows
 * writes only to this state and to the rows' output points, so copies
 * may run disjoint rows at once.
 */
class FunctionStage
{
  public:
    FunctionStage(const pg::Stage &s, rt::Buffer &out, const Env &env,
                  const std::vector<std::int64_t> &lo,
                  const std::vector<std::int64_t> &hi);

    /**
     * Evaluate every row of the loop nest (see loopRows()).  Without a
     * scheduler, and for a stage that reads its own buffer (each point
     * must see every earlier one), the rows run in order on the calling
     * thread, as they do for a stage of fewer than two full batches.
     * Otherwise each row is a task of one phase, which the scheduler
     * hands out as bands of contiguous rows, while the caller helps.
     * Each band runs on its own copy of this stage, taken from a pool
     * of copies, so there are no more copies than bands that ran at
     * once, and this stage itself is only copied.  A band's error is
     * kept, never handed to the scheduler, and that of the band with
     * the lowest first row is rethrown: a band stops at its first
     * fault, so it is the fault a serial evaluation raises.
     */
    void run(rt::TileScheduler *sched);

  private:
    struct Piece
    {
        int cond; // -1: unguarded
        int value;
    };

    /** Evaluate rows [first, end) of the loop nest. */
    void
    runRows(std::int64_t first, std::int64_t end)
    {
        forEachBatch(p_, lo_, hi_, p_.reads(self_) ? 1 : kLanes, first,
                     end, [this](int n) { batch(n); });
    }

    void batch(int n);

    const dsl::FuncData &f_;
    const dsl::CallableData *self_;
    rt::Buffer &out_;
    std::vector<std::int64_t> lo_, hi_;
    Program p_;
    std::vector<Piece> pieces_;
    // Output element of lane 0, from each dimension's slot, and the
    // distance between the elements of consecutive lanes.
    std::vector<int> slot_;
    std::vector<std::int64_t> stride_;
    std::int64_t step_ = 0;
    // Per-lane case state: matching lanes, matched flags and the value
    // to store.
    std::vector<std::uint16_t> hit_;
    std::vector<unsigned char> matched_;
    std::vector<double> value_;
};

FunctionStage::FunctionStage(const pg::Stage &s, rt::Buffer &out,
                             const Env &env,
                             const std::vector<std::int64_t> &lo,
                             const std::vector<std::int64_t> &hi)
    : f_(s.func()), self_(s.callable.get()), out_(out), lo_(lo), hi_(hi),
      p_(env, f_.vars(), lo, hi), hit_(kLanes),
      matched_(kLanes), value_(kLanes)
{
    // A case's condition is read before its value is evaluated, and its
    // value before the next case runs, so all roots share register 0.
    for (const auto &cs : f_.cases()) {
        const int cond =
            cs.hasCondition() ? p_.root(p_.lower(cs.condition())) : -1;
        pieces_.push_back({cond, p_.root(p_.lower(cs.value()))});
    }

    const auto &vars = f_.vars();
    slot_.resize(vars.size());
    stride_.resize(vars.size());
    std::int64_t st = 1;
    for (std::size_t d = vars.size(); d-- > 0;) {
        slot_[d] = p_.slotOf(vars[d]);
        stride_[d] = st;
        if (slot_[d] == p_.inner())
            step_ += st;
        st *= out.dims()[d];
    }
}

void
FunctionStage::run(rt::TileScheduler *sched)
{
    const std::int64_t rows = loopRows(lo_, hi_);
    if (sched == nullptr || p_.reads(self_) || rows < 2 ||
        rows * (hi_.back() - lo_.back() + 1) < 2 * kLanes) {
        runRows(0, rows);
        return;
    }

    std::mutex mu;
    // Guarded by mu: spare copies, and the first row of the earliest
    // band that faulted with its error.
    std::vector<std::unique_ptr<FunctionStage>> copies;
    std::int64_t faultRow = rows;
    std::exception_ptr fault;
    const std::string err = sched->run(
        [&](long long, long long first, long long last) {
            std::unique_ptr<FunctionStage> copy;
            {
                std::lock_guard<std::mutex> lock(mu);
                if (!copies.empty()) {
                    copy = std::move(copies.back());
                    copies.pop_back();
                }
            }
            std::exception_ptr err;
            try {
                if (copy == nullptr)
                    copy = std::make_unique<FunctionStage>(*this);
                copy->runRows(first, last + 1);
            } catch (...) {
                err = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(mu);
            if (err && first < faultRow) {
                faultRow = first;
                fault = err;
            }
            if (copy != nullptr)
                copies.push_back(std::move(copy));
        },
        {rows});
    PM_ASSERT(err.empty(), err);
    if (fault)
        std::rethrow_exception(fault);
}

void
FunctionStage::batch(int n)
{
    const Lanes all{nullptr, n};
    std::fill_n(matched_.begin(), n, 0);
    int hits = 0;
    for (const Piece &pc : pieces_) {
        Lanes take = all;
        if (pc.cond >= 0) {
            p_.eval(pc.cond, all);
            const double *c = p_.values(pc.cond);
            take = filter(all, hit_.data(),
                          [&](int l) { return c[l] != 0; });
        }
        if (hits > 0) {
            forLanes(take, [&](int l) {
                if (matched_[std::size_t(l)]) {
                    p_.fault("function '", f_.name(),
                             "' has overlapping cases; the definition "
                             "is ambiguous");
                }
            });
        }
        p_.eval(pc.value, take);
        const double *v = p_.values(pc.value);
        forLanes(take, [&](int l) {
            value_[std::size_t(l)] = v[l];
            matched_[std::size_t(l)] = 1;
        });
        coerceLanes(f_.dtype(), value_.data(), take);
        hits += take.n;
    }

    // Store the batch only now that every value is known.
    const std::int64_t *at = p_.slots();
    std::int64_t flat0 = 0;
    for (std::size_t d = 0; d < slot_.size(); ++d)
        flat0 += at[slot_[d]] * stride_[d];
    if (hits == n && out_.dtype() == DType::Float) {
        float *o = out_.dataAs<float>();
        for (int l = 0; l < n; ++l)
            o[flat0 + step_ * l] = float(value_[std::size_t(l)]);
    } else if (hits == n && out_.dtype() == DType::Double) {
        double *o = out_.dataAs<double>();
        for (int l = 0; l < n; ++l)
            o[flat0 + step_ * l] = value_[std::size_t(l)];
    } else {
        // Unmatched points stay at their zero-initialised value.
        for (int l = 0; l < n; ++l) {
            if (matched_[std::size_t(l)])
                out_.storeFromDouble(flat0 + step_ * l,
                                     value_[std::size_t(l)]);
        }
    }
}

void
evalFunctionStage(const pg::Stage &s, rt::Buffer &out, const Env &env,
                  rt::TileScheduler *sched)
{
    std::vector<std::int64_t> lo, hi;
    domainBounds(s.func().dom(), env.params, lo, hi);
    FunctionStage(s, out, env, lo, hi).run(sched);
}

void
evalAccumulatorStage(const pg::Stage &s, rt::Buffer &out, const Env &env)
{
    const dsl::AccumData &a = s.accum();

    // Initialise the variable domain (no loop variable is bound).
    {
        Program p(env, {}, {}, {});
        const int init = p.root(p.lower(a.init()));
        p.eval(init, {nullptr, 1});
        out.fill(coerce(a.dtype(), p.values(init)[0]));
    }

    // Sweep the reduction domain.
    std::vector<std::int64_t> lo, hi;
    domainBounds(a.redDom(), env.params, lo, hi);
    Program p(env, a.redVars(), lo, hi);
    // The guard is read before the targets run and every target before
    // the update runs; target d, read together with the others, takes
    // register d.
    const int guard = a.guard() ? p.root(p.lower(*a.guard())) : -1;
    std::vector<Index> targets;
    for (const Expr &t : a.targetIndices()) {
        targets.push_back(
            p.root(p.lowerIndex(t), int(targets.size())));
    }
    const int update = p.root(p.lower(a.update()));

    const std::size_t rank = targets.size();
    std::vector<std::int64_t> starts(rank), target(rank), flat(kLanes);
    std::vector<std::uint16_t> guarded(kLanes);
    auto body = [&](int n) {
        Lanes on{nullptr, n};
        if (guard >= 0) {
            p.eval(guard, on);
            const double *g = p.values(guard);
            on = filter(on, guarded.data(), [&](int l) { return g[l] != 0; });
        }
        for (std::size_t d = 0; d < rank; ++d)
            starts[d] = p.index(targets[d], on);
        forLanes(on, [&](int l) {
            for (std::size_t d = 0; d < rank; ++d)
                target[d] = p.laneIndex(targets[d], starts[d], l);
            if (!out.inBounds(target.data())) {
                p.fault("accumulator '", a.name(),
                        "' update targets a cell outside its domain");
            }
            flat[std::size_t(l)] = out.flatIndex(target.data());
        });
        p.eval(update, on);
        // Combine in lane order: lanes may target the same cell.
        const double *v = p.values(update);
        forLanes(on, [&](int l) {
            const std::int64_t at = flat[std::size_t(l)];
            out.storeFromDouble(
                at, coerce(a.dtype(),
                           combine(a.op(), out.loadAsDouble(at), v[l])));
        });
    };
    // An update that reads the accumulator must see each earlier point.
    forEachBatch(p, lo, hi, p.reads(s.callable.get()) ? 1 : kLanes, 0,
                 loopRows(lo, hi), body);
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
         rt::TileScheduler *sched)
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
            evalFunctionStage(s, stored, env, sched);
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
