"""Lazy scalar fields over the 3m chart with exact derivatives.

A ``ScalarField`` is a node in a computational graph.  Evaluating a node
at a ``ChartPoint`` produces its jet, a coefficient array in a
``JetSpace`` (``jets``); requesting a partial derivative returns a new
node whose jet is read off the parent's jet one order higher.  This
keeps every derived tensor component (connection coefficients,
curvatures, ...) representable as a field again, with all derivatives
exact.

Nodes are hash-consed: every construction (a class call, an operator,
``partial``, a constant fold, ``finverse``) probes one module-level table
of weak references once (``_intern``), keyed by (class, arguments) with
child nodes compared by identity.  A hit returns the live node equal to
the one requested; a miss builds it, running its class's ``__init__``
once.  Structurally equal subgraphs are therefore one object.  A ``Const``
key also carries the sign of its value, so ``Const(-0.0)`` stays distinct
from ``ZERO``; the module holds both, so a zero test is an identity test.
An entry lives as long as its node, and a node refers only to nodes built
before it, so graphs hold no reference cycles: dropping the last
reference to one frees it without the cyclic collector, which a caller
may pause (``collector_paused``; every ``bigtangent`` command and
``dfield.verify_double_field`` do, and
``test_a_command_leaves_no_cyclic_garbage_of_its_graphs`` checks it).

Each node records at construction its ``support``, the frozenset of
chart variables it can depend on; ``f.partial(v)`` is ``ZERO`` when ``v``
is not in ``f.support``, so structurally zero derivatives are never
built or evaluated.

Every sum of field products is one ``Sum`` node, which ``fsum`` builds
with one interning probe: its start and its kept terms ``(sign, *factors)``
in the order given, after the folds of the loop ``acc = start; acc = acc
+/- f1 * f2 * ...``.  A term with a constant-zero factor (``is_zero``) is
skipped, constant factors fold as ``*`` folds them, no kept term returns
``start`` and a sole ``+`` term over a zero start returns its product.
Equal sums are one node; only the order of the terms shapes it (and so
the last bits of its values).  The hot construction loops walk only the
indices that can give a nonzero term.  A matrix product of field arrays
is ``fdot``, one ``fsum`` per entry: numpy's ``@`` would build the
loop's chain of one-term sums.

The operators build ``Sum`` nodes too, after their constant folds:
``a + b`` and ``a - b`` are the start ``a`` with the term ``(1, b)`` or
``(-1, b)``, ``-a`` and ``a * b`` the term ``(-1, a)`` or ``(1, a, b)``
over a zero start, and ``a / b`` the term ``(1, a, Func("reciprocal",
b))``.  A quotient is interned as it stands, not through ``fsum``, so a
constant-zero numerator stays in it and its divisor is still evaluated:
``0/0`` raises as ``1/0`` does.  So every node is a ``Const``, a
``Coord``, a ``Sum``, a ``Pow``, a ``Func``, a ``Partial`` or an entry
of a matrix inverse, and one branch of the runner evaluates every sum
and product.

Evaluation never recurses, and it evaluates each node once per point
batch, at its top order: the highest order any reader asks for (a
reader's own top order, plus one through a ``Partial``).  Taylor
propagation is triangular: the coefficients of degree <= k of a result
read only those of degree <= k of its operands, and terms are sorted by
degree, so a reader at a lower order reads the leading rows, bit for bit
(the matrix inverse excepted: its Newton steps at a higher order refine
the value row too).  One planner (``_plan``) walks the graph below a set
of roots, giving the nodes in dependency order and their top orders, and
one runner (``_run``) evaluates them.  A ``Sum`` multiplies each term's
factors left to right with ``mul_coeffs`` and adds or subtracts the
products from the start left to right (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13; JAX's Taylor-mode ``jet`` likewise
propagates a whole contraction as one primitive, Bettencourt, Johnson &
Duvenaud, 2019): the loop's floating-point operations in its order, at
the top order its chain of nodes would have had, so its jet is the
chain's bit for bit.  A constant factor scales the product of the others
as a number, so an overflowed row takes no 0 * inf.  Its operands, the
start and the factors that are not constants, come in the order the
chain's depth-first evaluation meets them, so its ``JetDomainError`` is
the chain's, and a quotient's numerator raises before its divisor.
Graph height is bounded by memory, not by Python's recursion limit.
Every point is one batch, a ``ChartPoint`` whose ``flat`` array (3m,
npoints) a ``Coord`` reads its row of.  The plan has two callers:

- suite points, which verification reuses across many fields: ``jet``,
  ``value`` and ``fvalue`` keep one jet per node in the point's memo,
  plan only what the memo lacks, or holds at too low an order, and
  store the results there.  Equal subgraphs are one node, so they share
  one memo slot, and the memo is freed when the point is dropped.
- points evaluated once, the action integrand's chunks: the ``Tape`` of
  the integrand, which its one owner ``DoubleField.integrand_tape``
  compiles once, frees each jet right after its last use, so a run holds
  only the jets still to be read, and it stores nothing on the point.

Each path wins a benchmark workload, so both stay (perfbench on a
2-vCPU host, one jet per node: a tape for every memo call took
m3-identities from 2.51-2.95 to 4.18-4.96 s, and the integrand run
through the memo took kitchen-sink from 1.42-1.51 to 1.71-1.80 s and
its peak RSS from 73 to 349 MB).  A ``JetDomainError`` raised by a run
gets the chart point of its first bad sample attached.

The memo path evaluates every jet in all 3m chart variables.  A tape
evaluates each node of top order >= 1 only in the variables its readers
differentiate along, its demand D: a ``Partial`` along v reads its
parent along its own D and v, every other node reads its operands along
its own D, a node read by several readers gets the union, and the roots
(and every node of top order 0) keep all 3m.  The jet over D is the
full-space jet restricted to the terms in D's variables, bit for bit: a
coefficient in those variables sums the same products of coefficients
in those variables, and restricting the term order (by degree, then
lexicographic) to a subset of the variables keeps it as a subsequence,
so the products come in the same order (``multiindex``).  An operand
over more variables, or at a higher order, than its reader is
restricted by one row gather or slice; a ``Partial`` reads its parent's
rows through a table between the two spaces; a ``Coord`` whose variable
is outside D is a constant.  The demand is not intersected with a
node's ``support``: a product of jets over unequal variables would drop
exact zeros, which can flip the sign of a zero coefficient.  So both
paths return the same jets, bit for bit, for the same top orders.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import reduce
import gc
import math
from itertools import repeat
import operator
import weakref
import numpy as np

from .jets import FUNCTIONS, JetDomainError, constant, mul_coeffs, power, variable
from .multiindex import jet_space, partial_rows, restriction
from .points import ChartPoint

_NO_VARS = frozenset()

# key -> _Ref to the live node; _forget drops the entry when the node dies.
# (A WeakValueDictionary does the same, but its Python-level get and set
# made an interning hit about 1.5 times as slow.)
_NODES: dict = {}


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref: _Ref):
    if _NODES.get(ref.key) is ref:
        del _NODES[ref.key]


def _intern(key: tuple):
    """The live node of ``key``, ``(cls, *args)``, found by one probe of
    ``_NODES``; on a miss, a new node, on which ``type.__call__`` runs
    ``cls.__init__(*args)``, looked up on the class now, once."""
    ref = _NODES.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = type.__call__(*key)  # not the metaclass's __call__, which interns
    ref = _NODES[key] = _Ref(node, _forget)
    ref.key = key
    return node


class _Interned(type):
    """Metaclass: calling a node class interns its ``_key``."""

    def _key(cls, *args) -> tuple:
        return (cls, *args)

    def __call__(cls, *args):
        return _intern(cls._key(*args))


def _union(a: frozenset, b: frozenset) -> frozenset:
    """``a | b``, reusing an operand when it already covers the other."""
    if b <= a:
        return a
    return b if a <= b else a | b


class ScalarField(metaclass=_Interned):
    """Base node; subclasses set ``support`` and name their ``_operands``."""

    __slots__ = ("support", "__weakref__")

    def jet(self, p: ChartPoint, order: int) -> np.ndarray:
        """The jet at ``p`` in ``jet_space(3m, order)``, memoised on ``p``:
        the memo's coefficient array, or its leading rows if it is longer."""
        nterms = jet_space(3 * p.m, order).nterms
        hit = p._cache.get(self)
        if hit is None or len(hit) < nterms:
            _memo_eval((self,), order, p)
            hit = p._cache[self]
        return hit if len(hit) == nterms else hit[:nterms]

    def _operands(self) -> tuple:
        """The nodes whose jets this node's jet is computed from, in the
        order it reads them (a ``Partial`` reads its parent one order
        higher)."""
        return ()

    def value(self, p: ChartPoint) -> np.ndarray:
        return self.jet(p, 0)[0]

    def partial(self, var: int) -> "ScalarField":
        return _intern((Partial, self, var)) if var in self.support else ZERO

    # -- arithmetic (with light constant folding) ------------------------
    # Most operands are not constants, so each fold sits behind one test;
    # a fold tests for zero as ``is_zero`` does, inline.
    def __add__(self, other):
        other = other if isinstance(other, ScalarField) else Const(other)
        if type(self) is Const or type(other) is Const:
            if other is ZERO or other is _NEG_ZERO:
                return self
            if self is ZERO or self is _NEG_ZERO:
                return other
            if type(self) is type(other):
                return Const(self.v + other.v)
        return _intern((Sum, self, ((1, other),)))

    __radd__ = __add__

    def __sub__(self, other):
        other = other if isinstance(other, ScalarField) else Const(other)
        if type(other) is Const:
            if other is ZERO or other is _NEG_ZERO:
                return self
            if type(self) is Const:
                return Const(self.v - other.v)
        return _intern((Sum, self, ((-1, other),)))

    def __rsub__(self, other):  # other is not a field, or its __sub__ would run
        return Const(other) - self

    def __neg__(self):
        if type(self) is Const:
            return Const(-self.v)
        return _intern((Sum, ZERO, ((-1, self),)))

    def __mul__(self, other):
        other = other if isinstance(other, ScalarField) else Const(other)
        if type(self) is Const or type(other) is Const:
            if self is ZERO or self is _NEG_ZERO or other is ZERO or other is _NEG_ZERO:
                return ZERO
            if self is ONE:
                return other
            if other is ONE:
                return self
            if type(self) is type(other):
                return Const(self.v * other.v)
        return _intern((Sum, ZERO, ((1, self, other),)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, ScalarField) else Const(other)
        if type(other) is Const and other.v != 0.0:
            # a constant factor, which evaluation scales by as a number
            return self * Const(1.0 / other.v)
        # interned as it stands, so a zero numerator keeps its divisor, which
        # is still evaluated: a zero divisor raises then, 0/0 included
        return _intern((Sum, ZERO, ((1, self, _intern((Func, "reciprocal", other))),)))

    def __rtruediv__(self, other):
        return _intern((Sum, ZERO, ((1, Const(other), _intern((Func, "reciprocal", self))),)))

    def __pow__(self, n: int):
        if not isinstance(n, (int, np.integer)):
            raise TypeError("field exponent must be an integer")
        return Pow(self, int(n))

    def sin(self):
        return Func("sin", self)

    def cos(self):
        return Func("cos", self)

    def exp(self):
        return Func("exp", self)

    def log(self):
        return Func("log", self)

    def sqrt(self):
        return Func("sqrt", self)


class Const(ScalarField):
    __slots__ = ("v",)

    @classmethod
    def _key(cls, v) -> tuple:
        v = float(v)
        return (cls, v, math.copysign(1.0, v))

    def __init__(self, v: float, sign: float):
        self.v = v  # sign, the key's copysign(1, v), is v's own
        self.support = _NO_VARS


ZERO = Const(0.0)
_NEG_ZERO = Const(-0.0)  # held here, so it is the one live Const(-0.0)
ONE = Const(1.0)


def is_zero(f) -> bool:
    """True for a constant-zero field: ``ZERO`` or ``Const(-0.0)``, by identity."""
    return f is ZERO or f is _NEG_ZERO


def fsum(terms, start=ZERO) -> ScalarField:
    """``start`` plus or minus the product of each term's factors: the
    ``Sum`` node of the module docstring, or what the loop's folds leave.

    Each term is ``(sign, *factors)`` with ``sign`` +1 or -1; the factors
    are multiplied left to right.  A term with a factor that is ``ZERO`` or
    ``Const(-0.0)`` (``is_zero``'s identity test, inline), or whose leading
    constants multiply to zero, is skipped.  The leading constants of a
    term are one factor, and ``ONE`` after another factor is dropped.
    """
    acc, kept = as_field(start), []
    for sign, *factors in terms:
        lead, prod = None, [sign]  # lead: the product of the leading constants
        for f in factors:
            if type(f) is not Const:
                if isinstance(f, ScalarField):
                    prod.append(f)
                    continue
                f = Const(f)
            if f is ZERO or f is _NEG_ZERO:
                break
            if len(prod) == 1:
                lead = f if lead is None else Const(lead.v * f.v)
            elif f is not ONE:
                prod.append(f)
        else:
            if lead is ZERO or lead is _NEG_ZERO:
                continue
            if lead is not None:
                if len(prod) == 1 and not kept and type(acc) is Const:
                    acc = acc + lead if sign > 0 else acc - lead  # a constant start
                    continue
                if lead is not ONE or len(prod) == 1:
                    prod.insert(1, lead)
            kept.append(tuple(prod))
    if not kept:
        return acc
    if len(kept) == 1 and kept[0][0] > 0 and (acc is ZERO or acc is _NEG_ZERO):
        return reduce(operator.mul, kept[0][1:])
    return _intern((Sum, acc, tuple(kept)))


def fdot(a, b) -> np.ndarray:
    """The contraction of the last axis of the object array ``a`` with the
    first axis of ``b``, as ``np.tensordot(a, b, axes=1)``: each entry is
    one ``fsum`` of its products, in the order of the contracted index."""
    a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    rows = a.reshape(-1, a.shape[-1]).tolist()
    cols = b.reshape(b.shape[0], -1).T.tolist()
    out = np.empty(len(rows) * len(cols), dtype=object)
    out[:] = [fsum(zip(repeat(1), row, col)) for row in rows for col in cols]
    return out.reshape(a.shape[:-1] + b.shape[1:])


def as_field(x) -> ScalarField:
    if isinstance(x, ScalarField):
        return x
    return Const(float(x))


_as_fields = np.frompyfunc(as_field, 1, 1)


def field_array(arr, shape: tuple, what: str) -> np.ndarray:
    """A new object array holding ``as_field`` of each entry of ``arr``,
    which must have ``shape``; ``what`` names it in the error."""
    arr = np.asarray(arr, dtype=object)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}")
    return _as_fields(arr, out=np.empty(shape, dtype=object))


class Coord(ScalarField):
    """The flat chart variable ``var`` (0 <= var < 3m)."""

    __slots__ = ("var",)

    def __init__(self, var: int):
        self.var = int(var)
        self.support = frozenset((self.var,))


class Pow(ScalarField):
    __slots__ = ("base", "n")

    def __init__(self, base, n):
        self.base, self.n = base, n
        self.support = base.support

    def _operands(self):
        return (self.base,)


class Func(ScalarField):
    __slots__ = ("name", "arg")

    def __init__(self, name, arg):
        self.name, self.arg = name, arg
        self.support = arg.support

    def _operands(self):
        return (self.arg,)


class Partial(ScalarField):
    __slots__ = ("parent", "var")

    def __init__(self, parent, var):
        self.parent, self.var = parent, int(var)
        self.support = parent.support

    def _operands(self):
        return (self.parent,)


class Sum(ScalarField):
    """``start`` plus or minus the product of each of ``terms``, as
    ``fsum`` keeps them or an operator builds them (a quotient keeps a
    zero numerator, so its divisor is still evaluated); see the module
    docstring."""

    __slots__ = ("start", "terms", "ops")

    def __init__(self, start, terms):
        self.start, self.terms = start, terms
        ops = [] if type(start) is Const else [start]
        support = start.support
        for term in terms:
            for f in term[1:]:
                if type(f) is not Const:
                    ops.append(f)
                    support = _union(support, f.support)
        self.ops = tuple(ops)
        self.support = support

    def _operands(self):
        return self.ops


# -- object arrays of fields ----------------------------------------------
def fzeros(*shape) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    out[...] = ZERO
    return out


def fvalue(arr, p: ChartPoint) -> np.ndarray:
    """Evaluate an object array (or a list) of fields to floats, with the
    points on a last axis."""
    arr = np.asarray(arr, dtype=object)
    roots = [as_field(f) for f in arr.flat]
    _memo_eval(roots, 0, p)
    out = np.array([p._cache[f][0] for f in roots], dtype=float)
    return out.reshape(arr.shape + (p.npoints,))


# -- jet-exact matrix inversion -------------------------------------------
def _jet_inverse(space, A: np.ndarray) -> np.ndarray:
    """Invert the (n, n, nterms, npoints) array ``A`` of jets in ``space``
    by Newton iteration on its (nterms, n, n, npoints) transpose.

    The seed is numpy's inverse of the value part at each point; each Newton
    step X <- X(2I - AX) doubles the order to which X is exact, so
    ceil(log2(order+1)) steps suffice.  A matrix product adds each entry's
    n jet products left to right from the first, as object ``@`` does, so
    the jets are those of the object arrays' Newton bit for bit.  A
    singular value part raises ``JetDomainError`` at its first sample.
    The inverse is returned as one read-only (n, n, nterms, npoints) array.
    """
    n = len(A)
    a = A.transpose(2, 0, 1, 3)
    values = a[0].transpose(2, 0, 1)
    try:
        inv0 = np.linalg.inv(values)
    except np.linalg.LinAlgError:
        for k, value in enumerate(values):  # the batch fails as a whole: find the sample
            try:
                np.linalg.inv(value)
            except np.linalg.LinAlgError:
                raise JetDomainError("singular matrix", k) from None
        raise
    x = np.zeros(a.shape)
    x[0] = inv0.transpose(1, 2, 0)
    two = (np.arange(space.nterms) == 0)[:, None, None] * 2.0  # the constant jet 2
    diag = (slice(None), *np.diag_indices(n))

    def matmul(a, b):
        acc = mul_coeffs(space, a[:, :, :1], b[:, None, 0])
        for s in range(1, n):
            acc += mul_coeffs(space, a[:, :, s, None], b[:, None, s])
        return acc

    for _ in range(0 if space.order == 0 else math.ceil(math.log2(space.order + 1))):
        e = -matmul(a, x)  # E = 2I - AX
        e[diag] += two
        x = matmul(x, e)
    x = np.ascontiguousarray(x.transpose(1, 2, 0, 3))
    x.flags.writeable = False
    return x


class _MatrixInverse(metaclass=_Interned):
    """Shared owner computing all entries of an inverse at once.

    Interned by its entries like the field nodes, so inverting an equal
    matrix again shares one Newton inversion per point.
    """

    __slots__ = ("rows", "n", "support", "__weakref__")

    def __init__(self, rows: tuple):
        self.rows = rows
        self.n = len(rows)
        self.support = _NO_VARS
        for row in rows:
            for f in row:
                self.support = _union(self.support, f.support)

    def _operands(self):
        return tuple(f for row in self.rows for f in row)


class _MatInvEntry(ScalarField):
    __slots__ = ("owner", "i", "j")

    def __init__(self, owner, i, j):
        self.owner, self.i, self.j = owner, i, j
        self.support = owner.support

    def _operands(self):
        return (self.owner,)


def finverse(mat: np.ndarray) -> np.ndarray:
    """Entrywise fields of the inverse of a field matrix (jet-exact)."""
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    owner = _intern((_MatrixInverse, tuple(tuple(as_field(f) for f in row) for row in mat)))
    out = np.empty((owner.n, owner.n), dtype=object)
    for i, j in np.ndindex(out.shape):
        out[i, j] = _intern((_MatInvEntry, owner, i, j))
    return out


def fdet(mat: np.ndarray) -> ScalarField:
    """Determinant of a small field matrix by cofactor expansion."""
    n = mat.shape[0]
    if n == 1:
        return as_field(mat[0, 0])
    rows = np.delete(mat, 0, axis=0)
    return fsum(
        (-1 if j % 2 else 1, as_field(mat[0, j]), fdet(np.delete(rows, j, axis=1)))
        for j in range(n)
    )


# -- evaluation -------------------------------------------------------------
_DONE = object()  # pushed above a node, so it is popped once the node's operands are done


def _walk(want, memo) -> tuple[list, list]:
    """(nodes, frontier): the nodes of ``want`` and those below them that
    ``memo`` lacks, each after its operands, in the order in which a
    depth-first evaluation of ``want``, each node reading its operands in
    turn, completes them; and the nodes of ``memo`` they read."""
    nodes, frontier, seen = [], [], set()
    stack = list(want)[::-1]
    pop = stack.pop
    while stack:
        n = pop()
        if n is _DONE:
            nodes.append(pop())
        elif n not in seen:
            seen.add(n)
            if n not in memo or n in want:
                stack += (n, _DONE)
                stack.extend(reversed(n._operands()))
            else:
                frontier.append(n)
    return nodes, frontier


def _plan(want: dict, memo, nvars: int) -> tuple[list, dict]:
    """(nodes, tops): the nodes to evaluate for ``want``, a dict from
    root to order, in evaluation order, and each one's top order.

    A node's top order is the highest order a reader asks for: its own
    top order, plus one through a ``Partial``.  A node that ``memo`` holds
    at a lower order is evaluated again, first, with whatever below it is
    held too low: nothing that ``memo`` lacks is below it.
    """

    def short(n, k):  # fewer rows than order k has terms; an inverse's are shape[-2]
        return memo[n].shape[-2] < jet_space(nvars, k).nterms

    nodes, frontier = _walk(want, memo)
    tops = dict.fromkeys(nodes, 0)
    tops.update(want)
    for n in reversed(nodes):
        k = tops[n] + (type(n) is Partial)
        if k:  # an order-0 reader leaves its operands at order 0 or more
            for r in n._operands():
                if tops.get(r, 0) < k:
                    tops[r] = k
    todo = [(f, tops.get(f, 0)) for f in frontier if short(f, tops.get(f, 0))]
    if todo:
        again = {}  # the stored nodes to evaluate again, at their top orders
        while todo:
            n, k = todo.pop()
            if again.get(n, -1) < k and short(n, k):
                again[n] = k
                k += type(n) is Partial
                todo += ((r, k) for r in n._operands())
        # a root held too low may be among them: it is evaluated once, first
        nodes = _walk(again, memo)[0] + [n for n in nodes if n not in again]
        tops.update(again)
    return nodes, tops


class _Restriction:
    """The node of a tape entry restricting a jet to its reader's space."""

    __slots__ = ()


_OPERANDS = operator.methodcaller("_operands")


def _sum_coeffs(node: Sum, space, jets, p: ChartPoint) -> np.ndarray:
    """The coefficients of ``node`` in ``space`` from ``jets``, those of
    its operands in order: the chain's operations, in its order."""
    nt, start, owned = space.nterms, node.start, False
    if type(start) is not Const:
        jet = next(jets)
        acc = jet if len(jet) == nt else jet[:nt]
    elif node.terms[0][0] > 0 and (start is ZERO or start is _NEG_ZERO):
        acc = None  # the folds start the chain at its first product
    elif start is ZERO:
        acc = 0.0  # stands for ZERO's jet, each of whose rows is 0.0
    else:
        acc = constant(space, start.v, p.npoints)
    for term in node.terms:
        prod = None
        for f in term[1:]:
            if type(f) is Const:  # a leading constant is a number until its factor comes
                prod = f.v if prod is None else prod * f.v + 0.0
                continue
            jet = next(jets)
            x = jet if len(jet) == nt else jet[:nt]
            if prod is None:
                prod = x
            elif type(prod) is float:  # a number: no 0 * inf, and -0.0 + 0.0 is +0.0 as in mul_coeffs
                prod = x * prod + 0.0
            else:
                prod = mul_coeffs(space, prod, x)
        if type(prod) is float:
            prod = constant(space, prod, p.npoints)
        if acc is None:
            acc = prod
        elif owned:
            (np.add if term[0] > 0 else np.subtract)(acc, prod, out=acc)
        else:
            acc, owned = acc + prod if term[0] > 0 else acc - prod, True
    return acc


def _run(entries, vals: dict, p: ChartPoint):
    """Evaluate ``(node, space, reads, plan, free)`` entries in order at ``p``.

    Each entry reads its operands' jets from ``vals`` under ``reads`` (the
    leading rows its ``space`` needs), stores its jet under ``node`` and
    deletes the keys in ``free``.  A tape's ``plan`` names the rows a
    ``Partial`` or restriction reads or where a ``Coord`` sits; None means
    the full space.  The order is ``_walk``'s depth-first postorder, so it
    depends on the graph alone: the first ``JetDomainError`` (given the chart
    point of its first bad sample) is the one a recursive evaluation raises.
    """
    try:
        for node, space, reads, plan, free in entries:
            kind = type(node)
            if kind is Sum:
                jet = _sum_coeffs(node, space, map(vals.__getitem__, reads), p)
            elif kind is Partial:  # the parent's rows one order up, valid on a longer jet
                up = plan or jet_space(space.nvars, space.order + 1).partial_table(node.var)
                jet = vals[reads[0]][up[0]] * up[1]
            elif kind is Pow:
                jet = power(space, vals[reads[0]][: space.nterms], node.n)
            elif kind is Func:
                jet = FUNCTIONS[node.name](space, vals[reads[0]][: space.nterms])
            elif kind is _MatInvEntry:  # a view of the owner's read-only array
                jet = vals[reads[0]][node.i, node.j]
            elif kind is _Restriction:
                jet = vals[reads[0]][plan]
            elif kind is Const:
                jet = constant(space, node.v, p.npoints)
            elif kind is Coord:
                value = p.flat[node.var]
                at = node.var if plan is None else plan[0]
                if at is None:  # the reader does not differentiate along it
                    jet = constant(space, value, p.npoints)
                else:
                    jet = variable(space, at, value)
            else:  # _MatrixInverse: every entry of the inverse at once
                A = np.array([vals[r][: space.nterms] for r in reads])
                jet = _jet_inverse(space, A.reshape(node.n, node.n, *A.shape[1:]))
            vals[node] = jet
            for dead in free:
                del vals[dead]
    except JetDomainError as err:
        if err.point is None:
            err.point = p.text(err.index)
        raise


def _memo_eval(roots, order: int, p: ChartPoint):
    """Store in the point's memo a jet of each of ``roots`` at ``order``
    or higher, evaluating only what the memo lacks or holds too short."""
    memo, n = p._cache, 3 * p.m
    nterms = jet_space(n, order).nterms  # refuses a negative order
    want = {f: order for f in roots if f not in memo or len(memo[f]) < nterms}
    if want:
        nodes, tops = _plan(want, memo, n)
        spaces = [jet_space(n, tops[f]) for f in nodes]
        _run(zip(nodes, spaces, map(_OPERANDS, nodes), repeat(None), repeat(())), memo, p)


def _tape_entries(roots, order: int, m: int) -> list:
    """The entries of a tape for ``roots`` at ``order``, at points of
    dimension ``m``: each node at its top order (``_plan``) over its
    demand, as the module docstring says.  An operand over more variables
    or at a higher order than its reader is restricted once per
    (variables, order), by an entry placed before its first reader.  Each
    entry frees the jets it was the last to read.
    """
    full = tuple(range(3 * m))
    every = frozenset(full)
    nodes, tops = _plan(dict.fromkeys(roots, order), {}, 3 * m)
    demand = dict.fromkeys(roots, every)
    for n in reversed(nodes):
        kind = type(n)
        # an inverse entry passes its demand on, so a root entry's owner is over all 3m
        want = demand.get(n, _NO_VARS) if tops[n] or kind is _MatInvEntry else _NO_VARS
        if kind is Partial:
            want = _union(want, frozenset((n.var,)))
        if want:
            for r in n._operands():
                d = demand.get(r)
                demand[r] = want if d is None else _union(d, want)
    sorted_vars = {every: full}  # demand -> its sorted tuple, one object per set
    over = {}  # node -> the (sorted variables, order) of its jet
    restricted = {}  # (node, variables, order) -> the key of that restriction
    entries = []

    def read(r, own, k):
        src, kr = over[r]
        if src is own and kr == k:
            return r
        rkey = restricted.get((r, own, k))
        if rkey is None:
            rkey = restricted[r, own, k] = _Restriction()
            entries.append([rkey, jet_space(len(own), k), (r,), restriction(src, own, k), ()])
        return rkey

    for n in nodes:
        k, d = tops[n], demand.get(n)
        own = sorted_vars.get(d) or sorted_vars.setdefault(d, tuple(sorted(d))) if k else full
        kind = type(n)
        reads = n._operands()
        plan = None
        if kind is Partial:
            plan = partial_rows(over[n.parent][0], own, k, n.var)
        elif kind is Coord:
            plan = (own.index(n.var) if n.var in own else None,)
        elif kind is _MatInvEntry:
            own, k = over[n.owner]  # the owner's space holds the whole inverse
        elif kind is not Const:
            reads = tuple(read(r, own, k) for r in reads)
        over[n] = (own, k)
        entries.append([n, jet_space(len(own), k), reads, plan, ()])
    later = set(roots)  # keys read after the entry at hand; roots outlive the run
    for entry in reversed(entries):
        dead = [r for r in entry[2] if r not in later]
        if dead:
            later.update(dead)
            entry[4] = tuple(dict.fromkeys(dead))
    return entries


@contextmanager
def collector_paused():
    """Run the block with the cyclic garbage collector off, then leave it on
    or off as it was; reference counting alone frees the acyclic graphs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Tape:
    """The evaluation of ``roots`` at ``order``, for points used once.

    Compiled once per point dimension m (``_tape_entries``), at its first
    run there, it runs at any number of points; a run holds only the jets
    still to be read and stores nothing on the point.  The roots' jets
    equal the memo path's bit for bit.  A tape is not interned: its owner
    (the double field, for the action integrand) keeps it.
    """

    __slots__ = ("roots", "order", "_entries")

    def __init__(self, roots: tuple, order: int):
        self.roots, self.order = tuple(roots), order
        self._entries = {}

    def entries(self, m: int) -> list:
        """The run's entries at points of dimension ``m``."""
        entries = self._entries.get(m)
        if entries is None:
            # compiling allocates ~50k tuples and lists, which would set
            # off full cycle collections over the live graph's nodes
            with collector_paused():
                entries = self._entries[m] = _tape_entries(self.roots, self.order, m)
        return entries

    def run(self, p: ChartPoint) -> list:
        """The roots' jets at ``p``, in ``jet_space(3m, order)``."""
        vals = {}
        _run(self.entries(p.m), vals, p)
        nterms = jet_space(3 * p.m, self.order).nterms
        return [vals[f][:nterms] for f in self.roots]
