"""Lazy scalar fields over the 3m chart with exact derivatives.

A ``ScalarField`` is a node in a computational graph.  Evaluating a node
at a ``ChartPoint`` produces a ``Jet``; requesting a partial derivative
returns a new node whose jet is read off the parent's jet one order
higher.  This keeps every derived tensor component (connection
coefficients, curvatures, ...) representable as a field again, with all
derivatives exact.

Nodes are hash-consed: every constructor looks its arguments up in one
module-level table of weak references, keyed by (class, arguments) with
child nodes compared by identity, and returns the live node equal to the
one requested instead of building a second; a hit does not run
``__init__`` again.  Structurally equal subgraphs are therefore one object.
A ``Const`` key also carries the sign of its value, so ``Const(-0.0)``
stays distinct from ``ZERO``.  An entry lives as long as its node, so
dropping the last reference to a graph frees it.

Each node records at construction its ``support``, the frozenset of
chart variables it can depend on; ``f.partial(v)`` is ``ZERO`` when ``v``
is not in ``f.support``, so structurally zero derivatives are never
built or evaluated.

A matrix product of object arrays of fields is numpy's ``@`` (or
``tensordot``), which adds the entries' products left to right from the
first; the arithmetic folds make that the node ``fsum`` builds for the
same terms.  Every other sum of field products is formed by ``fsum``: a
term ``(sign, *factors)`` multiplies its factors left to right and is
added to or subtracted from the running sum with ``+``/``-``; a term with
a constant-zero factor (``is_zero``, the test the arithmetic folds use)
is skipped before any product is built.  The folds would drop such a
term anyway, so ``fsum`` preserves the graph: it returns the very node
the equivalent ``acc = acc +/- a * b`` loop returns.  Only the order of
the terms shapes that node (and so the last bits of its values).  The
hot construction loops (curvature, Lie bracket and derivative, the
fiber wedge product) no longer hand it zero terms: they walk only the
indices in a factor's ``support`` or with a nonzero outer factor, in
the dense loop's order, so they build the same node.  The zero skip
stays for the remaining callers.

Evaluation never recurses.  The (node, order) keys below a set of roots
are compiled into a list of entries in dependency order (a ``Partial``
reads its parent one order higher, a matrix inverse all its entries at
the same order), and one loop runs them, each entry doing one ``Jet``
operation on its operands' jets (a constant factor of ``*``, or a
constant numerator of ``/``, scales the other jet as a number, so an
overflowed row takes no 0 * inf).  Graph height is therefore bounded by
memory, not by Python's recursion limit.  Every point is one batch, a
``ChartPoint`` whose ``flat`` array (3m, npoints) a ``Coord`` reads its
row of.  The loop serves two callers:

- suite points, which verification reuses across many fields: ``jet``,
  ``value`` and ``fvalue`` keep every jet in the point's memo, keyed by
  (node, order), compile only what the memo lacks and store the results
  there.  Equal subgraphs are one node, so they share one memo slot, and
  the memo is freed when the point is dropped.
- points evaluated once, the action integrand's chunks: the ``Tape`` of
  the integrand, which its one owner ``DoubleField.integrand_tape``
  compiles once, frees each jet right after its last use, so a run holds
  only the jets still to be read, and it stores nothing on the point.

Each path wins a benchmark workload, so both stay.  Compiling every memo
call as a tape gave the same reports but took the benchmark's m = 3
identity-check body from 3.15-3.31 to 4.58-4.87 s and its body of four
one-point ``eval --object dfield.rho`` probes from 0.99-1.01 to
1.29-1.31 s (one width-1 ``rho`` took 157-242 ms on a tape, 121-185 ms
on the memo; best of three, 2-vCPU host).  The integrand, evaluated
once per point, pays for the tape through the restricted jet spaces
below: without them the kitchen-sink check body took 1.77-1.79 s,
against 1.54-1.56 s.

The memo path evaluates every jet in all 3m chart variables.  A tape
evaluates each key of order >= 1 only in the variables its readers
differentiate along, its demand D: a ``Partial`` along v read along D
reads its parent along D and v, every other node reads its operands
along its own D, a key read by several readers gets the union, and the
roots (and every order-0 key) keep all 3m.  The jet over D is the
full-space jet restricted to the terms in D's variables, bit for bit: a
coefficient in those variables sums the same products of coefficients
in those variables, and restricting the term order (by degree, then
lexicographic) to a subset of the variables keeps it as a subsequence,
so the products come in the same order (``multiindex``).  An operand
over more variables than its reader is restricted by one row gather; a
``Partial`` reads its parent's rows through a table between the two
spaces; a ``Coord`` whose variable is outside D is a constant.  The
demand is not intersected with a node's ``support``: a product of jets
over unequal variables would drop exact zeros, which can flip the sign
of a zero coefficient.

Both paths therefore return the same jets, bit for bit and in the same
space.  A ``JetDomainError`` raised by a run gets the chart point of its
first bad sample attached.
"""

from __future__ import annotations

import gc
import math
import operator
import weakref
import numpy as np

from .jets import Jet, JetDomainError, jet_space
from .multiindex import partial_rows, restriction
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


class _Interned(type):
    """Metaclass returning the live node equal to the one requested."""

    def _key(cls, *args) -> tuple:
        return (cls, *args)

    def __call__(cls, *args):
        key = cls._key(*args)
        ref = _NODES.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = super().__call__(*args)
            ref = _NODES[key] = _Ref(node, _forget)
            ref.key = key
        return node


def _union(a: frozenset, b: frozenset) -> frozenset:
    """``a | b``, reusing an operand when it already covers the other."""
    if b <= a:
        return a
    return b if a <= b else a | b


class ScalarField(metaclass=_Interned):
    """Base node; subclasses set ``support`` and name their ``_operands``."""

    __slots__ = ("support", "__weakref__")

    def jet(self, p: ChartPoint, order: int) -> Jet:
        """The jet at ``p`` truncated at ``order``, memoised on ``p``."""
        key = (self, order)
        hit = p._cache.get(key)
        if hit is None:
            hit = _memo_jets([key], p)[0]
        return hit

    def _operands(self, order: int) -> tuple:
        """The (node, order) keys whose jets this node's jet is computed
        from, in the order it reads them."""
        return ()

    def value(self, p: ChartPoint) -> np.ndarray:
        return self.jet(p, 0).value

    def partial(self, var: int) -> "ScalarField":
        return Partial(self, var) if var in self.support else ZERO

    # -- arithmetic (with light constant folding) ------------------------
    # Most operands are not constants, so each fold sits behind one test.
    def __add__(self, other):
        other = as_field(other)
        if type(self) is Const or type(other) is Const:
            if is_zero(other):
                return self
            if is_zero(self):
                return other
            if type(self) is type(other):
                return Const(self.v + other.v)
        return Bin("+", self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_field(other)
        if type(other) is Const:
            if is_zero(other):
                return self
            if type(self) is Const:
                return Const(self.v - other.v)
        return Bin("-", self, other)

    def __rsub__(self, other):
        return as_field(other) - self

    def __neg__(self):
        if isinstance(self, Const):
            return Const(-self.v)
        return Bin("-", ZERO, self)

    def __mul__(self, other):
        other = as_field(other)
        if type(self) is Const or type(other) is Const:
            if is_zero(self) or is_zero(other):
                return ZERO
            if _is_const(self, 1.0):
                return other
            if _is_const(other, 1.0):
                return self
            if type(self) is type(other):
                return Const(self.v * other.v)
        return Bin("*", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_field(other)
        if type(other) is Const:
            if other.v != 0.0:
                # a constant factor, which evaluation scales by as a number
                return self * Const(1.0 / other.v)
            if is_zero(self):
                return ZERO
        return Bin("/", self, other)

    def __rtruediv__(self, other):
        return Bin("/", as_field(other), self)

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

    def __init__(self, v: float):
        self.v = float(v)
        self.support = _NO_VARS


ZERO = Const(0.0)
ONE = Const(1.0)


def _is_const(f, v) -> bool:
    return type(f) is Const and f.v == v


def is_zero(f) -> bool:
    """True for a constant-zero field, ``ZERO`` or ``Const(-0.0)``."""
    return type(f) is Const and f.v == 0.0


def fsum(terms, start=ZERO):
    """``start`` plus or minus the product of each term's factors.

    Each term is ``(sign, *factors)`` with ``sign`` +1 or -1; the factors
    are multiplied left to right.  A term with a constant-zero factor is
    skipped before any product is built.  The result is the node the loop
    ``acc = start; acc = acc +/- f1 * f2 * ...`` over the same terms
    returns.
    """
    acc = start
    for sign, *factors in terms:
        if any(map(is_zero, factors)):
            continue
        prod = factors[0]
        for f in factors[1:]:
            prod = prod * f
        acc = acc + prod if sign > 0 else acc - prod
    return acc


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


class Bin(ScalarField):
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b):
        self.op, self.a, self.b = op, a, b
        self.support = _union(a.support, b.support)

    def _operands(self, order):
        return ((self.a, order), (self.b, order))


class Pow(ScalarField):
    __slots__ = ("base", "n")

    def __init__(self, base, n):
        self.base, self.n = base, n
        self.support = base.support

    def _operands(self, order):
        return ((self.base, order),)


class Func(ScalarField):
    __slots__ = ("name", "arg")

    def __init__(self, name, arg):
        self.name, self.arg = name, arg
        self.support = arg.support

    def _operands(self, order):
        return ((self.arg, order),)


class Partial(ScalarField):
    __slots__ = ("parent", "var")

    def __init__(self, parent, var):
        self.parent, self.var = parent, int(var)
        self.support = parent.support

    def _operands(self, order):
        return ((self.parent, order + 1),)


def field(text: str, m: int) -> ScalarField:
    """The graph of the DSL expression ``text``, as ``exprdsl.parse_expr``."""
    from .exprdsl import parse_expr  # exprdsl builds the nodes of this module

    return parse_expr(text, m)


# -- object arrays of fields ----------------------------------------------
def fzeros(*shape) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    out[...] = ZERO
    return out


def fvalue(arr, p: ChartPoint) -> np.ndarray:
    """Evaluate an object array (or a list) of fields to floats, with the
    points on a last axis."""
    arr = np.asarray(arr, dtype=object)
    jets = _memo_jets([(as_field(f), 0) for f in arr.flat], p)
    out = np.empty(arr.shape + (p.npoints,))
    for idx, jet in zip(np.ndindex(arr.shape), jets):
        out[idx] = jet.value
    return out


# -- jet-exact matrix inversion -------------------------------------------
def _jet_inverse(A: np.ndarray) -> np.ndarray:
    """Invert a square object array of jets (one shared space) by Newton
    iteration.

    The seed is numpy's inverse of the value part at each point; each Newton
    step X <- X(2I - AX) doubles the order to which X is exact, so
    ceil(log2(order+1)) steps suffice.
    """
    space, npoints = A[0, 0].space, A[0, 0].npoints
    n = len(A)
    inv0 = np.linalg.inv(np.moveaxis(np.array([[a.value for a in row] for row in A]), -1, 0))
    X = np.empty((n, n), dtype=object)
    for i, j in np.ndindex(n, n):
        X[i, j] = Jet.constant(space, inv0[:, i, j], npoints)
    steps = 0 if space.order == 0 else math.ceil(math.log2(space.order + 1))
    diag = np.diag_indices(n)
    for _ in range(steps):
        E = -(A @ X)  # E = 2I - AX
        E[diag] = E[diag] + 2.0
        X = X @ E
    return X


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

    def _operands(self, order):
        return tuple((f, order) for row in self.rows for f in row)


class _MatInvEntry(ScalarField):
    __slots__ = ("owner", "i", "j")

    def __init__(self, owner, i, j):
        self.owner, self.i, self.j = owner, i, j
        self.support = owner.support

    def _operands(self, order):
        return ((self.owner, order),)


def finverse(mat: np.ndarray) -> np.ndarray:
    """Entrywise fields of the inverse of a field matrix (jet-exact)."""
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    owner = _MatrixInverse(tuple(tuple(as_field(f) for f in row) for row in mat))
    out = np.empty((owner.n, owner.n), dtype=object)
    for i in range(owner.n):
        for j in range(owner.n):
            out[i, j] = _MatInvEntry(owner, i, j)
    return out


def fdet(mat: np.ndarray) -> ScalarField:
    """Determinant of a small field matrix by cofactor expansion."""
    n = mat.shape[0]
    if n == 1:
        return as_field(mat[0, 0])
    if n == 2:
        return mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    rows = np.delete(mat, 0, axis=0)
    return fsum(
        (-1 if j % 2 else 1, as_field(mat[0, j]), fdet(np.delete(rows, j, axis=1)))
        for j in range(n)
    )


# -- evaluation -------------------------------------------------------------
_DONE = object()  # pushed above an entry, so it is popped once the entry's operands are done


def _compile(keys, memo):
    """Yield entries ``(key, reads, plan, free)`` for the (node, order) keys
    at and below ``keys`` that ``memo`` lacks, each after its operands.

    The consumer must add each yielded key to ``memo`` before it asks for
    the next entry: the walk skips the keys ``memo`` holds, and graphs
    are acyclic, so no key is yielded twice.  ``reads`` are the keys of
    the operands, ``plan`` is None (every jet in the full space) and
    ``free`` is empty.  The order is the one in which a depth-first
    evaluation of the keys in turn, each node reading its operands in
    turn, completes them; the first domain error a run raises is
    therefore the one that evaluation would raise.  The walk keeps its
    own stack, so graph height is bounded by memory only, and a run that
    consumes it as it goes holds no list of entries.
    """
    stack = list(reversed(keys))
    push, pop = stack.append, stack.pop
    while stack:
        key = pop()
        if key is _DONE:
            yield pop()
        elif key not in memo:
            reads = key[0]._operands(key[1])
            push((key, reads, None, ()))
            push(_DONE)
            stack.extend(reversed(reads))


class _Restriction:
    """The node of a tape entry that restricts an operand's jet to the
    fewer variables of its reader."""

    __slots__ = ()


_BIN_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _scaled(jet: Jet, v: float) -> Jet:
    """``jet`` times the constant ``v``, as a number.  On finite rows this
    is the product with ``v``'s constant jet bit for bit (that jet's zero
    rows add only zeros, and ``+ 0.0`` turns a -0.0 into +0.0 as the
    product does), but a row where ``jet`` overflowed takes no 0 * inf."""
    return Jet(jet.space, jet.c * v + 0.0)


def _run(entries, vals: dict, p: ChartPoint):
    """Evaluate ``(key, reads, plan, free)`` entries in order at ``p``.

    Each entry reads its operands' jets from ``vals`` under the keys in
    ``reads``, stores its own jet there under ``key`` and then deletes the
    keys named in ``free``.  A ``plan`` of None evaluates in the full
    space of the chart; a tape's plan names the entry's smaller space and
    the table it reads its operand through.  A ``JetDomainError`` gets the
    chart point of its first bad sample.
    """
    try:
        for key, reads, plan, free in entries:
            node, order = key
            kind = type(node)
            if kind is Bin:
                a, b = reads
                op = node.op
                if op == "*" and type(node.a) is Const:
                    jet = _scaled(vals[b], node.a.v)
                elif op == "*" and type(node.b) is Const:
                    jet = _scaled(vals[a], node.b.v)
                elif op == "/" and type(node.a) is Const:
                    jet = _scaled(vals[b].reciprocal(), node.a.v)
                else:
                    jet = _BIN_OPS[op](vals[a], vals[b])
            elif kind is Partial:
                if plan is None:
                    jet = vals[reads[0]].partial(node.var)
                else:
                    space, rows, factor = plan
                    jet = Jet(space, vals[reads[0]].c[rows] * factor)
            elif kind is Pow:
                jet = vals[reads[0]] ** node.n
            elif kind is Func:
                jet = getattr(vals[reads[0]], node.name)()
            elif kind is _MatInvEntry:
                jet = vals[reads[0]][node.i, node.j]
            elif kind is _Restriction:
                space, rows = plan
                jet = Jet(space, vals[reads[0]].c[rows])
            elif kind is Const:
                jet = Jet.constant(plan or jet_space(3 * p.m, order), node.v, p.npoints)
            elif kind is Coord:
                value = p.flat[node.var]
                space, at = plan or (jet_space(3 * p.m, order), node.var)
                if at is None:  # the reader does not differentiate along it
                    jet = Jet.constant(space, value, p.npoints)
                else:
                    jet = Jet.variable(space, at, value)
            else:  # _MatrixInverse: every entry of the inverse at once
                A = np.fromiter((vals[r] for r in reads), dtype=object, count=len(reads))
                jet = _jet_inverse(A.reshape(node.n, node.n))
            vals[key] = jet
            for dead in free:
                del vals[dead]
    except JetDomainError as err:
        if err.point is None:
            err.point = p.text(err.index)
        raise


def _memo_jets(keys, p: ChartPoint) -> list:
    """The jets of ``keys`` at ``p``, evaluating only what the point's
    memo lacks and keeping every result in it."""
    memo = p._cache
    _run(_compile(keys, memo), memo, p)
    return [memo[key] for key in keys]


def _demand(entries, demand: dict) -> dict:
    """Extend ``demand``, the chart variables the roots are differentiated
    along, to every key of order >= 1 below them: a ``Partial`` along
    ``v`` read along D reads its parent along D and ``v``; every other
    node reads its operands along its own D.  A key read by several
    readers gets the union.  Order-0 keys are read along nothing."""
    for key, reads, _, _ in reversed(entries):
        want = demand.get(key, _NO_VARS)
        if type(key[0]) is Partial:
            want = want | {key[0].var}
        for r in reads:
            if r[1]:
                demand[r] = _union(demand[r], want) if r in demand else want
    return demand


def _tape_entries(keys, m: int) -> list:
    """The entries of a tape for ``keys`` at points of dimension ``m``.

    A key of order >= 1 is evaluated over the variables ``_demand`` gives
    it, the roots and every order-0 key over all 3m.  A ``Partial`` reads
    its parent through ``multiindex.partial_rows``; a ``Coord`` is a
    constant where its variable is not read; an operand over more
    variables than its reader is restricted once per set of variables, by
    an entry placed before its first reader.  Each entry frees the jets
    it was the last to read.
    """
    full = tuple(range(3 * m))
    compiled = {}
    for entry in _compile(keys, compiled):
        compiled[entry[0]] = entry
    demand = _demand(list(compiled.values()), {key: frozenset(full) for key in keys if key[1]})
    sorted_vars = {frozenset(full): full}  # demand -> its sorted tuple, one object per set
    over = {}  # key -> the sorted variables its jet is over
    restricted = {}  # (key, variables) -> the key of that restriction
    entries = []

    def read(r, own):
        if over[r] is own:
            return r
        rkey = restricted.get((r, own))
        if rkey is None:
            rkey = restricted[r, own] = (_Restriction(), r[1])
            plan = (jet_space(len(own), r[1]), restriction(over[r], own, r[1]))
            entries.append([rkey, (r,), plan, ()])
        return rkey

    for key, reads, _, _ in compiled.values():
        node, order = key
        kind = type(node)
        own = full
        if order:
            d = demand[key]
            own = sorted_vars.get(d) or sorted_vars.setdefault(d, tuple(sorted(d)))
        plan = None
        if kind is Partial:
            space = jet_space(len(own), order)
            plan = (space, *partial_rows(over[reads[0]], own, order, node.var))
        elif kind is Const:
            plan = jet_space(len(own), order)
        elif kind is Coord:
            at = own.index(node.var) if node.var in own else None
            plan = (jet_space(len(own), order), at)
        elif kind is _MatInvEntry:
            own = over[reads[0]]  # the owner's space holds the whole inverse
        else:
            for r in reads:
                if over[r] is not own:
                    reads = tuple(read(r, own) for r in reads)
                    break
        over[key] = own
        entries.append([key, reads, plan, ()])
    later = set(keys)  # keys read after the entry at hand; roots outlive the run
    for entry in reversed(entries):
        dead = [r for r in entry[1] if r not in later]
        if dead:
            later.update(dead)
            entry[3] = tuple(dict.fromkeys(dead))
    return entries


class Tape:
    """The evaluation of ``roots`` at ``order``, for points used once.

    Compiled once per point dimension m, at its first run there, it runs
    at any number of points.  Each (node, order) key with order >= 1 is
    evaluated over the chart variables its readers differentiate along
    (``_demand``), not all 3m; each entry frees the jets it was the last
    to read, so a run holds only the jets still to be read, and nothing
    is stored on the point.  The roots' jets equal the memo path's bit
    for bit.  A tape is not interned: its owner (the double field, for
    the action integrand) keeps it, so it is compiled once.
    """

    __slots__ = ("keys", "_entries")

    def __init__(self, roots: tuple, order: int):
        self.keys = [(f, order) for f in roots]
        self._entries = {}

    def entries(self, m: int) -> list:
        """The run's entries at points of dimension ``m``."""
        entries = self._entries.get(m)
        if entries is None:
            # compiling allocates ~100k tuples and lists, which would set
            # off full cycle collections over the live graph's nodes
            enabled = gc.isenabled()
            gc.disable()
            try:
                entries = self._entries[m] = _tape_entries(self.keys, m)
            finally:
                if enabled:
                    gc.enable()
        return entries

    def run(self, p: ChartPoint) -> list:
        """The roots' jets at ``p``."""
        vals = {}
        _run(self.entries(p.m), vals, p)
        return [vals[key] for key in self.keys]
