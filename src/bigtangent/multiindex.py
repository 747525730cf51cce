"""Multi-index bookkeeping for truncated jet (Taylor) arithmetic.

A jet in ``n`` variables truncated at total degree ``order`` stores one
coefficient per multi-index of degree <= order.  Everything here is
precomputed once per (n, order) pair and cached: the term list, the
index lookup, the sparse multiplication table, its layered form used by
the jet product, and the tables used to read off partial derivatives.

A jet need not carry every chart variable.  A jet "over" a sorted tuple
of chart variables ``vars`` lives in ``jet_space(len(vars), order)``, its
i-th variable standing for chart variable ``vars[i]``.  Terms are sorted
by degree and then lexicographically, and the terms of a jet over a
subset ``dst`` of ``src`` are the terms of the jet over ``src`` that
involve only ``dst``, in the same relative order.  Two tables connect
such jets, each built once per (source variables, target variables,
order) and cached:

- ``restriction(src, dst, order)``: the rows of a jet over ``src`` that
  form the same jet over ``dst``;
- ``partial_rows(src, dst, order, var)``: the rows and factors that read
  the derivative along ``var`` of a jet over ``src`` at ``order + 1`` as
  a jet over ``dst`` at ``order``.

A product, sum or analytic function of restricted jets is the
restriction of the full result, bit for bit: a coefficient in ``dst``
only is the sum of the products of coefficients in ``dst`` only, and
those products come in the same order in both spaces.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

Index = np.ndarray | slice  # rows to take: gathered by an array, viewed by a slice


def multi_indices(n: int, order: int) -> list[tuple[int, ...]]:
    """All exponent tuples of length n with total degree <= order.

    Sorted by (degree, lexicographic) so index 0 is always the constant
    term and the n linear terms follow, the last variable first.
    """
    out = []
    for deg in range(order + 1):
        for c in itertools.combinations_with_replacement(range(n), deg):
            e = [0] * n
            for i in c:
                e[i] += 1
            out.append(tuple(e))
    # combinations_with_replacement is lexicographic in the variable
    # choices; sort exponent tuples for a canonical order within degree.
    out.sort(key=lambda e: (sum(e), e))
    return out


class JetSpace:
    """Shared tables for jets in ``nvars`` variables at a fixed order."""

    def __init__(self, nvars: int, order: int):
        if nvars < 1 or order < 0:
            raise ValueError("need nvars >= 1 and order >= 0")
        self.nvars = nvars
        self.order = order
        self.terms = multi_indices(nvars, order)
        self.nterms = len(self.terms)
        self.index = {t: i for i, t in enumerate(self.terms)}
        self.degrees = np.array([sum(t) for t in self.terms], dtype=np.int64)
        self._mul_table = None
        self._mul_layers = None

    def _encode(self, exps) -> np.ndarray:
        """Integer key of each exponent row: its digits in base order + 1.

        The key of a sum of exponents of degree <= order is the sum of the
        keys.
        """
        base = self.order + 1
        dtype = np.int64 if base ** self.nvars < 2 ** 62 else object
        weights = base ** np.arange(self.nvars, dtype=dtype)
        return np.asarray(exps, dtype=dtype) @ weights

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """Term index of each exponent key."""
        own = self._encode(self.terms)
        by_key = np.argsort(own)
        return by_key[np.searchsorted(own[by_key], keys)]

    # -- multiplication -------------------------------------------------
    @property
    def mul_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(out_idx, a_idx, b_idx): c[out] += a[ai] * b[bi] over all rows.

        Rows run over the pairs (i, j) of terms with deg i + deg j <= order,
        in row-major (i, j) order.  Terms are sorted by degree, so the
        partners j of term i are the terms of degree <= order - deg i, a
        prefix of the term list.
        """
        if self._mul_table is None:
            upto = np.searchsorted(self.degrees, np.arange(self.order + 1), side="right")
            lens = upto[self.order - self.degrees]
            ai = np.repeat(np.arange(self.nterms), lens)
            bi = np.arange(len(ai)) - np.repeat(np.cumsum(lens) - lens, lens)
            keys = self._encode(self.terms)
            self._mul_table = (self._lookup(keys[ai] + keys[bi]), ai, bi)
        return self._mul_table

    @property
    def mul_layers(self) -> tuple[list[tuple[int, Index, Index]], np.ndarray | None]:
        """``mul_table`` regrouped for the jet product: (layers, pos).

        Output terms are sorted by their number of table rows, fewest
        first.  Layer k is (start, a_idx, b_idx): the k-th row, in table
        order, of every output term with more than k rows, in sorted term
        order, so each layer covers the sorted terms from ``start`` on.
        ``pos[t]`` is the sorted position of term t, and ``pos`` is None
        when the sorted order is the term order.  Summing the layers in
        turn adds each term's products in table order, the order
        ``np.add.at`` uses.  Up to order 1 the sorted order is the term
        order and every index is a slice, so the product gathers nothing.
        """
        if self._mul_layers is None:
            oi, ai, bi = self.mul_table
            counts = np.bincount(oi, minlength=self.nterms)
            by_count = np.argsort(counts, kind="stable")
            pos = np.empty(self.nterms, dtype=np.int64)
            pos[by_count] = np.arange(self.nterms)
            # rank of each row among the rows of its output term
            grouped = np.argsort(oi, kind="stable")
            first = np.cumsum(counts) - counts
            rank = np.empty(len(oi), dtype=np.int64)
            rank[grouped] = np.arange(len(oi)) - first[oi[grouped]]
            rows = np.lexsort((pos[oi], rank))
            ends = np.cumsum(np.bincount(rank))
            self._mul_layers = (
                [
                    (self.nterms - len(r), _as_slice(ai[r]), _as_slice(bi[r]))
                    for r in np.split(rows, ends[:-1])
                ],
                None if np.array_equal(pos, np.arange(self.nterms)) else pos,
            )
        return self._mul_layers

    # -- partial derivatives --------------------------------------------
    def partial_table(self, var: int) -> tuple[Index, np.ndarray]:
        """(rows, factor): the Taylor coefficients of d/dx_var, in
        JetSpace(nvars, order - 1), are ``factor * c[rows]``; this is
        ``partial_rows`` over all of the space's variables."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        every = tuple(range(self.nvars))
        return partial_rows(every, every, self.order - 1, var)


def _as_slice(idx: np.ndarray) -> Index:
    """``idx`` as a slice when it is a run of consecutive indices, or one
    index repeated (a length-1 slice, which broadcasts); else ``idx``."""
    lo = int(idx[0])
    if np.all(idx == lo):
        return slice(lo, lo + 1)
    if np.array_equal(idx, np.arange(lo, lo + len(idx))):
        return slice(lo, lo + len(idx))
    return idx


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


# -- tables between jets over different chart variables --------------------
def _terms_over(src: tuple, dst: tuple, order: int) -> np.ndarray:
    """The exponents of the terms of a jet over ``dst``, as rows over ``src``.

    A variable of ``dst`` outside ``src`` may only carry exponent 0, so a
    jet over any variables at order 0 reads the constant term.
    """
    terms = np.array(jet_space(len(dst), order).terms, dtype=np.int64)
    out = np.zeros((len(terms), len(src)), dtype=np.int64)
    at = {v: i for i, v in enumerate(src)}
    for j, v in enumerate(dst):
        if v in at:
            out[:, at[v]] = terms[:, j]
        elif terms[:, j].any():
            raise ValueError(f"variable {v} is not among {src}")
    return out


@lru_cache(maxsize=None)
def restriction(src: tuple, dst: tuple, order: int) -> Index:
    """Rows of a jet over ``src`` that form the jet over ``dst`` (a subset
    of ``src``), in its term order; a slice when they are consecutive."""
    space = jet_space(len(src), order)
    return _as_slice(space._lookup(space._encode(_terms_over(src, dst, order))))


@lru_cache(maxsize=None)
def partial_rows(src: tuple, dst: tuple, order: int, var: int) -> tuple[Index, np.ndarray]:
    """(rows, factor): the derivative along chart variable ``var`` of a jet
    over ``src`` at ``order + 1``, as a jet over ``dst`` at ``order``, is
    ``factor * c[rows]``; ``factor`` is a column, to broadcast over points.

    Over all of a space's variables this is its ``partial_table``.
    """
    up = _terms_over(src, dst, order)
    col = src.index(var)
    up[:, col] += 1
    space = jet_space(len(src), order + 1)
    rows = _as_slice(space._lookup(space._encode(up)))
    return rows, up[:, col, None].astype(np.float64)
