"""The construction loops that enumerate only terms which can be nonzero
build the very nodes of the dense loops they replace.

Each reference below is the dense loop body: it walks every index and
leaves the skipping of constant-zero terms to ``fsum`` (and to ``fdot``,
whose entries are ``fsum`` nodes, for a matrix product).  Nodes are
interned, so equal graphs are the same objects and every component is
compared with ``is``.
"""

from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

from bigtangent import bigcore, conns, dfield, fields, horizon, parse_expr, scene
from bigtangent import tensorcalc as tc
from bigtangent.fields import fsum
from bigtangent.tensorcalc import TensorField
from oracles import (
    contracted_curvature,
    deformed_curvature_apply,
    dense_deformed_curvatures,
    horizontal_frame,
)

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def _m3_field():
    """A flat-bundle m = 3 double field whose sigma depends on y and z."""
    sigma = [
        ["1 + (1/2)*y2^2", "(1/10)*y3*z1", "0"],
        ["(1/10)*y3*z1", "1 + (1/4)*z2^2", "0"],
        ["0", "0", "1"],
    ]
    return dfield.DoubleField(horizon.flat_bundle(3), sigma)


@pytest.fixture(scope="module", params=["kitchen-sink", "m3-flat"])
def ladder(request):
    """A double field, its connections (Dbar, Dtilde), the natural-frame
    lift of sigma that the field's base connection c0 builds, its
    Levi-Civita connection and the projection of that onto the bundle."""
    if request.param == "kitchen-sink":
        F = scene.load_scene(str(SCENES / "kitchen-sink.scene")).double_field
    else:
        F = _m3_field()
    m = F.m
    sinv = fields.finverse(F.sigma)
    comps = fields.fzeros(3 * m, 3 * m)
    for i, j in np.ndindex(m, m):
        comps[i, j] = F.sigma[i, j]
        comps[m + i, m + j] = F.sigma[i, j]
        comps[2 * m + i, 2 * m + j] = sinv[i, j]
    gsig = horizon.to_natural(TensorField(("down", "down"), comps, m, frame="adapted"), F.H)
    D = conns.levi_civita(gsig)
    return F, F.connections, gsig, D, conns.vranceanu_bott(D, F.H)


def _same(got, want):
    got, want = np.asarray(got, dtype=object), np.asarray(want, dtype=object)
    assert got.shape == want.shape
    assert all(g is w for g, w in zip(got.flat, want.flat))


def _sections(m, F):
    """The fiber coordinate basis and one section with no zero component."""
    s = np.array([F.sigma[v % m, (v + 1) % m] + fields.Coord(m + v) for v in range(2 * m)])
    return dfield._coord_basis(m) + [s]


# -- dense references -------------------------------------------------------
def dense_section_derivative(nabla, a, s):
    m = nabla.m
    out = fields.fzeros(2 * m)
    for c in range(2 * m):
        out[c] = fsum(
            ((1, s[b], nabla.gamma[a, b, c]) for b in range(2 * m)),
            start=nabla.H.frame_derivative(s[c], a),
        )
    return out


def dense_wedge_product(nabla, F, Y1, Y2):
    m = nabla.m
    beta = fields.fzeros(2 * m)
    for b in range(2 * m):
        d2 = dense_section_derivative(nabla, m + b, Y2)
        d1 = dense_section_derivative(nabla, m + b, Y1)
        beta[b] = fsum(
            term
            for p_, q in np.ndindex(2 * m, 2 * m)
            for term in ((1, Y1[p_], F.G[p_, q], d2[q]), (-1, Y2[p_], F.G[p_, q], d1[q]))
        )
    out = fields.fzeros(2 * m)
    for c in range(2 * m):
        out[c] = 0.5 * fsum((1, F.Ginv[c, b], beta[b]) for b in range(2 * m))
    return out


def dense_curvature(conn):
    n = conn.n
    g = conn.gamma
    c = fields.fzeros(n, n, n) if conn.H is None else conn.H.structure_functions
    out = fields.fzeros(n, n, n, n)
    for a in range(n):
        for b in range(a + 1, n):
            for cc in range(n):
                for e in range(n):
                    s = fsum(
                        (
                            term
                            for d in range(n)
                            for term in (
                                (1, g[b, cc, d], g[a, d, e]),
                                (-1, g[a, cc, d], g[b, d, e]),
                                (-1, c[a, b, d], g[d, cc, e]),
                            )
                        ),
                        start=conn.frame_derivative(g[b, cc, e], a)
                        - conn.frame_derivative(g[a, cc, e], b),
                    )
                    out[e, a, b, cc] = s
                    out[e, b, a, cc] = -1.0 * s
    return out


def dense_ambient_terms(D, E, a, b, k):
    n = len(E)
    for l in range(n):
        yield 1, E[l, a], E[k, b].partial(l)
        for j in range(n):
            yield 1, E[l, a], E[j, b], D.gamma[l, j, k]


def dense_bracket_components(X, Y):
    n = len(X)
    out = fields.fzeros(n)
    for k in range(n):
        out[k] = fsum(
            term
            for j in range(n)
            for term in ((1, X[j], Y[k].partial(j)), (-1, Y[j], X[k].partial(j)))
        )
    return out


def dense_courant_bracket(u, v):
    n = len(u) // 2
    X, a, Y, b = u[:n], u[n:], v[:n], v[n:]

    def terms(k):
        for sign, c, f in ((1, X, b[k]), (-1, Y, a[k])):
            for j in range(n):
                yield sign, c[j], f.partial(j)
        for j in range(n):
            for sign, c, f in ((1, b, X), (-1, a, Y), (1, Y, a), (-1, X, b)):
                yield sign, 0.5, c[j], f[j].partial(k)

    out = np.concatenate([dense_bracket_components(X, Y), fields.fzeros(n)])
    for k in range(n):
        out[n + k] = fsum(terms(k))
    return out


def dense_directional(X, f):
    return fsum((1, X.comps[i], f.partial(i)) for i in range(X.n))


def dense_lie_derivative(X, T):
    n = T.n

    def terms(idx):
        for a, var in enumerate(T.sig):
            for r in range(n):
                swapped = T.comps[idx[:a] + (r,) + idx[a + 1 :]]
                if var == "up":
                    yield -1, swapped, X.comps[idx[a]].partial(r)
                else:
                    yield 1, swapped, X.comps[r].partial(idx[a])

    out = np.empty(T.comps.shape, dtype=object)
    for idx in np.ndindex(T.comps.shape):
        out[idx] = fsum(terms(idx), start=dense_directional(X, T.comps[idx]))
    return out


def dense_fdot(a, b):
    a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    rows = a.reshape(-1, a.shape[-1]).tolist()
    cols = b.reshape(b.shape[0], -1).T.tolist()
    out = np.empty(len(rows) * len(cols), dtype=object)
    out[:] = [fsum(zip(repeat(1), row, col)) for row in rows for col in cols]
    return out.reshape(a.shape[:-1] + b.shape[1:])


def dense_schouten_bracket(P1, P2):
    n = P1.n
    out = fields.fzeros(n, n, n)
    for i, j, k in np.ndindex(n, n, n):
        out[i, j, k] = fsum(
            term
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
            for r in range(n)
            for term in (
                (1, P1.comps[r, a], P2.comps[b, c].partial(r)),
                (1, P2.comps[r, a], P1.comps[b, c].partial(r)),
            )
        )
    return out


def dense_scalar_curvature_in_basis(nabla, F, P):
    """The construction that applies the whole deformed curvature for
    each component it reads."""
    m = nabla.m
    basis = dfield._coord_basis(m)
    Ric = fields.fzeros(2 * m, 2 * m)
    for q in range(2 * m):
        for s in range(q, 2 * m):
            Ric[q, s] = 0.5 * fsum(
                (1, deformed_curvature_apply(nabla, basis[a], P[:, k], W, P[:, l])[a])
                for a in range(2 * m)
                for k, l in ((q, s), (s, q))
                for W in [dfield.deformed_bracket(nabla, F, basis[a], P[:, k])]
            )
            Ric[s, q] = Ric[q, s]
    Gt = fields.fdot(fields.fdot(P.T, F.G), P)
    Gtinv = fields.finverse(Gt)
    return fsum((1, Gtinv[q, s], Ric[q, s]) for q, s in np.ndindex(2 * m, 2 * m))


# -- the rewritten loops against them ----------------------------------------
def test_section_derivative_matches_the_dense_loop(ladder):
    F, (Dbar, Dtilde), *_ = ladder
    m = F.m
    for nabla in (Dbar, Dtilde, F.D0):
        for s in _sections(m, F):
            for a in range(3 * m):
                _same(dfield.section_derivative(nabla, a, s), dense_section_derivative(nabla, a, s))


def test_wedge_product_matches_the_dense_loop(ladder):
    F, (Dbar, _), *_ = ladder
    m = F.m
    secs = _sections(m, F)
    pairs = [(secs[a], secs[b]) for a in range(2 * m) for b in range(a + 1, 2 * m)]
    pairs += [(secs[0], secs[-1]), (secs[-1], F.B[:, m])]
    for Y1, Y2 in pairs:
        _same(dfield.wedge_product(Dbar, F, Y1, Y2), dense_wedge_product(Dbar, F, Y1, Y2))


def test_curvature_matches_the_dense_loop(ladder):
    *_, D, vb = ladder
    for conn in (D, vb):  # natural frame, then adapted with structure functions
        _same(conn.curvature.comps, dense_curvature(conn))


def test_ambient_terms_match_the_dense_loop(ladder):
    F, _, _, D, _ = ladder
    E, _ = F.H.frame
    n = 3 * F.m
    for a, b, k in np.ndindex(n, n, n):
        got = fsum(conns._ambient_terms(D, E, a, b, k))
        assert got is fsum(dense_ambient_terms(D, E, a, b, k))


def test_bracket_components_match_the_dense_loop(ladder):
    F, _, gsig, *_ = ladder
    E, _ = F.H.frame
    n = 3 * F.m
    cols = [E[:, a] for a in range(n)] + [gsig.comps[0], gsig.comps[F.m + 1]]
    for a, X in enumerate(cols):
        for Y in cols[a + 1 :]:
            _same(tc.bracket_components(X, Y), dense_bracket_components(X, Y))
    x = np.array([fields.Coord(i) for i in range(F.m)])  # a base bracket: j < n = m
    _same(tc.bracket_components(x, F.sigma[0]), dense_bracket_components(x, F.sigma[0]))


def test_courant_bracket_matches_the_dense_loop(ladder):
    F, _, gsig, *_ = ladder
    E, C = F.H.frame
    n = 3 * F.m
    sections = [np.concatenate([E[:, a], C[a]]) for a in range(n)]
    sections += [np.concatenate([gsig.comps[0], gsig.comps[F.m + 1]])]
    for a, u in enumerate(sections):
        for v in sections[a + 1 :]:
            _same(tc.courant_bracket(u, v), dense_courant_bracket(u, v))


def test_lie_derivative_and_directional_match_the_dense_loop(ladder):
    F, _, gsig, *_ = ladder
    m = F.m
    Xs = [tc.vector(gsig.comps[0], m), tc.vector(gsig.comps[m + 1], m)]
    Xs += horizontal_frame(F.H)
    Ts = [gsig, TensorField(("up", "down"), gsig.comps, m), tc.vector(gsig.comps[2 * m], m)]
    for X in Xs:
        for f in gsig.comps.flat:
            assert tc.directional(X, f) is dense_directional(X, f)
        for T in Ts:
            _same(tc.lie_derivative(X, T).comps, dense_lie_derivative(X, T))


def test_deformed_curvatures_build_each_bracket_once(ladder, monkeypatch):
    F, (Dbar, _), *_ = ladder
    m = F.m
    want = dense_deformed_curvatures(Dbar, F)
    calls = []
    deformed_bracket = dfield.deformed_bracket

    def counting(*args):
        calls.append(args)
        return deformed_bracket(*args)

    monkeypatch.setattr(dfield, "deformed_bracket", counting)
    K, Ric, rho = dfield.deformed_curvatures(Dbar, F)
    assert len(calls) == m * (2 * m - 1)  # one per direction pair a < b
    R, want_ric, want_rho = want
    _same(K, contracted_curvature(R))
    _same(Ric, want_ric)
    assert rho is want_rho
    _same(F.curvatures[0], K)
    assert F.curvatures[2] is rho


def test_base_connection_is_the_y_block_of_the_dense_projection(ladder):
    # c0 builds only the Levi-Civita symbols and projected coefficients
    # its y-block reads; the dense projection builds them all
    F, _, _, _, vb = ladder
    m = F.m
    _same(F.c0, dfield._metricize(F, vb.gamma[:, m : 2 * m, m : 2 * m]))


def test_fdot_matches_the_dense_loop():
    # factors drawn from ZERO, Const(-0.0), a raw 0.0, other constants and
    # fields, so rows and columns hold every kind of zero
    x, z = parse_expr("x1 + y1", 1), parse_expr("z1^2", 1)
    kinds = np.array(
        [fields.ZERO, fields.Const(-0.0), 0.0, 2.0, fields.ONE, -1.5, x, z, x * z], dtype=object
    )
    rng = np.random.default_rng(0)
    for shape_a, shape_b in [((3, 4), (4, 2)), ((4,), (4, 3)), ((2, 4), (4,)), ((2, 2, 4), (4, 2))]:
        for _ in range(20):
            a = kinds[rng.integers(len(kinds), size=shape_a)]
            b = kinds[rng.integers(len(kinds), size=shape_b)]
            _same(fields.fdot(a, b), dense_fdot(a, b))
    zero_row = np.array([fields.ZERO, fields.Const(-0.0), 0.0], dtype=object)
    _same(fields.fdot(zero_row, np.array([x, z, x * z], dtype=object)), fields.ZERO)


@pytest.mark.parametrize("m", [1, 2])
def test_schouten_bracket_matches_the_dense_loop(m):
    # the canonical P, and two bivectors that add entries in x, y and z to
    # P on overlapping sets of pairs
    P = bigcore.canonical_pack(m).P
    n = 3 * m

    def bivector(skip, shift):
        comps = P.comps.copy()
        for i, j in np.ndindex(n, n):
            if i < j and (i + j) % 3 != skip:
                f = P.comps[i, j] + fields.Coord((i + shift * j) % n) * fields.Coord(j) + 0.5
                comps[i, j], comps[j, i] = f, -f
        return TensorField(("up", "up"), comps, m)

    W, V = bivector(1, 1), bivector(2, 2)
    for P1, P2 in ((P, P), (P, W), (W, P), (W, W), (W, V), (V, W)):
        _same(tc.schouten_bracket(P1, P2).comps, dense_schouten_bracket(P1, P2))


# -- the section-derivative memo ---------------------------------------------
def test_section_derivative_is_memoised_read_only(monkeypatch):
    F = _m3_field()
    nabla = F.D0
    m = F.m
    s = _sections(m, F)[-1]
    calls = []
    frame_derivative = horizon.HorizontalBundle.frame_derivative

    def counting(self, f, a):
        calls.append(a)
        return frame_derivative(self, f, a)

    monkeypatch.setattr(horizon.HorizontalBundle, "frame_derivative", counting)
    first = dfield.section_derivative(nabla, 1, s)
    assert len(calls) == 2 * m
    second = dfield.section_derivative(nabla, 1, s.copy())  # equal inputs, another array
    assert second is first
    assert len(calls) == 2 * m  # the second call built nothing
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = fields.ONE


def test_scalar_curvature_in_basis_matches_the_dense_construction(ladder):
    # the basis of verify_double_field: a seeded mix of the coordinate
    # frame with a y1-dependent part
    F, (Dbar, _), *_ = ladder
    m = F.m
    mix = np.random.default_rng(1).normal(size=(2 * m, 2 * m)) + 2.0 * np.eye(2 * m)
    y1 = parse_expr("y1", m)
    P = fields.fzeros(2 * m, 2 * m)
    for a, b in np.ndindex(2 * m, 2 * m):
        P[a, b] = fields.as_field(mix[a, b]) + (0.1 * ((a + b) % 3)) * y1
    rho2 = dfield.scalar_curvature_in_basis(Dbar, F, P)
    assert rho2 is dense_scalar_curvature_in_basis(Dbar, F, P)
