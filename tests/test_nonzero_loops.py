"""The construction loops that enumerate only terms which can be nonzero
build the very nodes of the dense loops they replace.

Each reference below is the dense loop body: it walks every index and
leaves the skipping of constant-zero terms to ``fsum`` (and to ``fdot``,
whose entries are ``fsum`` nodes, for a matrix product).  Nodes are
interned, so equal graphs are the same objects and every component is
compared with ``is``.
"""

from pathlib import Path

import numpy as np
import pytest

from bigtangent import bigcore, conns, dfield, fields, horizon, parse_expr, scene, tensorcalc as tc
from bigtangent.fields import fsum
from bigtangent.points import sample_box
from bigtangent.report import largest
from bigtangent.tensorcalc import GeneralizedSection, TensorField
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


def dense_courant_nijenhuis_values(pack, endo, p):
    m = pack.m
    n = 3 * m
    zero_vec = tc.vector(fields.fzeros(n), m)
    zero_form = tc.one_form(fields.fzeros(n), m)
    basis = [
        GeneralizedSection(tc.basis_vector(i, m), zero_form) for i in range(n)
    ] + [GeneralizedSection(zero_vec, tc.basis_form(i, m)) for i in range(n)]
    values = []
    for a, A in enumerate(basis):
        FA = endo(pack, A)
        for B in basis[a + 1 :]:
            FB = endo(pack, B)
            N = tc.courant_bracket(FA, FB)
            inner = tc.courant_bracket(FA, B)
            inner2 = tc.courant_bracket(A, FB)
            corr = endo(
                pack,
                GeneralizedSection(inner.X + inner2.X, inner.alpha + inner2.alpha),
            )
            N = GeneralizedSection(N.X - corr.X, N.alpha - corr.alpha)
            values += [N.X.value(p), N.alpha.value(p)]
    return values


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


def test_courant_nijenhuis_residual_builds_each_image_once():
    m = 2
    pack = bigcore.canonical_pack(m)
    p = sample_box(m, 3, seed=0).select(0)
    f = parse_expr("1 + x1*y2", m)

    def scaled(pack, A):  # f S_P, whose Courant-Nijenhuis tensor is not zero
        FA = bigcore.pair_endo_P(pack, A)
        return GeneralizedSection(FA.X * f, FA.alpha * f)

    calls = []

    def counting(pack, A):
        calls.append(A)
        return scaled(pack, A)

    got = bigcore._courant_nijenhuis_values(pack, counting, p)
    want = dense_courant_nijenhuis_values(pack, scaled, p)
    assert largest(*got) > 1e-3
    assert len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))
    basis = 6 * m  # the 3m basis vectors and the 3m basis forms
    assert len(calls) == basis + basis * (basis - 1) // 2  # the images, then one per pair


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
