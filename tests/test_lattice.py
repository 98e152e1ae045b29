"""Normal forms, torus closures and descriptors, reduction."""

import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow import exactlinalg as xl
from torusflow.errors import InternalInvariantError, NotInSpan
from torusflow.lattice import (
    ClosedSubgroupDescriptor,
    Lattice,
    Subspace,
    apply_j,
    hermite_normal_form,
    int_kernel_basis,
    is_j_stable,
    j_stable_closure,
    torus_closure,
)
from torusflow.numberfield import NumberField, rationals

from oracles import (
    annihilator_closure,
    in_span,
    int_det,
    is_saturated,
    orbit_coverage,
    project_onto_complement,
    rational_closure,
    rational_rank,
    reduce_points_by_matmul,
    reduction_residual_by_matmul,
    same_bits,
    subspace_orbit,
)


_I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def hnf_rows(rows):
    """The Hermite normal form of integer rows, which fixes their Z-span."""
    return hermite_normal_form(rows)[0]


def matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


@pytest.fixture(scope="module")
def K():
    return NumberField([-2, 0, 1], root_interval=(1, 2))


@pytest.fixture(scope="module")
def QQ():
    return rationals()


class TestHNF:
    def test_identity(self):
        H, U = hermite_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert H == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert U == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_gcd_pivot(self):
        # first column has gcd 1, so the pivot must become 1
        M = [[2, 4], [1, 3]]
        H, U = hermite_normal_form(M)
        assert H[0][0] == 1
        assert matmul(U, M) == H
        assert abs(int_det(U)) == 1
        # frozen full form from hand row reduction
        assert H == [[1, 1], [0, 2]]

    def test_reconstruction_random(self):
        rng = random.Random(5)
        for _ in range(50):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            M = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
            H, U = hermite_normal_form(M)
            assert matmul(U, M) == H
            assert abs(int_det(U)) == 1
            # inverse of U is integral and maps H back to M
            Uinv = _fraction_inverse(U)
            assert all(x.denominator == 1 for row in Uinv for x in row)
            assert matmul(Uinv, H) == M


def _fraction_inverse(U):
    n = len(U)
    aug = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)]
           for i, row in enumerate(U)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def assert_int_kernel(M, n):
    """int_kernel_basis(M, n) solves M k = 0 with n - rank(M) saturated rows."""
    K = int_kernel_basis(M, n)
    assert all(len(k) == n for k in K)
    assert all(matmul(M, [[x] for x in k]) == [[0]] * len(M) for k in K)
    assert len(K) == n - rational_rank(M)
    assert is_saturated(K, n)


class TestIntKernel:
    def test_full_rank(self):
        assert int_kernel_basis([[2, 0], [0, 3]], 2) == []

    def test_zero(self):
        assert sorted(int_kernel_basis([[0, 0], [0, 0]], 2)) == [[0, 1], [1, 0]]

    def test_random_properties(self):
        rng = random.Random(17)
        for _ in range(50):
            m, n = rng.randint(1, 4), rng.randint(1, 6)
            M = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
            assert_int_kernel(M, n)

    def test_int_kernel(self):
        # kernel of [1 -1 0] over Z
        basis = int_kernel_basis([[1, -1, 0]], 3)
        assert len(basis) == 2
        for v in basis:
            assert v[0] - v[1] == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    )
)
def test_hnf_kernel_hypothesis(M):
    H, U = hermite_normal_form(M)
    assert matmul(U, M) == H
    assert_int_kernel(M, 3)


class TestAnnihilator:
    """W is cut out by the rational forms vanishing on V, and Lambda cap W
    holds the integer points on which they all vanish."""

    def test_standard_basis(self, QQ):
        lat = Lattice(3, _I3, QQ)
        basis = [[QQ.one, QQ.zero, QQ.zero],
                 [QQ.zero, QQ.one, QQ.zero],
                 [QQ.zero, QQ.zero, QQ.one]]
        tc = torus_closure(Subspace(3, basis, QQ), lat)
        # no form vanishes on Q^3
        assert tc.W == lat.span
        assert hnf_rows(tc.lattice_coords) == _I3

    def test_sqrt2_vector(self, K):
        lat = Lattice(2, [[1, 0], [0, 1]], K)
        tc = torus_closure(Subspace(2, [[K.one, K.gen]], K), lat)
        assert tc.W == lat.span
        assert hnf_rows(tc.lattice_coords) == [[1, 0], [0, 1]]

    def test_mixed_vector(self, K):
        lat = Lattice(3, _I3, K)
        tc = torus_closure(Subspace(3, [[K.one, K.one, K.gen]], K), lat)
        # the forms are spanned by (1, -1, 0)
        assert tc.W == Subspace(3, [[1, 1, 0], [0, 0, 1]], K)
        assert hnf_rows(tc.lattice_coords) == [[1, 1, 0], [0, 0, 1]]

    def test_exactness(self, K):
        vec = [K.from_coords([1, 2]), K.from_coords([3, -1]), K.gen]
        tc = torus_closure(Subspace(3, [vec], K), Lattice(3, _I3, K))
        # power-basis rows (1, 3, 0) and (2, -1, 1): the forms are spanned by
        # (-3, 1, 7), and Z^3 cap W by (1, 3, 0) and (0, -7, 1)
        assert tc.W == Subspace(3, [[1, 3, 0], [2, -1, 1]], K)
        assert hnf_rows(tc.lattice_coords) == [[1, 3, 0], [0, 7, -1]]
        for c in tc.lattice_coords:
            assert -3 * c[0] + c[1] + 7 * c[2] == 0


class TestClosures:
    def test_rational_input_fixed(self, K):
        lat = Lattice(2, [[1, 0], [0, 1]], K)
        V = Subspace(2, [[1, 2]], K)
        assert rational_closure(V, lat) == V

    def test_sqrt2_line_fills_plane(self, K):
        lat = Lattice(2, [[1, 0], [0, 1]], K)
        V = Subspace(2, [[K.one, K.gen]], K)
        assert rational_closure(V, lat).dim == 2

    def test_symmetric_plane(self, K):
        lat = Lattice(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], K)
        V = Subspace(3, [[K.one, K.one, K.gen]], K)
        W = rational_closure(V, lat)
        assert W.dim == 2
        # W = {x1 = x2}
        assert W.contains_vector([1, 1, 0])
        assert W.contains_vector([0, 0, 1])
        assert not W.contains_vector([1, 0, 0])

    def test_not_in_span(self, K):
        lat = Lattice(2, [[1, 0]], K)
        V = Subspace(2, [[0, 1]], K)
        with pytest.raises(NotInSpan):
            rational_closure(V, lat)

    def test_idempotent_and_monotone(self, K):
        rng = random.Random(23)
        lat = Lattice(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], K)
        for _ in range(25):
            v1 = [K.from_coords([rng.randint(-3, 3), rng.randint(-2, 2)])
                  for _ in range(3)]
            v2 = [K.from_coords([rng.randint(-3, 3), rng.randint(-2, 2)])
                  for _ in range(3)]
            V = Subspace(3, [v1], K)
            V2 = Subspace(3, [v1, v2], K)
            W = rational_closure(V, lat)
            W2 = rational_closure(V2, lat)
            assert rational_closure(W, lat) == W
            assert W2.contains(W)

    def test_torus_trivial(self, K):
        lat = Lattice(2, [[1, 0], [0, 1]], K)
        tc = torus_closure(Subspace(2, [], K), lat)
        assert tc.torus_dim == 0 and tc.W.dim == 0

    def test_torus_full(self, K):
        lat = Lattice(2, [[1, 0], [0, 1]], K)
        tc = torus_closure(Subspace(2, [[K.one, K.gen]], K), lat)
        assert tc.torus_dim == 2
        assert tc.W.dim == 2

    def test_torus_axis(self, K):
        lat = Lattice(2, [[1, 0], [0, 1]], K)
        tc = torus_closure(Subspace(2, [[1, 0]], K), lat)
        assert tc.torus_dim == 1
        assert tc.lattice_coords in ([[1, 0]], [[-1, 0]])

    def test_integer_dual_inverts_lattice_coordinates(self, K):
        rng = random.Random(37)
        lat = Lattice(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], K)
        for _ in range(25):
            vec = [K.from_coords([rng.randint(-3, 3), rng.randint(-2, 2)])
                   for _ in range(3)]
            if not any(vec):
                continue
            tc = torus_closure(Subspace(3, [vec], K), lat)
            D = tc.integer_dual()
            C = [list(col) for col in zip(*tc.lattice_coords)]
            g = tc.torus_dim
            assert matmul(D, C) == [[int(i == j) for j in range(g)] for i in range(g)]

    def test_integer_dual_refuses_unsaturated_points(self, QQ):
        W = Subspace(2, [[1, 0]], QQ)
        tc = ClosedSubgroupDescriptor(W, [[2, 0]], [[2, 0]], W)
        with pytest.raises(InternalInvariantError):
            tc.integer_dual()

    def test_compactness_certificate_random(self, K):
        rng = random.Random(31)
        lat = Lattice(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], K)
        for _ in range(25):
            vec = [K.from_coords([rng.randint(-3, 3), rng.randint(-2, 2)])
                   for _ in range(3)]
            V = Subspace(3, [vec], K)
            if V.dim == 0:
                continue
            tc = torus_closure(V, lat)
            assert tc.torus_dim == tc.W.dim
            assert tc.W.contains(V)

    def test_skew_lattice_closures(self, K):
        lat = Lattice(2, [[1, 1], [0, 2]], K)
        # (1,1) is a lattice vector: its line is already rational
        V = Subspace(2, [[1, 1]], K)
        tc = torus_closure(V, lat)
        assert tc.W == V and tc.torus_dim == 1
        # irrational slope relative to the skew basis fills the plane
        Vi = Subspace(2, [[K.one, K.gen]], K)
        tci = torus_closure(Vi, lat)
        assert tci.W.dim == 2 and tci.torus_dim == 2
        # orbit oracle agrees
        pts = subspace_orbit(Vi, lat, 12000, seed=3)
        cov, off = orbit_coverage(tci, lat, pts, 0.05)
        assert cov >= 0.95 and off <= 1e-6
        pts1 = subspace_orbit(V, lat, 4000, seed=4)
        cov1, off1 = orbit_coverage(tc, lat, pts1, 0.05)
        assert cov1 >= 0.95 and off1 <= 1e-6


class TestReduction:
    def test_z2(self, K):
        lat = Lattice(2, [[1, 0], [0, 1]], K)
        out = lat.reduce_points([2.5, -0.25])[0]
        assert np.allclose(out, [[0.5, 0.75]])

    def test_partial_lattice(self, K):
        lat = Lattice(2, [[1, 0]], K)
        out = lat.reduce_points([3.7, 9.0])[0]
        assert np.allclose(out, [[0.7, 9.0]])

    def test_skew_basis(self, K):
        lat = Lattice(2, [[1, 1], [0, 2]], K)
        pts = np.array([[2.3, 3.3]])
        reduced, coords, _ = lat.reduce_points(pts)
        assert np.all(coords >= 0) and np.all(coords < 1)
        assert lat.reduction_residual(pts, reduced) <= 1e-9

    def test_residual_random(self, K):
        lat = Lattice(3, [[1, 2, 0], [0, 3, 1]], K)
        rng = np.random.default_rng(2)
        pts = rng.normal(scale=50.0, size=(500, 3))
        reduced, coords, perp = lat.reduce_points(pts)
        assert lat.reduction_residual(pts, reduced) <= 1e-9
        assert np.all(coords >= 0) and np.all(coords < 1)

    def test_empty_lattice(self, K):
        lat = Lattice(2, [], K)
        out = lat.reduce_points([1.5, 2.5])[0]
        assert np.allclose(out, [[1.5, 2.5]])

    @pytest.mark.parametrize("rows", [
        [[3, 1]],
        [[1, 0, 2, 0, 0, 1]],
        [[1, 2, 0], [0, 3, 1]],
        [[1, 0, 0, 0], [1, 1, 0, 0], [0, 5, 2, 1]],
    ], ids=["rank1-n2", "rank1-n6", "rank2-n3", "rank3-n4"])
    @pytest.mark.parametrize("m", [1, 2, 700])
    def test_reduction_keeps_the_bits_of_matmul_products(self, K, rows, m):
        # np.dot in place of @, and the differences taken in place, give
        # every bit of the formulas as first written, also on rows that are
        # not finite
        lat = Lattice(len(rows[0]), rows, K)
        rng = np.random.default_rng(m * 10 + len(rows))
        pts = rng.normal(size=(m, lat.ambient_dim)) * 10.0 ** rng.integers(
            -3, 15, size=(m, 1))
        if m > 2:
            pts[rng.integers(0, m, 6), rng.integers(0, lat.ambient_dim, 6)] = [
                np.inf, -np.inf, np.nan, np.inf, -np.inf, np.nan]
        with np.errstate(invalid="ignore", over="ignore"):
            got = lat.reduce_points(pts)
            expected = reduce_points_by_matmul(lat, pts)
            shifted = pts + rng.integers(-3, 4, size=(m, 1)) * np.asarray(
                lat.float_basis()[0])
            residual = lat.reduction_residual(shifted, got[0])
            expected_residual = reduction_residual_by_matmul(lat, shifted, got[0])
        assert all(same_bits(a, b) for a, b in zip(got, expected))
        assert same_bits(np.float64(residual), np.float64(expected_residual))


_SQRT2 = NumberField([-2, 0, 1], root_interval=(1, 2))
_small = st.integers(min_value=-3, max_value=3)
_entries = st.tuples(_small, _small).map(_SQRT2.from_coords)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(_entries, min_size=n, max_size=n), max_size=3),
            st.lists(_entries, min_size=n, max_size=n),
            st.lists(_entries, min_size=3, max_size=3),
            st.booleans(),
        )
    )
)
def test_contains_vector_matches_in_span(case):
    vectors, v, coeffs, inside = case
    if inside and vectors:
        v = xl._combination(coeffs, vectors, _SQRT2)
    S = Subspace(len(v), vectors, _SQRT2)
    assert S.contains_vector(v) == in_span(S.basis, v, _SQRT2)
    assert S.contains_vector(v) == in_span(vectors, v, _SQRT2)


_Q = rationals()
_THETA4 = NumberField([1, 0, -10, 0, 1], root_interval=(3, 4))
_ZETA8 = NumberField([1, 0, 0, 0, 1], root_box=((F(1, 2), 1), (F(1, 2), 1)))
_ZETA8.declare_complex_structure([0, 0, 1], [0, 0, 0, -1])
_HALF_S2 = _ZETA8.from_coords([0, F(1, 2), 0, F(-1, 2)])  # sqrt(2) / 2


def _coeffs(field, d):
    """Real field elements with small power-basis coordinates."""
    return st.lists(_small, min_size=d, max_size=d).map(field.from_coords)


# (field, lattice basis, coefficients of V's vectors over that basis)
_CLOSURE_CASES = {
    "Q": (_Q, _I3, _coeffs(_Q, 1)),
    "sqrt2": (_SQRT2, [[1, 0, 0], [0, 1, 0], [1, 1, 2]], _coeffs(_SQRT2, 2)),
    "theta4": (_THETA4, _I3, _coeffs(_THETA4, 4)),
    # the lattice Z + Z zeta8 in the first coordinate of C^2 and Z^2 in the
    # second, interleaved (Re, Im); the real elements of Q(zeta8) are
    # a + b sqrt(2), with sqrt(2) = zeta8 - zeta8^3
    "zeta8": (
        _ZETA8,
        [[1, 0, 0, 0], [_HALF_S2, _HALF_S2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        st.tuples(_small, _small).map(
            lambda ab: _ZETA8.from_coords([ab[0], ab[1], 0, -ab[1]])
        ),
    ),
}


def _skewed_basis(data, field, basis):
    """The basis rows times a random unimodular U: row i += k * row j, or a
    sign flip when i == j."""
    r = len(basis)
    U = [[int(i == j) for j in range(r)] for i in range(r)]
    ops = st.tuples(st.integers(0, r - 1), st.integers(0, r - 1), st.integers(-3, 3))
    for i, j, k in data.draw(st.lists(ops, max_size=8)):
        U[i] = [-x for x in U[i]] if i == j else [x + k * y for x, y in zip(U[i], U[j])]
    return [xl._combination(map(field.rational, u), basis, field) for u in U]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_CLOSURE_CASES)), st.data())
def test_closure_matches_the_annihilator(case, data):
    """Lambda cap W equals the annihilator's on any basis of Lambda, and W
    does not depend on that basis."""
    field, rows, coeff = _CLOSURE_CASES[case]
    r, n = len(rows), len(rows[0])
    basis = [[field.element(x) for x in row] for row in rows]
    combos = data.draw(
        st.lists(st.lists(coeff, min_size=r, max_size=r), min_size=1, max_size=2)
    )
    V = Subspace(n, [xl._combination(c, basis, field) for c in combos], field)
    lat = Lattice(n, _skewed_basis(data, field, basis), field)
    tc = torus_closure(V, lat)
    ref = annihilator_closure(V, lat)
    assert hnf_rows(tc.lattice_coords) == hnf_rows(ref)
    points = [xl._combination(map(field.rational, c), lat.basis, field) for c in ref]
    assert tc.W == Subspace(n, points, field)
    assert tc.W == torus_closure(V, Lattice(n, basis, field)).W


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_CLOSURE_CASES)), st.data())
def test_lambda_coordinates_of_combinations(case, data):
    """Coordinates over a skewed basis are the combination's coefficients;
    with the last basis vector dropped, a vector that needs it is outside."""
    field, rows, coeff = _CLOSURE_CASES[case]
    r, n = len(rows), len(rows[0])
    basis = _skewed_basis(data, field, [[field.element(x) for x in row] for row in rows])
    ints = data.draw(st.lists(st.integers(-9, 9), min_size=r, max_size=r))
    reals = data.draw(st.lists(coeff, min_size=r, max_size=r))
    lat = Lattice(n, basis, field)
    for c in (list(map(field.rational, ints)), reals):
        assert lat.lambda_coordinates(xl._combination(c, basis, field)) == c
    sub = Lattice(n, basis[:-1], field)
    last = data.draw(coeff.filter(bool))
    v = xl._combination(reals[:-1] + [last], basis, field)
    with pytest.raises(NotInSpan):
        sub.lambda_coordinates(v)
    assert Lattice(n, [], field).lambda_coordinates([field.zero] * n) == []
    with pytest.raises(NotInSpan):
        Lattice(n, [], field).lambda_coordinates(v)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_CLOSURE_CASES)), st.data())
def test_complement_part_matches_the_gram_solve(case, data):
    """complement_part agrees with solving the Gram system, is orthogonal to
    the subspace, and differs from its input by a member; 0-dimensional
    subspaces included."""
    field, rows, coeff = _CLOSURE_CASES[case]
    r, n = len(rows), len(rows[0])
    basis = _skewed_basis(data, field, [[field.element(x) for x in row] for row in rows])
    combos = data.draw(st.lists(st.lists(coeff, min_size=r, max_size=r), max_size=3))
    vectors = [xl._combination(c, basis, field) for c in combos]
    S = Subspace(n, vectors, field)
    for x in data.draw(st.lists(st.lists(coeff, min_size=n, max_size=n),
                                min_size=1, max_size=2)):
        part = S.complement_part(x)
        assert part == project_onto_complement(x, vectors, field)
        assert all(xl.dot(part, b) == 0 for b in S.basis)
        assert S.contains_vector(xl.vec_sub(x, part))
        assert Subspace(n, [], field).complement_part(x) == x


class TestComplexStructure:
    def test_apply_j(self):
        assert apply_j([1, 0, 0, 0]) == [0, 1, 0, 0]
        assert apply_j([0, 1, 0, 0]) == [-1, 0, 0, 0]

    def test_j_closure(self, K):
        S = Subspace(4, [[1, 0, 0, 0]], K)
        c = j_stable_closure(S)
        assert c.dim == 2 and is_j_stable(c)

    def test_j_stability_detection(self, K):
        assert not is_j_stable(Subspace(4, [[1, 0, 0, 0]], K))
        assert is_j_stable(Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0]], K))
