import hashlib
import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from conftest import e8_sum, moved, quad, random_symmetric, scrambled
from surgerykit import cli, intlattice, jsonio
from surgerykit.calculus import donaldson_obstruction
from surgerykit.intlattice import (AbelianGroupPresentation, IntegralLattice,
                                   LatticeError, _slide_rows,
                                   diagonalizable_over_Z, direct_sum, e8_matrix,
                                   homology_from_diagonal, inertia,
                                   short_vectors, snf_diagonal)


def _mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


# -- constructors ------------------------------------------------------------

def test_rejects_nonsquare_and_asymmetric():
    with pytest.raises(LatticeError):
        IntegralLattice([[1, 2]])
    with pytest.raises(LatticeError):
        IntegralLattice([[1, 2], [3, 1]])


@pytest.mark.parametrize("make, bad", [
    (lambda: IntegralLattice([[1.5, 2.9], [2.9, True]]), "1.5"),
    (lambda: IntegralLattice([["7"]]), "'7'"),
    (lambda: IntegralLattice([[2, 1], [1, True]]), "True"),
    (lambda: IntegralLattice.diagonal([2, 3.0]), "3.0"),
    (lambda: snf_diagonal(IntegralLattice([[2.5, 0], [0, 3]])), "2.5"),
])
def test_inexact_entries_are_refused_not_truncated(make, bad):
    with pytest.raises(LatticeError, match="^matrix entry must be an integer, got %s$" % bad):
        make()


def test_evaluate():
    L = IntegralLattice([[2, 1], [1, 2]])
    assert quad(L, [1, 0]) == 2
    assert quad(L, [1, -1]) == 2
    assert quad(L, [1, 1]) == 6


# -- Smith normal form -------------------------------------------------------

def test_snf_small_example():
    assert snf_diagonal(IntegralLattice.diagonal([2, 3])) == [1, 6]


def test_snf_zero_and_empty():
    assert snf_diagonal(IntegralLattice([[0, 0], [0, 0]])) == [0, 0]
    assert snf_diagonal(IntegralLattice([])) == []


def test_snf_decomposition_randomized():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 4)
        A = random_symmetric(rng, n, -9, 9)
        diag = snf_diagonal(IntegralLattice(A))
        assert len(diag) == n
        assert all(d >= 0 for d in diag)
        nz = [d for d in diag if d]
        assert diag == nz + [0] * (len(diag) - len(nz))
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        # independent oracle: sympy's invariant factors
        assert diag == _snf_oracle(A)


def _snf_oracle(A):
    want = [abs(int(x)) for x in sympy_snf(sympy.Matrix(A)).diagonal()]
    return want + [0] * (len(A) - len(want))


def test_snf_diagonal_against_sympy_up_to_12():
    # sizes where the unreduced Euclidean loop ran past 5 s (n = 9, 10):
    # full-rank forms, zero-diagonal forms and rank-deficient B diag B^T
    rng = random.Random(137)
    kinds = {"random": 0, "zero_diagonal": 0, "rank_deficient": 0}
    for t in range(200):
        n = rng.randint(1, 12)
        kind = list(kinds)[t % 3]
        if kind == "rank_deficient":
            k = rng.randint(0, n - 1)
            B = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
            d = [rng.choice((-3, -2, -1, 1, 2, 5)) for _ in range(k)]
            A = [[sum(B[i][s] * d[s] * B[j][s] for s in range(k)) for j in range(n)]
                 for i in range(n)]
        else:
            A = random_symmetric(rng, n, -3, 3)
            if kind == "zero_diagonal":
                for i in range(n):
                    A[i][i] = 0
        start = time.perf_counter()
        got = snf_diagonal(IntegralLattice(A))
        assert time.perf_counter() - start < 0.05, A
        assert got == _snf_oracle(A), A
        kinds[kind] += got.count(0) > 0
    assert kinds["rank_deficient"] >= 60


def test_snf_diagonal_against_sympy_at_20_to_40():
    # sizes where the smallest-pivot loop took 6-14 times the elimination:
    # dense forms, zero-diagonal forms, rank-deficient B diag B^T, and
    # E^T diag E with E unimodular and D a power of 2.  sympy's own time
    # at n = 33-40 is heavy-tailed (most forms 0.01-1 s, but 11 of 13
    # seeds tried drew a form it did not finish in 3 s), so the seed is
    # one whose 16 forms it answers in about 2.5 s.  [[4, 6], [6, 9]]
    # (D = 4) takes a column step that refills column 0.
    assert snf_diagonal(IntegralLattice([[4, 6], [6, 9]])) == [1, 0] == _snf_oracle([[4, 6], [6, 9]])
    rng = random.Random(4106)
    for t in range(16):
        n = rng.randint(20, 40)
        kind = t % 4
        if kind == 2:
            k = rng.randint(n // 2, n - 1)
            B = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
            d = [rng.choice((-3, -2, -1, 1, 2, 5)) for _ in range(k)]
            A = [[sum(B[i][s] * d[s] * B[j][s] for s in range(k)) for j in range(n)]
                 for i in range(n)]
        elif kind == 3:
            E = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(2 * n):
                i, j = rng.sample(range(n), 2)
                c = rng.choice((-1, 1))
                E[i] = [x + c * y for x, y in zip(E[i], E[j])]
            d = [rng.choice((-4, -2, -1, 1, 2, 4, 8)) for _ in range(n)]
            A = [[sum(E[s][i] * d[s] * E[s][j] for s in range(n)) for j in range(n)]
                 for i in range(n)]
        else:
            A = random_symmetric(rng, n, -3, 3)
            if kind == 1:
                for i in range(n):
                    A[i][i] = 0
        L = IntegralLattice(A)
        D = abs(inertia(L).pivot)
        assert kind != 3 or D & (D - 1) == 0, D
        assert kind != 2 or inertia(L).zero > 0
        assert snf_diagonal(L) == _snf_oracle(A), A


def test_snf_diagonal_takes_the_callers_inertia():
    L = IntegralLattice([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    assert snf_diagonal(L, inertia(L)) == snf_diagonal(L) == [1, 1, 4]


def test_snf_is_deterministic():
    L = IntegralLattice([[4, 6, 2], [6, 0, 3], [2, 3, 9]])
    assert snf_diagonal(L) == snf_diagonal(L) == _snf_oracle(L.entries)
    assert L.entries == [[4, 6, 2], [6, 0, 3], [2, 3, 9]]


def test_snf_skips_the_loop_on_a_unimodular_form(monkeypatch):
    # D = 1: gcd(x, 1) = 1 fixes every invariant factor
    def refuse(S, mod):
        raise AssertionError("_diagonal_mod ran with modulus %d" % mod)

    monkeypatch.setattr(intlattice, "_diagonal_mod", refuse)
    L = moved(direct_sum(e8_matrix(), IntegralLattice.diagonal([1, 1])), _slide_rows, 0, 9, 1)
    assert snf_diagonal(L) == [1] * 10
    assert snf_diagonal(IntegralLattice([[2, 1], [1, 1]])) == [1, 1]
    with pytest.raises(AssertionError, match="modulus 3"):
        snf_diagonal(IntegralLattice([[2, 1], [1, 2]]))


def test_homology_presentations():
    assert str(homology_from_diagonal(snf_diagonal(IntegralLattice([[0]])))) == "Z"
    assert str(homology_from_diagonal(snf_diagonal(IntegralLattice([[5]])))) == "Z/5"
    assert str(homology_from_diagonal(snf_diagonal(IntegralLattice([[1]])))) == "0"
    h = homology_from_diagonal(snf_diagonal(IntegralLattice.diagonal([2, 4, 0])))
    assert (h.rank, h.torsion) == (1, [2, 4])
    assert str(h) == "Z + Z/2 + Z/4"
    assert str(AbelianGroupPresentation(2, [3])) == "Z^2 + Z/3"


# -- determinant and inertia -------------------------------------------------

def test_determinant_examples():
    assert inertia(IntegralLattice([])).det == 1
    assert inertia(IntegralLattice([[0, 1], [1, 0]])).det == -1
    assert inertia(e8_matrix()).det == 1


def test_determinant_randomized_against_sympy():
    # symmetric forms up to 7x7; every odd case has a zero diagonal, which
    # reaches the hyperbolic rule, and every third repeats a basis vector
    rng = random.Random(103)
    singular = 0
    for t in range(300):
        n = rng.randint(1, 7)
        A = random_symmetric(rng, n, -7, 7)
        if t % 2:
            for k in range(n):
                A[k][k] = 0
        if t % 3 == 0 and n >= 2:
            i, j = rng.sample(range(n), 2)
            A[j] = A[i][:]
            for row in A:
                row[j] = row[i]
        want = int(sympy.Matrix(A).det())
        singular += want == 0
        assert inertia(IntegralLattice(A)).det == want, A
    assert singular >= 100


def test_determinant_rejects_non_symmetric():
    with pytest.raises(LatticeError, match="not symmetric"):
        inertia(IntegralLattice([[1, 2], [3, 4]]))


def _inertia_oracle(rows):
    """Sign counts of the eigenvalues via the characteristic polynomial.

    Symmetric matrices have real spectrum, so Descartes' rule of signs is
    exact on p(x) and p(-x)."""
    M = sympy.Matrix(rows)
    p = sympy.Poly(M.charpoly().as_expr(), sympy.Symbol("lambda"))
    coeffs = [int(c) for c in p.all_coeffs()]
    zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zero += 1

    def sign_changes(cs):
        signs = [1 if c > 0 else -1 for c in cs if c]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    pos = sign_changes(coeffs)
    neg = sign_changes([c * (-1) ** k for k, c in enumerate(coeffs)])
    return pos, zero, neg


def test_inertia_examples():
    assert inertia(IntegralLattice.diagonal([1, 1, 1])) == inertia(IntegralLattice.diagonal([1, 1, 1]))
    i = inertia(IntegralLattice([[0, 1], [1, 0]]))
    assert (i.positive, i.zero, i.negative) == (1, 0, 1)
    assert i.positive - i.negative == 0
    i = inertia(e8_matrix())
    assert (i.positive, i.zero, i.negative) == (8, 0, 0)
    # all-zero diagonals: the hyperbolic rule, then the zero block
    i = inertia(IntegralLattice([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]]))
    assert (i.positive, i.zero, i.negative) == (2, 0, 2)
    i = inertia(IntegralLattice([[0] * 3 for _ in range(3)]))
    assert (i.positive, i.zero, i.negative) == (0, 3, 0)
    i = inertia(IntegralLattice([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
    assert (i.positive, i.zero, i.negative) == (1, 0, 2)
    i = inertia(IntegralLattice([[0, 1, 1], [1, 0, 0], [1, 0, 0]]))
    assert (i.positive, i.zero, i.negative) == (1, 1, 1)


def test_inertia_randomized_against_charpoly():
    rng = random.Random(107)
    for t in range(250):
        # after 150 cases up to 5x5, 100 up to 8x8 with entries in [-2, 2];
        # half of those have a zero diagonal, which reaches the hyperbolic
        # rule and the zero block
        big = t >= 150
        b = 2 if big else 5
        n = rng.randint(1, 8 if big else 5)
        rows = random_symmetric(rng, n, -b, b)
        if big and t % 2:
            for k in range(n):
                rows[k][k] = 0
        L = IntegralLattice(rows)
        i = inertia(L)
        assert (i.positive, i.zero, i.negative) == _inertia_oracle(L.entries)
        assert i.positive + i.zero + i.negative == n


def _check_against_sympy(A):
    L = IntegralLattice(A)
    i = inertia(L)
    assert i.det == int(sympy.Matrix(A).det()), A
    assert (i.positive, i.zero, i.negative) == _inertia_oracle(A), A
    diag = snf_diagonal(L)
    assert diag == _snf_oracle(A), A
    assert all(i.pivot % d == 0 for d in diag if d), A
    return i, diag


def test_near_diagonal_forms_against_sympy():
    # the shape of an unknotified link's linking matrix: a +/-1 diagonal
    # of rank 20-40 with a few off-diagonal +/-1 or +/-2 entries
    rng = random.Random(1709)
    dets = set()
    for _ in range(40):
        n = rng.randint(20, 40)
        A = [[rng.choice((1, -1)) if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(1, 6)):
            i, j = rng.sample(range(n), 2)
            A[i][j] = A[j][i] = rng.choice((1, -1, 2, -2))
        i, _ = _check_against_sympy(A)
        dets.add(i.det)
    assert len(dets) >= 5


def test_singular_zero_diagonal_forms_against_sympy():
    # no nonzero diagonal entry at the start, so inertia's first pivot
    # comes from its row-and-column add; repeated basis vectors make
    # every form singular
    rng = random.Random(1711)
    for t in range(60):
        n = rng.randint(2, 10)
        A = random_symmetric(rng, n, -3, 3)
        for k in range(n):
            A[k][k] = 0
        for _ in range(1 + t % 3):
            i, j = rng.sample(range(n), 2)
            A[j] = A[i][:]
            for row in A:
                row[j] = row[i]
        i, diag = _check_against_sympy(A)
        assert i.det == 0 and i.zero >= 1 and diag[-1] == 0


def test_transforms_and_pivots_are_pinned():
    # inertia's last pivot on 300 seeded forms, recorded before the
    # eliminations were rewritten row-wise, so every pivot choice must
    # stay as it was; and the Smith diagonals of those forms, recorded
    # while snf_diagonal still took rectangular matrices.  Those matrices
    # are still drawn, to keep the forms' seeded stream.
    rng = random.Random(1717)
    diags, pivots = [], []
    for t in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        S = random_symmetric(rng, rng.randint(1, 8), -4, 4)
        if t % 3 == 1:
            for k in range(len(S)):
                S[k][k] = 0
        L = IntegralLattice(S)
        diags.append(snf_diagonal(L))
        pivots.append(inertia(L).pivot)
    assert hashlib.sha256(repr(diags).encode()).hexdigest() == (
        "25c47988bd69e15117a315ff82f60e28b621526d425781914c452422feb307a0")
    assert hashlib.sha256(repr(pivots).encode()).hexdigest() == (
        "fd0eed5261d6dfd8a108b74315c0bc742e3a4f91bd70e381b335ee5b899895eb")


# -- congruence moves --------------------------------------------------------

def test_congruence_slide_is_explicit_basis_change():
    L = IntegralLattice([[2, 1], [1, 3]])
    E = [[1, 0], [1, 1]]  # col 0 += col 1
    want = _mul(_mul([[E[j][i] for j in range(2)] for i in range(2)],
                     L.entries), E)
    assert moved(L, _slide_rows, 0, 1, 1).entries == want


def test_slide_inverse_pair():
    rng = random.Random(109)
    for _ in range(30):
        n = rng.randint(2, 5)
        L = IntegralLattice(random_symmetric(rng, n, -4, 4))
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        assert moved(moved(L, _slide_rows, i, j, s), _slide_rows, i, j, -s) == L


def test_moves_preserve_cokernel():
    rng = random.Random(127)
    for _ in range(40):
        n = rng.randint(2, 5)
        L = IntegralLattice(random_symmetric(rng, n, -4, 4))
        h0 = homology_from_diagonal(snf_diagonal(L))
        i, j = rng.sample(range(n), 2)
        Ls = moved(L, _slide_rows, i, j, rng.choice((1, -1)))
        hs = homology_from_diagonal(snf_diagonal(Ls))
        assert (h0.rank, h0.torsion) == (hs.rank, hs.torsion)
        eps = rng.choice((1, -1))
        hst = homology_from_diagonal(snf_diagonal(direct_sum(L, IntegralLattice.diagonal([eps]))))
        assert (h0.rank, h0.torsion) == (hst.rank, hst.torsion)


def test_direct_sum_additivity():
    L1 = IntegralLattice([[2, 1], [1, 2]])
    L2 = IntegralLattice([[-3]])
    S = direct_sum(L1, L2)
    assert S.n == 3
    assert inertia(S).det == inertia(L1).det * inertia(L2).det
    i1, i2, i = inertia(L1), inertia(L2), inertia(S)
    assert i.positive == i1.positive + i2.positive
    assert i.negative == i1.negative + i2.negative


# -- E8 ----------------------------------------------------------------------

def test_e8_invariants():
    E = e8_matrix()
    assert inertia(E).det == 1
    i = inertia(E)
    assert (i.positive, i.zero, i.negative) == (8, 0, 0)
    assert str(homology_from_diagonal(snf_diagonal(E))) == "0"
    assert snf_diagonal(E) == [1] * 8
    # even form: every diagonal entry of any v^T E v is even
    rng = random.Random(131)
    for _ in range(20):
        v = [rng.randint(-3, 3) for _ in range(8)]
        assert quad(E, v) % 2 == 0


# -- short vectors -----------------------------------------------------------

def _invert_fraction(rows):
    n = len(rows)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[p] = A[p], A[c]
        d = A[c][c]
        A[c] = [x / d for x in A[c]]
        for r in range(n):
            if r != c and A[r][c]:
                f = A[r][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return [row[n:] for row in A]


def _canonical(vs):
    """One representative per +/-v pair (first nonzero coordinate
    positive), sorted: the output convention of `short_vectors`."""
    out = set()
    for v in vs:
        first = next(t for t in v if t)
        out.add(tuple(v) if first > 0 else tuple(-t for t in v))
    return sorted(out)


def _short_vectors_box(L, bound):
    """Brute force: for pos. definite A and v^T A v <= T one has
    v_i^2 <= T * (A^-1)_ii, so a finite box contains every solution."""
    inv = _invert_fraction(L.entries)
    lims = []
    for i in range(L.n):
        m = 0
        while Fraction((m + 1) ** 2) <= Fraction(bound) * inv[i][i]:
            m += 1
        lims.append(m)
    return _canonical(v for v in itertools.product(*[range(-m, m + 1) for m in lims])
                      if any(v) and quad(L, v) <= bound)


def test_short_vectors_identity():
    got = short_vectors(IntegralLattice.diagonal([1, 1]), 1)
    assert got == [(0, 1), (1, 0)]
    got = short_vectors(IntegralLattice.diagonal([1, 1]), 2)
    assert got == [(0, 1), (1, -1), (1, 0), (1, 1)]
    # I_2 after one slide, with entries far past the float range
    N = 10 ** 400
    assert short_vectors(IntegralLattice([[1, N], [N, N * N + 1]]), 1) == [(1, 0), (N, -1)]


def test_short_vectors_e8_roots():
    # E8 has 240 roots of norm 2 and no vectors of norm 1
    roots = short_vectors(e8_matrix(), 2)
    assert len(roots) == 120
    assert all(quad(e8_matrix(), v) == 2 for v in roots)
    assert short_vectors(e8_matrix(), 1) == []


def test_short_vectors_rejects_indefinite():
    # definiteness is checked before the bound, a negative one included
    for bound in (2, -1):
        with pytest.raises(LatticeError, match="^short_vectors needs a positive definite matrix$"):
            short_vectors(IntegralLattice([[0, 1], [1, 0]]), bound)


def test_short_vectors_randomized_against_box():
    rng = random.Random(137)
    done = 0
    while done < 50:
        n = rng.randint(1, 4)
        B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        A = [[sum(B[k][i] * B[k][j] for k in range(n)) + int(i == j)
              for j in range(n)] for i in range(n)]
        L = IntegralLattice(A)
        assert inertia(L).positive == n
        bound = rng.randint(1, 4)
        assert short_vectors(L, bound) == _short_vectors_box(L, bound)
        done += 1


def test_short_vectors_against_box_on_non_unimodular_forms():
    # det >= 2, so the LLL's Gram determinants are not all 1 and every
    # level's exact division by d_(i+1) is exercised
    rng = random.Random(1613)
    done = nonempty = 0
    while done < 200:
        n = rng.randint(1, 8)
        B = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
        A = [[sum(B[k][i] * B[k][j] for k in range(n)) + int(i == j) * rng.randint(1, 2)
              for j in range(n)] for i in range(n)]
        L = IntegralLattice(A)
        if inertia(L).det < 2:
            continue
        bound = done % 5
        got = short_vectors(L, bound)
        assert got == _short_vectors_box(L, bound), (A, bound)
        nonempty += bool(got)
        done += 1
    assert nonempty > 50


def test_short_vectors_negative_bound_on_definite_forms():
    for L in (IntegralLattice.diagonal([1, 1, 1]), e8_matrix(), IntegralLattice([[2, 1], [1, 2]])):
        assert short_vectors(L, -1) == short_vectors(L, -7) == []


def _scrambled_identity(n, seed):
    rng = random.Random(seed)
    L = IntegralLattice.diagonal([1] * n)
    for _ in range(80):
        i, j = rng.sample(range(n), 2)
        L = moved(L, _slide_rows, i, j, rng.choice((-1, 1)))
    return L


def test_short_vectors_budget_on_scrambled_identities():
    # I_80 and I_40 after 80 seeded slides, each under a time budget
    L = _scrambled_identity(80, "i80")
    start = time.perf_counter()
    rep = donaldson_obstruction(L)
    assert time.perf_counter() - start < 1.0
    assert (rep.verdict, rep.diagonal_part) == ("NOT_OBSTRUCTED", 80)
    L = _scrambled_identity(40, "i40")
    start = time.perf_counter()
    assert len(short_vectors(L, 2)) == 40 + 2 * 40 * 39 // 2
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("e8, k", [(True, 0), (True, 1), (True, 2), (True, 4),
                                   (False, 4), (False, 7), (False, 10)])
def test_short_vectors_on_heavily_scrambled_forms(e8, k):
    # E^T A E after 40-160 slides, with E tracked alongside: its short
    # vectors are exactly the images E^-1 v of those of the base A, found
    # on the base and mapped, so the oracle does not depend on the order
    # in which any enumeration visits them
    base = e8_sum(int(e8), k)
    n = base.n
    want = {b: short_vectors(base, b) for b in (1, 2)}
    assert len(want[1]) == k
    if e8:
        assert sum(1 for v in want[2] if any(v[:8])) == 120  # the E8 roots
    rng = random.Random("scramble:%s:%d" % (e8, k))
    for slides in (40, 80, 160):
        L = base
        E = [[int(i == j) for j in range(n)] for i in range(n)]
        Einv = [row[:] for row in E]
        for _ in range(slides):
            i, j = rng.sample(range(n), 2)
            s = rng.choice((-1, 1))
            L = moved(L, _slide_rows, i, j, s)
            for row in E:  # E <- E (I + s e_j e_i^T)
                row[i] += s * row[j]
            Einv[j] = [a - s * b for a, b in zip(Einv[j], Einv[i])]
        Et = [list(col) for col in zip(*E)]
        assert L.entries == _mul(_mul(Et, base.entries), E)
        for b in (1, 2):
            images = [[x[0] for x in _mul(Einv, [[t] for t in v])] for v in want[b]]
            assert short_vectors(L, b) == _canonical(images)


def _slid_with_leading_block(diag, slides, seed):
    # slides inside the leading 2 x 2 block, and of index 2 over it: the
    # first two leading minors stay those of diag, and so does the last
    rng = random.Random(seed)
    L = IntegralLattice.diagonal(diag)
    for _ in range(slides):
        i, j = rng.choice([(0, 1), (1, 0), (2, 0), (2, 1)])
        L = moved(L, _slide_rows, i, j, rng.choice((-1, 1)))
    return L


def _leading_minors(L):
    return [inertia(IntegralLattice([row[:t] for row in L.entries[:t]])).det
            for t in range(1, L.n + 1)]


NOT_DEFINITE = {
    "indefinite": IntegralLattice([[0, 1], [1, 0]]),
    "indefinite_positive_corner": IntegralLattice([[1, 2], [2, 1]]),
    "negative_definite": IntegralLattice([[-2, 1], [1, -2]]),
    "negative_one": IntegralLattice([[-1]]),
    "zero": IntegralLattice([[0]]),
    "semidefinite": IntegralLattice([[1, 1], [1, 1]]),
    "late_negative_minor": _slid_with_leading_block([1, 1, -1], 60, 1),
    "late_zero_minor": _slid_with_leading_block([1, 2, 0], 60, 2),
}


@pytest.mark.parametrize("name", sorted(NOT_DEFINITE))
def test_non_definite_forms_are_rejected_at_once(name):
    L = NOT_DEFINITE[name]
    if name.startswith("late_"):
        minors = _leading_minors(L)
        assert minors[0] > 0 and minors[1] > 0 and minors[2] <= 0
        assert max(abs(x) for row in L.entries for x in row) > 100
    start = time.perf_counter()
    with pytest.raises(LatticeError, match="^short_vectors needs a positive definite matrix$"):
        short_vectors(L, 2)
    with pytest.raises(LatticeError, match="^diagonalizability test needs a positive definite matrix$"):
        diagonalizable_over_Z(L)
    assert time.perf_counter() - start < 1.0


def test_non_unimodular_form_is_rejected():
    # positive definite but det 3: short_vectors runs, the
    # diagonalizability test refuses
    L = IntegralLattice([[2, 1], [1, 2]])
    assert short_vectors(L, 2) == [(0, 1), (1, -1), (1, 0)]
    with pytest.raises(LatticeError, match="^diagonalizability test needs a unimodular matrix$"):
        diagonalizable_over_Z(L)


# -- diagonalizability over Z ------------------------------------------------

def test_identity_diagonalizes():
    assert diagonalizable_over_Z(IntegralLattice.diagonal([1] * 4)) == (True, 4)


def test_e8_does_not_diagonalize():
    assert diagonalizable_over_Z(e8_matrix()) == (False, 0)


def test_e8_plus_identity_strips_only_the_identity():
    L = direct_sum(e8_matrix(), IntegralLattice.diagonal([1, 1]))
    ok, count = diagonalizable_over_Z(L)
    assert not ok
    assert count == 2
    assert L.n - count == 8


def test_unimodular_change_of_basis_still_diagonalizes():
    rng = random.Random(139)
    for _ in range(10):
        n = rng.randint(2, 4)
        P = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.sample(range(n), 2)
            k = rng.randint(-2, 2)
            for r in range(n):
                P[r][i] += k * P[r][j]
        Pt = [[P[j][i] for j in range(n)] for i in range(n)]
        L = IntegralLattice(_mul(Pt, P))
        assert diagonalizable_over_Z(L) == (True, n)


def test_one_shot_split_on_scrambled_mixed_forms():
    # E8 + I_k and I_k after random handle slides: exactly the k
    # norm-one vectors of the <1>^k summand are found
    rng = random.Random(521)
    for trial in range(40):
        e8 = trial % 2 == 1
        k = rng.randint(0 if e8 else 1, 4)
        L = IntegralLattice.diagonal([1] * k)
        if e8:
            L = direct_sum(e8_matrix(), L)
        n = L.n
        for _ in range(rng.randint(0, 12) if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            L = moved(L, _slide_rows, i, j, rng.choice((-1, 1)))
        ok, count = diagonalizable_over_Z(L)
        assert count == k and ok == (not e8)


def _check_each_step(monkeypatch, calls):
    """Wrap the reductions and the split of diagonalizable_over_Z: each
    call counts in `calls` under (name, arguments after the form), and
    its output must be a symmetric, positive definite form of det 1, of
    the input's rank less the units split off."""
    def wrap(name):
        step = getattr(intlattice, name)

        def checked(A, *args):
            n = len(A)
            out = step(A, *args)
            B, units = out if name == "_split_units" else (out, 0)
            inert = inertia(IntegralLattice(B))  # raises if B is not symmetric
            assert (len(B), inert.positive, inert.det) == (n - units, n - units, 1)
            calls[name, args] += 1
            return out
        monkeypatch.setattr(intlattice, name, checked)
    for name in ("_pair_reduce", "_lll_gram", "_split_units"):
        wrap(name)


def test_split_count_matches_the_exhaustive_search(monkeypatch):
    # 300 seeded scrambles (10-160 slides) of I_n, E8 + I_k and E8^2 + I_k,
    # n <= 20: the split loop counts exactly the norm-one vectors that
    # Fincke-Pohst finds, and every step keeps a unimodular form
    calls = Counter()
    _check_each_step(monkeypatch, calls)
    rng = random.Random("split-oracle")
    for trial in range(300):
        e8s = trial % 3
        ones = rng.randint(0 if e8s else 2, 20 - 8 * e8s)
        L = scrambled(e8_sum(e8s, ones), rng.randint(10, 160), rng)
        assert diagonalizable_over_Z(L) == (not e8s, ones)
        assert len(short_vectors(L, 1)) == ones
    assert calls["_pair_reduce", ()] and calls["_lll_gram", ((3, 4),)]


def _d12_plus():
    """D12+ (Conway-Sloane, SPLAG, Ch. 16) on the basis e_i - e_(i+1)
    (i = 2..11), e_11 + e_12 and (1, ..., 1)/2: the Gram of the doubled
    vectors, over 4."""
    e = {i: [2 * int(t == i) for t in range(1, 13)] for i in range(1, 13)}
    B = [[a - b for a, b in zip(e[i], e[i + 1])] for i in range(2, 12)]
    B += [[a + b for a, b in zip(e[11], e[12])], [1] * 12]
    return IntegralLattice([[sum(map(mul, u, v)) // 4 for v in B] for u in B])


def test_odd_form_with_no_norm_one_vector_is_searched(monkeypatch):
    # D12+ is odd and has no norm-one vector, so neither parity nor a
    # split answers it: k = 0 comes from the one exhaustive search
    D = _d12_plus()
    assert inertia(D).det == 1 and 3 in [D.entries[t][t] for t in range(12)]
    assert short_vectors(D, 1) == [] and len(short_vectors(D, 2)) == 132
    L = scrambled(D, 120, random.Random("d12+"))
    assert max(abs(x) for row in L.entries for x in row) > 100
    searched = []
    search = intlattice.short_vectors

    def counted(M, bound):
        searched.append((M.n, bound))
        return search(M, bound)
    monkeypatch.setattr(intlattice, "short_vectors", counted)
    assert diagonalizable_over_Z(L) == (False, 0)
    assert searched == [(12, 1)]


@pytest.mark.parametrize("k", [4, 5])
def test_e8_sums_with_one_unit_split_within_a_second(monkeypatch, k):
    # E8^k + I_1 after 400 seeded slides: the search alone on the
    # delta = 3/4 basis ran past 10 s on 2 of the 5 forms at k = 5; the
    # split loop finds the one norm-one vector with no search
    def no_search(M, bound):
        raise AssertionError("searched a rank-%d residue" % M.n)
    monkeypatch.setattr(intlattice, "short_vectors", no_search)
    for s in range(5):
        L = scrambled(e8_sum(k, 1), 400, random.Random("p%d-%d" % (k, s)))
        start = time.perf_counter()
        assert diagonalizable_over_Z(L) == (False, 1)
        assert time.perf_counter() - start < 1.0


def test_diagonalizable_rejects_bad_input():
    with pytest.raises(LatticeError):
        diagonalizable_over_Z(IntegralLattice([[-1]]))
    with pytest.raises(LatticeError):
        diagonalizable_over_Z(IntegralLattice([[2]]))


def test_residual_forms_are_pinned():
    # (verdict, k) on 40 seeded scrambles of E8 + I_k and I_k, recorded
    # before the residual form on the complement of <1>^k was dropped
    rng = random.Random(1013)
    out = []
    for trial in range(40):
        e8 = trial % 2 == 1
        k = rng.randint(0, 4) if e8 else rng.randint(2, 8)
        L = e8_sum(int(e8), k)
        n = L.n
        for _ in range(rng.randint(10, 30)):
            i, j = rng.sample(range(n), 2)
            L = moved(L, _slide_rows, i, j, rng.choice((-1, 1)))
        out.append(diagonalizable_over_Z(L))
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == "8079fb8bccf7c6f884c986e7432a8d3c865beb3a2d1166d35dc6f2395bfee852"


def test_lattice_report_on_a_heavily_scrambled_unimodular_form(tmp_path, capsys):
    # E8 + I_4 after 80 slides: the unreduced Euclidean loop ran past 10 s
    # on this form; modulo its determinant 1 every entry reduces to 0
    rng = random.Random("e8i4")
    L = direct_sum(e8_matrix(), IntegralLattice.diagonal([1] * 4))
    for _ in range(80):
        i, j = rng.sample(range(L.n), 2)
        L = moved(L, _slide_rows, i, j, rng.choice((-1, 1)))
    assert max(abs(x) for row in L.entries for x in row) > 1000
    path = tmp_path / "e8i4.json"
    jsonio.save_path(str(path), jsonio.lattice_to_obj(L))
    start = time.perf_counter()
    assert cli.main(["lattice", str(path), "--json"]) == 0
    assert time.perf_counter() - start < 1.0
    rep = json.loads(capsys.readouterr().out)["result"]
    assert (rep["det"], rep["snf_diagonal"]) == (1, [1] * 12)
    assert rep["homology"]["pretty"] == "0"
    assert (rep["diagonalizable_over_Z"], rep["diagonal_part"]) == (False, 4)
