"""Exact integer symmetric-bilinear-form engine, in unbounded integers
only.  One fraction-free symmetric elimination gives the inertia, the
determinant and the last nonzero pivot D; callers that hold it pass it
to the Smith diagonal and to the diagonalizability test.  The Smith
diagonal is taken modulo D, which every invariant factor divides, by
extended-gcd steps whose pivot strictly shrinks at each refill, then
put in order by (gcd, lcm) pairs.  No transform U, V is kept.  Short
vectors come from Fincke-Pohst on an exact integral LLL reduction, in
its own integers; that reduction is also their positive-definiteness
check.  Every entry must be an int; a bool, float or string is refused,
not truncated.  The loops go a row at a time, with dot products through
`map`, and skip the entries and rows an update would leave as they are.
"""

import math
from itertools import permutations
from operator import mul


class LatticeError(ValueError):
    """Raised when an operation's precondition on a matrix fails."""


class Record:
    """Base of the result and move records: each holds its `__slots__`
    alone and writes its own `__init__`; == is field-wise within one
    class, repr is ClassName(field=value, ...), and there is no hash."""
    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self.__slots__))


class IntegralLattice:
    """A symmetric matrix of (unbounded) integers."""

    def __init__(self, entries):
        rows = _ints(entries)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise LatticeError("matrix is not square")
        if list(map(list, zip(*rows))) != rows:
            i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                        if rows[i][j] != rows[j][i])
            raise LatticeError("matrix is not symmetric at (%d, %d)" % (i, j))
        self.entries = rows

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def diagonal(cls, diag) -> "IntegralLattice":
        [diag] = _ints([diag])
        n = len(diag)
        return cls._trusted([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def _trusted(cls, rows) -> "IntegralLattice":
        """Wrap integer rows that the library built symmetric itself:
        nothing is checked or copied."""
        L = cls.__new__(cls)
        L.entries = rows
        return L

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegralLattice) and self.entries == other.entries

    def __repr__(self) -> str:
        return "IntegralLattice(%r)" % (self.entries,)


class Inertia(Record):
    """Eigenvalue sign counts of a symmetric form, its determinant, and
    the last nonzero pivot of its elimination (the Smith modulus)."""

    __slots__ = ("positive", "zero", "negative", "det", "pivot")

    def __init__(self, positive: int, zero: int, negative: int, det: int, pivot: int):
        self.positive, self.zero, self.negative = positive, zero, negative
        self.det, self.pivot = det, pivot


class AbelianGroupPresentation(Record):
    """rank + invariant factors d1 | d2 | ..., each >= 2."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion: list[int]):
        self.rank, self.torsion = rank, torsion

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append("Z^%d" % self.rank)
        parts.extend("Z/%d" % d for d in self.torsion)
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Smith normal form


def _ints(entries) -> list[list[int]]:
    """A copy of the rows of `entries`, whose every entry must be an int."""
    rows = [list(row) for row in entries]
    for row in rows:
        if not {int}.issuperset(map(type, row)):  # no bool, float or str
            raise LatticeError("matrix entry must be an integer, got %r"
                               % (next(x for x in row if type(x) is not int),))
    return rows


def _step(p, b):
    """A unimodular [[u, v], [s, t]] taking (p, b), b != 0, to (g, 0): a
    subtraction (v = 0) when p | b, else g = gcd(p, b) by extended gcd."""
    if p and not b % p:
        return 1, 0, -(b // p), 1
    g = math.gcd(p, b)
    u = pow(p // g, -1, b // g)
    return u, (g - u * p) // b, -(b // g), p // g


def _diagonal_mod(S, mod):
    """A diagonal congruent mod `mod` to U S V, U and V unimodular.  On
    a shrinking trailing block, row steps clear column 0, then column
    steps clear row 0.  A column step with v = 0 changes row 0 alone;
    any other puts a proper divisor of the pivot in its place and
    refills column 0, which is cleared again, so the loop ends."""
    S, diag = [[x % mod for x in row] for row in S], []
    while S:
        refill = True
        while refill:
            for i in range(1, len(S)):
                if S[i][0]:
                    u, v, s, t = _step(S[0][0], S[i][0])
                    top, row = S[0], S[i]
                    if v:
                        S[0] = [(u * x + v * y) % mod for x, y in zip(top, row)]
                    S[i] = [(s * x + t * y) % mod for x, y in zip(top, row)]
            top, refill = S[0], False
            for j in range(1, len(top)):
                if top[j] and not refill:
                    u, v, s, t = _step(top[0], top[j])
                    refill = bool(v)  # else: column 0 is 0 below the pivot
                    for row in S if v else [top]:
                        row[0], row[j] = ((u * row[0] + v * row[j]) % mod,
                                          (s * row[0] + t * row[j]) % mod)
        diag.append(S[0][0])
        S = [row[1:] for row in S[1:]]
    return diag


def snf_diagonal(L: IntegralLattice, inert: Inertia | None = None) -> list[int]:
    """The Smith diagonal of the symmetric form L, computed modulo a
    nonzero maximal minor so that no entry grows (Kannan-Bachem 1979;
    Cohen, GTM 138, Sec. 2.4).

    For L of rank r, the last nonzero pivot D of `inertia` is a nonzero
    r x r minor of a congruent form, so every invariant factor d_i
    divides D.  The columns of L and D*Z^n span a lattice with invariant
    factors (d_1..d_r, D, .., D), and so do those of any diagonal
    (s_1..s_n) congruent mod D to U L V, which `_diagonal_mod` finds (its
    pivot strictly shrinks at each refill): the gcd(s_i, D), put in the
    order d_1 | d_2 | .. by replacing each pair with its (gcd, lcm).
    `inert` is L's inertia, if the caller holds it."""
    inert = inert or inertia(L)
    n, D = L.n, abs(inert.pivot)
    r = n - inert.zero
    if D == 1:  # every gcd below is 1, whatever the diagonal
        return [1] * r + [0] * (n - r)
    g = [math.gcd(s, D) for s in _diagonal_mod(L.entries, D)]
    for i in range(n):
        for j in range(i + 1, n):
            if g[j] % g[i]:
                g[i], g[j] = math.gcd(g[i], g[j]), math.lcm(g[i], g[j])
    return g[:r] + [0] * (n - r)


def homology_from_diagonal(diag) -> AbelianGroupPresentation:
    """The cokernel of a matrix with Smith diagonal `diag`: one Z per
    zero entry, one Z/d per entry d >= 2."""
    return AbelianGroupPresentation(rank=diag.count(0),
                                    torsion=[d for d in diag if d >= 2])


# ---------------------------------------------------------------------------
# inertia and determinant


def inertia(L: IntegralLattice) -> Inertia:
    """Counts of positive/zero/negative eigenvalues, and the determinant,
    from one fraction-free (Bareiss) symmetric elimination.

    Its pivots p_t are leading principal minors of a congruent form, so
    the LDL^T diagonal is p_t / p_(t-1): its signs give the inertia.  The
    last pivot is `pivot`, and the determinant unless a zero block is
    left (then det is 0).  The pivot is the first remaining index with a
    nonzero diagonal entry (index order, on a positive definite form); if
    there is none, row and column j are added into i for the first
    nonzero A[i][j].  The adds touch only unpivoted rows and columns,
    where minors are linear, so Sylvester's identity makes every division
    exact."""
    A = [row[:] for row in L.entries]
    active = list(range(L.n))
    pivots = []
    while active:
        piv = next((i for i in active if A[i][i]), None)
        if piv is None:
            off = next(((i, j) for i in active for j in active if A[i][j]), None)
            if off is None:
                break
            piv, j = off
            for c in active:
                A[piv][c] += A[j][c]
            for r in active:
                A[r][piv] += A[r][j]
        p, prow = A[piv][piv], A[piv]
        prev = pivots[-1] if pivots else 1
        active.remove(piv)
        for r in active:
            row, f = A[r], A[r][piv]
            if f or p != prev:  # else the update leaves the row as it is
                for c in active:
                    row[c] = (row[c] * p - f * prow[c]) // prev
        pivots.append(p)
    neg = sum(1 for a, b in zip([1] + pivots, pivots) if (a > 0) != (b > 0))
    last = pivots[-1] if pivots else 1
    return Inertia(positive=len(pivots) - neg, zero=L.n - len(pivots), negative=neg,
                   det=0 if active else last, pivot=last)


# ---------------------------------------------------------------------------
# the matrix rules of the Kirby moves, run only by calculus.Replayer
#
# The rows A are {key: {key': entry}}: the nonzero entries only, one row
# per component in component order, keyed by component id.  Each rule
# rewrites A in place and returns the entries it changed, {(p, q): delta}
# with p <= q.  A slide is the basis change E^T A E, E = I + s*e_j e_i^T.


def _lattice(A) -> IntegralLattice:
    """The rows A as a dense matrix, in the order of their keys."""
    at = {key: t for t, key in enumerate(A)}
    rows = [[0] * len(at) for _ in at]
    for row, entries in zip(rows, A.values()):
        for q, x in entries.items():
            row[at[q]] = x
    return IntegralLattice._trusted(rows)


def _pair_sums(entries) -> dict[tuple[int, int], int]:
    """Sum (p, q, v) over unordered pairs {p, q}, dropping zero sums."""
    out: dict[tuple[int, int], int] = {}
    for p, q, v in entries:
        key = (p, q) if p <= q else (q, p)
        out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


def _add_rows(A, entries) -> dict[tuple[int, int], int]:
    """Add each (p, q, delta) to A[p][q] and to A[q][p], keeping nonzeros."""
    changed = _pair_sums(entries)
    for (p, q), v in changed.items():
        for a, b in {(p, q), (q, p)}:
            A[a][b] = A[a].get(b, 0) + v
            if not A[a][b]:
                del A[a][b]
    return changed


def _slide_rows(A, i, j, s):
    entries = [(i, t, s * x) for t, x in A[j].items() if t != i]
    return _add_rows(A, entries + [(i, i, 2 * s * A[i].get(j, 0) + s * s * A[j].get(j, 0))])


def direct_sum(L1: IntegralLattice, L2: IntegralLattice) -> IntegralLattice:
    n1, n2 = L1.n, L2.n
    A = [row[:] + [0] * n2 for row in L1.entries]
    A.extend([0] * n1 + row[:] for row in L2.entries)
    return IntegralLattice._trusted(A)


def e8_matrix() -> IntegralLattice:
    """The rank-8 E8 plumbing form: 2 on the diagonal, 1 at adjacent
    nodes.  Node order: chain 0-1-2-3-4-5-6 with node 7 attached to
    node 4."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]
    A = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in edges:
        A[i][j] = A[j][i] = 1
    return IntegralLattice._trusted(A)


# ---------------------------------------------------------------------------
# short vectors (Fincke-Pohst)


def _lll(G, delta=(3, 4)):
    """Exact integral LLL with delta = num/den on a Gram matrix G (Cohen,
    GTM 138, Alg. 2.6.7).  Returns (H, d, lam): the rows of the
    unimodular H are the reduced basis in the input coordinates, d[t] is
    the Gram determinant of its first t vectors (d[0] = 1), and
    lam[k][j] = d[j+1] * mu_kj for j < k, all integers.

    When index k is first reached, d[k+1] is the (k+1)-th leading
    principal minor of G, so it must be > 0 (Sylvester): a form that is
    not positive definite raises there, before any swap can loop."""
    n, (num, den) = len(G), delta
    H = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def red(k, l):  # size-reduce vector k against vector l < k
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            H[k] = [a - q * b for a, b in zip(H[k], H[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):  # exchange vectors k - 1 and k
        H[k - 1], H[k] = H[k], H[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        m = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (B * t + m * lam[i][k]) // d[k + 1]
        d[k] = B

    k, kmax = 0, -1
    while k < n:
        if k > kmax:  # vector k is still e_k: incremental Gram-Schmidt
            kmax = k
            for j in range(k + 1):
                u = sum(map(mul, G[k], H[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
            if d[k + 1] <= 0:
                raise LatticeError("short_vectors needs a positive definite matrix")
        if k:
            red(k, k - 1)
            if den * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < num * d[k] ** 2:
                swap(k)
                k = max(1, k - 1)
                continue
        for l in range(k - 2, -1, -1):
            red(k, l)
        k += 1
    return H, d, lam


def short_vectors(L: IntegralLattice, bound: int) -> list[tuple[int, ...]]:
    """All nonzero v with v^T L v <= bound, one representative per +/-v
    pair (first nonzero coordinate positive), in lexicographic order.

    The basis is LLL-reduced first, which also checks that L is positive
    definite.  Fincke-Pohst backtracking then runs on the reduced basis
    b_i in integers only, straight from the LLL's (H, d, lam): level i
    adds z_i^2 / (d_i d_(i+1)), z_i = d_(i+1) y_i + sum_(j>i) lam_ji y_j,
    and the levels above it add up to N / d_(i+1) with N an integer, the
    Gram determinant of (b_0..b_i, sum_(j>i) y_j b_j).  Each y found
    maps to x = yH.
    """
    H, d, lam = _lll(L.entries)
    if bound < 0 or L.n == 0:
        return []
    cols = list(zip(*H))
    lcols = list(zip(*lam))  # lcols[i][j] = lam[j][i], zero for j <= i
    found: list[tuple[int, ...]] = []
    y = [0] * L.n

    def descend(i: int, N: int, lead: bool):
        # lead: every y_j, j > i, is 0, so c = 0 and y_i >= 0 picks one of +/-y
        p = d[i + 1]
        c = sum(map(mul, lcols[i], y))
        s = math.isqrt(d[i] * (bound * p - N))
        for yi in range(0 if lead else -((s + c) // p), (s - c) // p + 1):
            y[i] = yi
            if i:
                descend(i - 1, (d[i] * N + (p * yi + c) ** 2) // p, lead and not yi)
            elif yi or not lead:
                v = tuple(sum(map(mul, y, col)) for col in cols)
                found.append(v if next(t for t in v if t) > 0 else tuple(-t for t in v))
        y[i] = 0

    descend(L.n - 1, 0, True)
    return sorted(found)


# ---------------------------------------------------------------------------
# diagonalizability over Z


def _pair_reduce(A):
    """Greedy pair reduction in place: e_i -= round(A_ij / A_jj) e_j while
    some 2|A_ij| > A_jj.  Each step lowers A_ii alone, so the loop ends."""
    again = True
    while again:
        again = False
        for i, j in permutations(range(len(A)), 2):
            a, b = A[i][j], A[j][j]
            if 2 * abs(a) > b:
                q = (2 * a + b) // (2 * b)
                A[i] = [x - q * y for x, y in zip(A[i], A[j])]
                for row in A:
                    row[i] -= q * row[j]
                again = True
    return A


def _lll_gram(A, delta):
    """The Gram H A H^T of the LLL-reduced basis H of A."""
    H = _lll(A, delta)[0]
    HA = [[sum(map(mul, h, row)) for row in A] for h in H]
    return [[sum(map(mul, r, h)) for h in H] for r in HA]


def _split_units(A):
    """The units of a pair-reduced A split off: a unit e_i has A_ji = 0
    for j != i (2|A_ji| <= A_ii = 1), so the rest is the Gram of its
    complement.  Returns that Gram and the number of units."""
    keep = [t for t, r in enumerate(A) if r[t] != 1]
    return [[A[j][l] for l in keep] for j in keep], len(A) - len(keep)


def diagonalizable_over_Z(L: IntegralLattice, inert: Inertia | None = None):
    """Is a positive definite unimodular form diagonal over Z?  Returns
    (k == n, k), with k its number of norm-one vectors up to sign.

    A norm-one v spans a unimodular <1>, and every other norm-one w is
    in v^perp (|v.w| < 1 by Cauchy-Schwarz), so k(L) = 1 + k(v^perp).
    Pair reduction runs alone, then after LLL at delta = 3/4, then after
    LLL at 99/100; the units on the diagonal split off after each, and a
    split starts over at the first LLL.  An empty or even residue (all
    norms even) adds nothing; only an odd one that no step splits is
    searched, by Fincke-Pohst with no node budget.  `inert` is L's
    inertia, if the caller has it."""
    inert = inert or inertia(L)
    if inert.positive < L.n:
        raise LatticeError("diagonalizability test needs a positive definite matrix")
    if inert.det != 1:
        raise LatticeError("diagonalizability test needs a unimodular matrix")
    A, k, step = [row[:] for row in L.entries], 0, 0
    while step < 3 and any(r[t] % 2 for t, r in enumerate(A)):
        A, units = _split_units(_pair_reduce(
            _lll_gram(A, (3, 4) if step == 1 else (99, 100)) if step else A))
        k, step = k + units, 1 if units else step + 1
    if step == 3:  # odd (a reduction keeps parity) and still unsplit
        k += len(short_vectors(IntegralLattice._trusted(A), 1))
    return k == L.n, k
