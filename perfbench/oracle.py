"""Independent checks: linking data, descending traversal, blow-downs and
small-matrix invariants, computed from link and matrix files by this
benchmark's own code.  Nothing here imports the program."""

from __future__ import annotations

import itertools
import math


class Mismatch(Exception):
    """A program output disagrees with the independently computed value."""


def expect(ok: bool, what: str, *detail) -> None:
    if not ok:
        raise Mismatch(what + ("" if not detail else ": " + " / ".join(map(repr, detail))))


# ---------------------------------------------------------------------------
# links


def linking_matrix(link) -> list[list[int]]:
    """Framings on the diagonal; half the sign sum of the crossings two
    components share off it.  Rows follow the file's component order."""
    ids = [c["id"] for c in link["components"]]
    pos = {cid: k for k, cid in enumerate(ids)}
    owner = {a["id"]: a["component"] for a in link["arcs"]}
    n = len(ids)
    twice = [[0] * n for _ in range(n)]
    for x in link["crossings"]:
        i, j = pos[owner[x["over_in"]]], pos[owner[x["under_in"]]]
        if i != j:
            twice[i][j] += x["sign"]
            twice[j][i] += x["sign"]
    A = [[twice[i][j] // 2 for j in range(n)] for i in range(n)]
    for k, c in enumerate(link["components"]):
        A[k][k] = int(c["framing"])
    return A


def switch_set(link, self_only: bool, among=None) -> set[int]:
    """Crossings met first on their under strand by the traversal of the
    components in file order, each from its basepoint.  With `self_only`
    only crossings of a component with itself count; with `among`, only
    crossings whose two strands both belong to those component ids."""
    succ = {a["id"]: a["next"] for a in link["arcs"]}
    owner = {a["id"]: a["component"] for a in link["arcs"]}
    entered = {}
    for x in link["crossings"]:
        entered[x["over_in"]] = (x, "over")
        entered[x["under_in"]] = (x, "under")
    seen, out = set(), set()
    for comp in link["components"]:
        start = comp.get("basepoint")
        if start is None or not any(owner[a] == comp["id"] for a in entered):
            continue
        a = start
        while True:
            hit = entered.get(a)
            if hit is not None:
                x, role = hit
                a_, b_ = owner[x["over_in"]], owner[x["under_in"]]
                counted = (a_ == b_ or not self_only) and (
                    among is None or (a_ in among and b_ in among))
                if x["id"] not in seen and role == "under" and counted:
                    out.add(x["id"])
                seen.add(x["id"])
            a = succ[a]
            if a == start:
                break
    return out


def blow_down(A, k: int):
    """Remove the +/-1-framed row k, pushing its rank-one term into the rest."""
    eps = A[k][k]
    expect(eps in (1, -1), "blow-down row is not +/-1-framed", k, eps)
    idx = [i for i in range(len(A)) if i != k]
    return [[A[i][j] - eps * A[i][k] * A[k][j] for j in idx] for i in idx]


# ---------------------------------------------------------------------------
# small matrices


def det(A) -> int:
    """Laplace expansion along the first row (for small matrices only)."""
    n = len(A)
    if n == 0:
        return 1
    if n == 1:
        return A[0][0]
    return sum((-1) ** j * A[0][j] * det([row[:j] + row[j + 1:] for row in A[1:]])
               for j in range(n) if A[0][j])


def invariant_factors(A) -> list[int]:
    """Smith diagonal from determinantal divisors: d_k is the gcd of all
    k x k minors, and the k-th factor is d_k / d_{k-1}."""
    n = len(A)
    out, prev = [], 1
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                g = math.gcd(g, det([[A[r][c] for c in cols] for r in rows]))
        if g == 0:
            out.extend([0] * (n - k + 1))
            break
        out.append(g // prev)
        prev = g
    return out


def homology(A) -> tuple[int, list[int]]:
    """H1 of the surgered manifold as (rank, torsion factors >= 2)."""
    f = invariant_factors(A)
    return f.count(0), [d for d in f if d >= 2]
