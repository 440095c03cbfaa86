"""Seeded input generators.

Every input is written from the benchmark's own code: link files are
assembled passage by passage from a crossing list, and matrices are made
by congruences of known forms.  Nothing here calls the program.
"""

from __future__ import annotations

import random


def link_obj(framings, signs, order):
    """Link-file object from crossing signs and per-component passage orders.

    `signs[x]` is the sign of crossing x; `order[c]` lists the
    passages of component c along its orientation as (crossing, role)
    pairs, role "over" or "under".  Passage k of a component enters on
    arc k of that component and leaves on arc k+1 (cyclically); the
    basepoint is the component's first arc.
    """
    comps, arcs = [], []
    in_arc: dict[tuple[int, str], int] = {}
    out_arc: dict[tuple[int, str], int] = {}
    nxt = 0
    for c, f in enumerate(framings):
        seq = order[c]
        ids = list(range(nxt, nxt + max(1, len(seq))))
        nxt += len(ids)
        for k, a in enumerate(ids):
            arcs.append({"id": a, "component": c, "next": ids[(k + 1) % len(ids)]})
        for k, passage in enumerate(seq):
            in_arc[passage] = ids[k]
            out_arc[passage] = ids[(k + 1) % len(ids)]
        comps.append({"id": c, "framing": f, "basepoint": ids[0]})
    xs = []
    for x, sign in enumerate(signs):
        xs.append({"id": x, "sign": sign,
                   "over_in": in_arc[(x, "over")], "over_out": out_arc[(x, "over")],
                   "under_in": in_arc[(x, "under")], "under_out": out_arc[(x, "under")]})
    return {"components": comps, "arcs": arcs, "crossings": xs}


def _insert(rng, seq, *passages):
    pos = rng.randrange(len(seq) + 1)
    seq[pos:pos] = passages


def link_from_matrix(rng: random.Random, A):
    """A link of unknots whose linking matrix is A: each unit of A[i][j]
    is a clasp (two crossings of that sign, one with i over, one with j
    over) at seeded positions along both components.  There are no
    self-crossings, so every component is a descending unknot."""
    k = len(A)
    signs = []
    order = [[] for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            s = 1 if A[i][j] > 0 else -1
            for _ in range(abs(A[i][j])):
                for over, under in ((i, j), (j, i)):
                    x = len(signs)
                    signs.append(s)
                    _insert(rng, order[over], (x, "over"))
                    _insert(rng, order[under], (x, "under"))
    return link_obj([A[i][i] for i in range(k)], signs, order)


def knotted_link(rng: random.Random, comps: int, selfs: int, kinks: int, clasps: int,
                 under_kinks: bool = False):
    """Knotted link: `comps` components carrying `selfs` self-crossings,
    `kinks` kinks and (with two or more components) `clasps` clasps
    between components, every one at seeded places.

    A self-crossing puts its two passages at independent positions of one
    component (each component gets two of them first); a kink puts them
    next to each other; a clasp adds two same-sign crossings between two
    components.  Framings are drawn from -3..3.

    Which passage of a self-crossing goes over is chosen last.  With
    `under_kinks` it is a coin flip.  Otherwise no crossing may have
    over_in == under_out (the traversal would leave an under passage
    straight into its own over passage), and of the other self-crossings
    exactly half, in seeded places, are met first on their under strand,
    so the descending switch count is the same on every seed.
    """
    signs = []
    order = [[] for _ in range(comps)]
    kinds = ["self"] * selfs + ["kink"] * kinks + ["clasp"] * (clasps if comps > 1 else 0)
    rng.shuffle(kinds)
    plan = [("self", c) for c in range(comps) for _ in range(2)]
    for kind, c in plan + [(kind, None) for kind in kinds]:
        x = len(signs)
        s = rng.choice((1, -1))
        if kind == "clasp":
            i, j = rng.sample(range(comps), 2)
            signs += [s, s]
            for y, (over, under) in ((x, (i, j)), (x + 1, (j, i))):
                _insert(rng, order[over], (y, "over"))
                _insert(rng, order[under], (y, "under"))
            continue
        if c is None:
            c = rng.randrange(comps)
        signs.append(s)
        if kind == "kink":
            _insert(rng, order[c], (x, 0), (x, 1))
        else:
            _insert(rng, order[c], (x, 0))
            _insert(rng, order[c], (x, 1))
    free = []
    for seq in order:
        where = {}
        for k, (x, tag) in enumerate(seq):
            if tag in (0, 1):
                where.setdefault(x, []).append(k)
        for x, (i, j) in where.items():
            if under_kinks:
                first = rng.choice(("over", "under"))
            elif j == i + 1:
                first = "over"
            elif i == 0 and j == len(seq) - 1:
                first = "under"
            else:
                free.append((seq, i, j))
                continue
            seq[i], seq[j] = (x, first), (x, "under" if first == "over" else "over")
    under = [True] * (len(free) // 2) + [False] * (len(free) - len(free) // 2)
    rng.shuffle(under)
    for (seq, i, j), u in zip(free, under):
        x = seq[i][0]
        seq[i], seq[j] = (x, "under" if u else "over"), (x, "over" if u else "under")
    framings = [rng.randint(-3, 3) for _ in range(comps)]
    return link_obj(framings, signs, order)


def scrambled(rng: random.Random, A, slides: int):
    """E^T A E for `slides` seeded elementary slides (column i += s *
    column j, then row i += s * row j): a congruent form."""
    A = [row[:] for row in A]
    n = len(A)
    for _ in range(slides):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        for r in range(n):
            A[r][i] += s * A[r][j]
        for c in range(n):
            A[i][c] += s * A[j][c]
    return A


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def e8_plus_identity(k):
    """E8 (chain 0-...-6, node 7 on node 4, 2 on the diagonal) plus I_k."""
    n = 8 + k
    A = identity(n)
    for i in range(8):
        A[i][i] = 2
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)):
        A[i][j] = A[j][i] = 1
    return A


def random_symmetric(rng: random.Random, n: int, bound: int):
    """Symmetric n x n matrix, entries uniform in [-bound, bound], filled
    row by row over i <= j."""
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            A[i][j] = A[j][i] = rng.randint(-bound, bound)
    return A
