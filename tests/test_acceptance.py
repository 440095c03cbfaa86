"""End-to-end acceptance checks, one per headline guarantee.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see
them); every comparison is exact -- no tolerances anywhere."""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from conftest import (blow_down_gadget, blow_down_unknotify, gadget, gadget_sides, moved,
                      quad, random_diagram, random_kirby_move, random_symmetric,
                      with_split_unknots)
from surgerykit import catalog, jsonio, linkdiag
from surgerykit.calculus import (Replayer, build_embedding_certificate,
                                 donaldson_obstruction, reduce_free_word,
                                 unknotify, verify_certificate,
                                 word_from_intersections)
from surgerykit.cli import main as cli_main
from surgerykit.intlattice import (IntegralLattice, _lattice, _slide_rows,
                                   diagonalizable_over_Z, e8_matrix,
                                   homology_from_diagonal, inertia,
                                   snf_diagonal)
from surgerykit.linkdiag import Editor, linking_matrix


@contextmanager
def _verdict(label):
    try:
        yield
    except BaseException:
        print("FAIL  %s" % label)
        raise
    print("PASS  %s" % label)


def test_acceptance_1_e8_suite(tmp_path, capsys):
    with _verdict("1 E8 suite: det 1, inertia (8,0,0), H1 = 0, not "
                  "diagonalizable, OBSTRUCTED, < 1 s"):
        t0 = time.monotonic()
        E = e8_matrix()
        assert inertia(E).det == 1
        i = inertia(E)
        assert (i.positive, i.zero, i.negative) == (8, 0, 0)
        assert str(homology_from_diagonal(snf_diagonal(E))) == "0"
        ok, k = diagonalizable_over_Z(E)
        assert ok is False and E.n - k == 8
        assert donaldson_obstruction(E).verdict == "OBSTRUCTED"
        path = tmp_path / "e8.json"
        jsonio.save_path(str(path), jsonio.lattice_to_obj(E))
        assert cli_main(["obstruction", str(path), "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["result"]["verdict"] == "OBSTRUCTED"
        assert time.monotonic() - t0 < 1.0


def test_acceptance_2_lens_space_homology():
    with _verdict("2 lens spaces: framings 0,1,2,5,-7 give Z, 0, Z/2, Z/5, Z/7"):
        t0 = time.monotonic()
        want = {0: "Z", 1: "0", 2: "Z/2", 5: "Z/5", -7: "Z/7"}
        for p, s in want.items():
            h = homology_from_diagonal(snf_diagonal(linking_matrix(catalog.unknot(p))))
            assert str(h) == s, (p, str(h))
        assert time.monotonic() - t0 < 1.0


def test_acceptance_3_gadget_soundness():
    with _verdict("3 gadget soundness: insert + blow-down is the identity on "
                  "linking matrices (200+ diagrams, all crossings and sides)"):
        rng = random.Random(1009)
        diagrams = 0
        cases = 0
        while diagrams < 200:
            d = random_diagram(rng, max_components=3, max_crossings=8)
            L = linking_matrix(d)
            for xid in d.crossings:
                for side in gadget_sides(d, xid):
                    ed = Editor(d.copy())
                    u = gadget(ed, xid, side)
                    assert not linkdiag.validate_diagram(ed.d)
                    blow_down_gadget(ed, xid, side, u)
                    assert linking_matrix(ed.d).entries == L.entries
                    cases += 1
            diagrams += 1
        assert cases >= 200


def test_acceptance_4_move_invariance():
    with _verdict("4 move invariance: 100+ random slide sequences and Kirby-move "
                  "scripts keep cokernel rank and torsion; diagram and matrix traces agree"):
        rng = random.Random(1013)
        for _ in range(100):
            d = with_split_unknots(rng, random_diagram(rng, max_components=3, max_crossings=4),
                                   rng.randint(2, 4))
            L = linking_matrix(d)
            h0 = homology_from_diagonal(snf_diagonal(L))
            for _ in range(rng.randint(1, 20)):
                i, j = rng.sample(range(L.n), 2)
                trial = moved(L, _slide_rows, i, j, rng.choice((1, -1)))
                # keep the entries small: skip slides that blow them up
                if max(abs(x) for row in trial.entries for x in row) <= 64:
                    L = trial
            h1 = homology_from_diagonal(snf_diagonal(L))
            assert (h0.rank, h0.torsion) == (h1.rank, h1.torsion)
            rp, t = Replayer(d.copy()), 0
            for _ in range(rng.randint(1, 20)):
                mv = random_kirby_move(rng, rp.ed.d)
                if mv is not None:
                    rp.apply(t, mv)  # asserts matrix/diagram agreement at the move
                    t += 1
            h1 = homology_from_diagonal(snf_diagonal(_lattice(rp.result().rows)))
            assert (h0.rank, h0.torsion) == (h1.rank, h1.torsion)


def test_acceptance_5_snf_oracle():
    with _verdict("5 SNF: 500+ random symmetric 4x4 forms give sympy's invariant "
                  "factors, divisibility chain, zeros last, product == |det A|"):
        rng = random.Random(1019)
        for _ in range(500):
            A = random_symmetric(rng, 4, -5, 5)
            diag = snf_diagonal(IntegralLattice(A))
            want = [abs(int(x)) for x in sympy_snf(sympy.Matrix(A)).diagonal()]
            assert diag == want + [0] * (4 - len(want))
            assert all(x >= 0 for x in diag)
            nz = [x for x in diag if x]
            assert diag == nz + [0] * (4 - len(nz))
            for a, b in zip(nz, nz[1:]):
                assert b % a == 0
            assert math.prod(diag) == abs(sympy.Matrix(A).det())


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


def test_acceptance_6_short_vector_oracle():
    with _verdict("6 short vectors: 50+ random positive definite forms agree "
                  "with brute-force box enumeration"):
        rng = random.Random(1021)
        done = 0
        while done < 50:
            n = rng.randint(1, 4)
            B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            A = [[sum(B[k][i] * B[k][j] for k in range(n)) + int(i == j)
                  for j in range(n)] for i in range(n)]
            if any(abs(x) > 4 for row in A for x in row):
                continue
            L = IntegralLattice(A)
            assert inertia(L).positive == n
            bound = rng.randint(1, 4)
            from surgerykit.intlattice import short_vectors
            got = short_vectors(L, bound)
            inv = _invert_fraction(A)
            lims = []
            for i in range(n):
                m = 0
                while Fraction((m + 1) ** 2) <= Fraction(bound) * inv[i][i]:
                    m += 1
                lims.append(m)
            want = set()
            for v in itertools.product(*[range(-m, m + 1) for m in lims]):
                if any(v) and quad(L, v) <= bound:
                    first = next(t for t in v if t)
                    want.add(v if first > 0 else tuple(-t for t in v))
            assert got == sorted(want)
            done += 1


def test_acceptance_7_certificate_round_trip():
    with _verdict("7 certificates: fixture corpus builds and verifies; p and "
                  "m+n are as declared; --pad-positive gives m,n > 0"):
        corpus = [catalog.unknot(f) for f in range(-3, 4)]
        corpus += [catalog.chain_link([2, -3]), catalog.chain_link([0, 1]),
                   catalog.chain_link([2, -3, 5]), catalog.chain_link([-1, 0, 4])]
        for d in corpus:
            cert = build_embedding_certificate(d)
            rep = verify_certificate(cert)
            assert rep.passed, (linking_matrix(d).entries, rep.failures())
            from surgerykit.calculus import GadgetSwitch
            assert cert.p == sum(1 for mv in cert.moves
                                 if isinstance(mv, GadgetSwitch))
            assert cert.m + cert.n == len(cert.initial.components)
        for d in corpus:
            cert = build_embedding_certificate(d, pad_positive=True)
            assert cert.m > 0 and cert.n > 0
            assert verify_certificate(cert).passed


def test_acceptance_8_unknotify():
    with _verdict("8 unknotify: trefoil plus 20 random diagrams come out "
                  "descending; gadgets are +/-1-framed and blow back down"):
        fixtures = [catalog.trefoil(-1)]
        rng = random.Random(1031)
        while len(fixtures) < 21:
            fixtures.append(random_diagram(rng, max_components=3,
                                           max_crossings=8))
        for d in fixtures:
            res = unknotify(d)
            assert linkdiag.descending_switch_set(res.diagram, self_only=True) == set()
            for cid, c in res.diagram.components.items():
                if cid not in d.components:
                    assert c.framing in (1, -1)
            assert (linking_matrix(blow_down_unknotify(d, res)).entries
                    == linking_matrix(d).entries)


def test_acceptance_9_free_group_lemma():
    with _verdict("9 free words: [(i,+),(i,-)] is trivial; reduction is "
                  "schedule-independent"):
        for i in range(10):
            w = word_from_intersections([(i, 1), (i, -1)])
            assert reduce_free_word(w).trivial
        rng = random.Random(1033)
        for _ in range(200):
            letters = [(rng.randint(0, 3), rng.choice((1, -1)))
                       for _ in range(rng.randint(0, 24))]
            want = reduce_free_word(letters).reduced
            w = list(letters)
            while True:
                pairs = [k for k in range(len(w) - 1)
                         if w[k][0] == w[k + 1][0] and w[k][1] == -w[k + 1][1]]
                if not pairs:
                    break
                k = rng.choice(pairs)
                del w[k:k + 2]
            assert w == want
