"""The three workloads: their seeded inputs, their fixed inputs and the
check of every command's output.

Each builder writes its inputs under `work` and returns a list of
commands (one pass over the input cycle) and a check to run once after
the timed loop.  Sizes are fixed ladders; the seed chooses signs,
framings and where every crossing sits, so a pass costs about the same
on every seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import gen
import oracle
from oracle import expect

# fault labels: the two program faults a command may hit and still count
# only as failed (see README)
STRAND_OWNERS_KEYERROR = "KeyError from FramedLinkDiagram._strand_owners"
CAP = "ran past the per-command cap"


@dataclass
class Result:
    rc: int
    report: dict | None       # parsed --json report (exit 0 / 1)
    output: dict | None       # parsed -o file


@dataclass
class Cmd:
    argv: list[str]
    kind: str
    check: Callable[[Result], None]
    out: str | None = None
    fault: str | None = None


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _result(res: Result) -> dict:
    expect(res.report is not None, "no --json report", res.rc)
    return res.report["result"]


# ---------------------------------------------------------------------------
# certify_verify

HOPF_LK = (2, 4, 6, 8, 10)
CHAIN_K = (8, 10)
MUTANTS = 60
SIDES = ("before", "after", "left", "right")


DEFICIT = 1


def _framed(rng, A):
    """Set the framings of A (off-diagonal part given) so that every
    component needs exactly DEFICIT framing-fix slides in the certificate
    (each unit of linking adds its sign to both framings, on top of the
    initial +/-1): the seed picks the signs, the cost stays fixed."""
    for t, row in enumerate(A):
        r = rng.choice((1, -1)) * DEFICIT + sum(x for u, x in enumerate(row) if u != t)
        row[t] = r + (1 if r > 0 else -1) if r else rng.choice((1, -1))
    return A


def _hopf(rng, lk):
    s = rng.choice((1, -1))
    return _framed(rng, [[0, s * lk], [s * lk, 0]])


def _chain(rng, k):
    A = [[0] * k for _ in range(k)]
    for i in range(k - 1):
        A[i][i + 1] = A[i + 1][i] = rng.choice((1, -1))
    return _framed(rng, A)


def _check_certify(A):
    p = sum(abs(A[i][j]) for i in range(len(A)) for j in range(i + 1, len(A)))

    def check(res):
        r = _result(res)
        expect(res.rc == 0, "certify-embedding exit code", res.rc)
        expect(r["p"] == p, "p is not the sum of |linking numbers|", r["p"], p)
        cert = res.output
        expect(cert is not None, "no certificate written")
        expect(oracle.linking_matrix(cert["target"]) == A,
               "certificate target does not present the input matrix")
        expect((r["m"], r["n"], r["moves"]) == (cert["m"], cert["n"], len(cert["moves"])),
               "report and certificate disagree")
    return check


def _check_pass(res):
    r = _result(res)
    expect(res.rc == 0 and r["verdict"] == "PASS", "certificate does not verify",
           res.rc, [c for c in r["checks"] if not c["ok"]])


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(obj, list):
        for k, v in enumerate(obj):
            yield from _leaves(v, path + (k,))
    elif path[-1] != "type":
        yield path


def _mutate(rng, cert):
    """Change one field: negate a sign, move an id or count by 1 or 2,
    or pick another gadget side."""
    cert = json.loads(json.dumps(cert))
    path = rng.choice(list(_leaves(cert)))
    node = cert
    for k in path[:-1]:
        node = node[k]
    v = node[path[-1]]
    if isinstance(v, str):
        node[path[-1]] = rng.choice([s for s in SIDES if s != v])
    elif path[-1] in ("sign", "s"):
        node[path[-1]] = -v
    else:
        node[path[-1]] = v + rng.choice((-2, -1, 1, 2))
    return cert, path[-1]


def _check_mutant(field):
    def check(res):
        if res.rc == 2:
            expect(res.report is None, "exit 2 with a report")
            return
        r = _result(res)
        expect(r["verdict"] == ("PASS" if res.rc == 0 else "FAIL"),
               "verdict and exit code disagree", r["verdict"], res.rc)
        if field in ("m", "n", "p"):
            expect(r["verdict"] == "FAIL", "altered declared %s passes" % field)
    return check


def _mutant_cmds(work, run_cli, count):
    """A fixed set of single-field mutants (independent of --seed) of
    certificates for small fixed links; the certificates are made by the
    program during set-up."""
    rng = random.Random("certify_verify:mutants")
    bases = []
    for t, A in enumerate(([[1, 1], [1, -1]], [[2, -2], [-2, 3]], [[-1, 3], [3, 2]],
                           _chain(rng, 4))):
        src = os.path.join(work, "base%d.json" % t)
        cert = os.path.join(work, "base%d.cert.json" % t)
        _write(src, gen.link_from_matrix(rng, A))
        if run_cli(["certify-embedding", src, "-o", cert]) != 0:
            raise RuntimeError("set-up: certify-embedding failed on %s" % src)
        with open(cert, encoding="utf-8") as fh:
            bases.append(json.load(fh))
    cmds = []
    for t in range(count):
        obj, field = _mutate(rng, bases[t % len(bases)])
        path = os.path.join(work, "mutant%02d.json" % t)
        _write(path, obj)
        cmds.append(Cmd(["verify", path, "--json"], "mutant", _check_mutant(field),
                        fault=STRAND_OWNERS_KEYERROR))
    return cmds


def certify_verify(seed, work, run_cli, small=False):
    rng = random.Random("certify_verify:%d" % seed)
    mats = [_hopf(rng, lk) for lk in HOPF_LK[:2 if small else None]]
    mats += [_chain(rng, k) for k in CHAIN_K[:1 if small else None]]
    cmds = []
    for t, A in enumerate(mats):
        src = os.path.join(work, "link%02d.json" % t)
        cert = os.path.join(work, "cert%02d.json" % t)
        _write(src, gen.link_from_matrix(rng, A))
        cmds.append(Cmd(["certify-embedding", src, "-o", cert, "--json"], "certify",
                        _check_certify(A), out=cert))
        cmds.append(Cmd(["verify", cert, "--json"], "verify", _check_pass))
    cmds += _mutant_cmds(work, run_cli, 12 if small else MUTANTS)
    return cmds, None


# ---------------------------------------------------------------------------
# lattice_obstruction

# (E8 part?, rank of the identity part): E8 (+) I_k is OBSTRUCTED, I_k is not
FORMS = ((False, 6), (False, 8), (False, 10), (True, 1), (True, 2), (True, 4))
OBSTRUCTION_SLIDES = (10, 20, 30)
# `lattice` runs smith_normal_form, which runs past any cap on some
# scrambles from 15 slides on (README); 5 slides keep every one finite.
LATTICE_SLIDES = 5
RANDOM = 48          # random symmetric 6 x 6 matrices, entries in [-3, 3]
RANDOM_N = 6


def _check_obstruction(obstructed):
    def check(res):
        r = _result(res)
        expect(res.rc == 0, "obstruction exit code", res.rc)
        expect((r["positive_definite"], r["unimodular"], r["diagonalizable_over_Z"],
                r["verdict"]) == (True, True, not obstructed,
                                  "OBSTRUCTED" if obstructed else "NOT_OBSTRUCTED"),
               "wrong obstruction verdict", r)
    return check


def _check_lattice_known(n, ones, obstructed):
    def check(res):
        r = _result(res)
        expect(res.rc == 0, "lattice exit code", res.rc)
        got = (r["n"], r["det"], r["inertia"], r["snf_diagonal"], r["homology"]["rank"],
               r["homology"]["torsion"], r["unimodular"], r["diagonalizable_over_Z"],
               r["diagonal_part"], r["residual_rank"])
        want = (n, 1, {"positive": n, "zero": 0, "negative": 0}, [1] * n, 0, [], True,
                not obstructed, ones, n - ones)
        expect(got == want, "wrong lattice invariants", got, want)
    return check


def _check_lattice_random(n, seen, t):
    def check(res):
        r = _result(res)
        expect(res.rc == 0 and r["n"] == n, "lattice exit code or rank", res.rc)
        det = int(r["det"])
        snf = [int(x) for x in r["snf_diagonal"]]
        i = r["inertia"]
        zeros = snf.count(0)
        expect(i["positive"] + i["zero"] + i["negative"] == n, "inertia does not sum to n")
        expect(i["zero"] == zeros, "inertia nullity differs from the Smith nullity")
        expect((det == 0) == (zeros > 0), "det and Smith diagonal disagree on rank")
        if det:
            expect((det > 0) == (i["negative"] % 2 == 0), "det sign against inertia")
        expect(r["homology"]["rank"] == zeros and
               [int(x) for x in r["homology"]["torsion"]] == [d for d in snf if d >= 2],
               "H1 is not read off the Smith diagonal")
        expect(r["unimodular"] == (abs(det) == 1), "unimodular flag")
        seen[t] = (det, snf)
    return check


def _signed(rng, A):
    """S A S for a seeded diagonal S of signs: the same lattice, with a
    Fincke-Pohst search tree of the same shape."""
    s = [rng.choice((1, -1)) for _ in A]
    return [[s[i] * s[j] * x for j, x in enumerate(row)] for i, row in enumerate(A)]


def lattice_obstruction(seed, work, run_cli, small=False):
    """The scrambled forms come from a fixed seed and --seed only flips the
    signs of their basis vectors: over random slides the cost of the
    short-vector search is heavy-tailed, so a pass over seeded scrambles
    varied by 13-35% from seed to seed (README).  The random matrices are
    drawn from --seed."""
    forms = random.Random("lattice_obstruction:forms")
    rng = random.Random("lattice_obstruction:%d" % seed)
    cmds = []
    for t, (e8, k) in enumerate(FORMS[:1] + FORMS[3:4] if small else FORMS):
        base = gen.e8_plus_identity(k) if e8 else gen.identity(k)
        for slides in OBSTRUCTION_SLIDES[:1 if small else None]:
            path = os.path.join(work, "form%d-%02d.json" % (t, slides))
            _write(path, {"n": len(base),
                          "entries": _signed(rng, gen.scrambled(forms, base, slides))})
            cmds.append(Cmd(["obstruction", path, "--json"], "obstruction",
                            _check_obstruction(e8)))
        path = os.path.join(work, "form%d-%02d.json" % (t, LATTICE_SLIDES))
        _write(path, {"n": len(base),
                      "entries": _signed(rng, gen.scrambled(forms, base, LATTICE_SLIDES))})
        cmds.append(Cmd(["lattice", path, "--json"], "lattice",
                        _check_lattice_known(len(base), k, e8)))
    mats, seen = [], {}
    for t in range(4 if small else RANDOM):
        path = os.path.join(work, "random%02d.json" % t)
        A = gen.random_symmetric(rng, RANDOM_N, 3)
        mats.append(A)
        _write(path, {"n": RANDOM_N, "entries": A})
        cmds.append(Cmd(["lattice", path, "--json"], "random",
                        _check_lattice_random(RANDOM_N, seen, t)))

    def against_sympy():
        """det and Smith diagonal of the random matrices, from sympy."""
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import smith_normal_form
        expect(len(seen) == len(mats), "random matrices left unchecked")
        for t, A in enumerate(mats):
            det, snf = seen[t]
            M = Matrix(A)
            S = smith_normal_form(M, domain=ZZ)
            want = sorted((abs(int(S[i, i])) for i in range(len(A))),
                          key=lambda d: (d == 0, d))
            expect(int(M.det()) == det, "det differs from sympy", A, det)
            expect(snf == want, "Smith diagonal differs from sympy", A, snf, want)
    against_sympy.seen = seen
    return cmds, against_sympy


# ---------------------------------------------------------------------------
# unknotify_invariants

KNOTS = 39           # seeded inputs per pass, plus one fixed input
FAULT_SEED = 133     # fixed input whose output matrix makes SNF explode


def _check_unknotify(src, self_only):
    switches = oracle.switch_set(src, self_only)
    L_in = oracle.linking_matrix(src)
    k = len(L_in)

    def check(res):
        r = _result(res)
        expect(res.rc == 0, "unknotify exit code", res.rc)
        expect(r["p"] == len(switches) == len(r["gadget_unknots"]),
               "p is not the descending switch count", r["p"], len(switches))
        out = res.output
        expect(out is not None, "no output link written")
        expect(not oracle.switch_set(out, self_only, among=range(k)),
               "output is not descending on the input's components")
        A = oracle.linking_matrix(out)
        for g in range(len(A) - 1, k - 1, -1):
            A = oracle.blow_down(A, g)
        expect(A == L_in, "blowing down the gadgets does not restore the input matrix")
    return check


def _check_invariants(L, out_path=None):
    """invariants of the input link (out_path None) or of the
    unknotify output, whose gadget rows each multiply det by their +/-1."""
    H = oracle.homology(L)
    det_in = oracle.det(L)

    def check(res):
        r = _result(res)
        expect(res.rc == 0, "invariants exit code", res.rc)
        M, det = L, det_in
        if out_path is not None:
            with open(out_path, encoding="utf-8") as fh:
                M = oracle.linking_matrix(json.load(fh))
            for g in range(len(L), len(M)):
                det *= M[g][g]
        expect(r["linking_matrix"]["entries"] == M, "linking matrix differs")
        expect(int(r["det"]) == det, "det differs", r["det"], det)
        got = (r["homology"]["rank"], [int(t) for t in r["homology"]["torsion"]])
        expect(got == H, "H1 differs from the input's", got, H)
    return check


def unknotify_invariants(seed, work, run_cli, small=False):
    rng = random.Random("unknotify_invariants:%d" % seed)
    count = 3 if small else KNOTS
    links = []
    for t in range(count):
        comps, features = 1 + t % 3, 20 + (40 * t) // max(1, count - 1)
        kinks = features // 4
        clasps = features // 4 if comps > 1 else 0
        links.append((gen.knotted_link(rng, comps, features - kinks - clasps, kinks, clasps),
                       False))
    links.append((gen.knotted_link(random.Random(FAULT_SEED), 2, 30, 15, 15,
                                   under_kinks=True), True))
    cmds = []
    for t, (obj, unlink) in enumerate(links):
        src = os.path.join(work, "knot%02d.json" % t)
        out = os.path.join(work, "knot%02d.out.json" % t)
        _write(src, obj)
        L = oracle.linking_matrix(obj)
        cmds.append(Cmd(["unknotify", src, "-o", out, "--json"] + ["--unlink"] * unlink,
                        "unknotify", _check_unknotify(obj, not unlink), out=out))
        cmds.append(Cmd(["invariants", src, "--json"], "invariants", _check_invariants(L)))
        cmds.append(Cmd(["invariants", out, "--json"], "invariants",
                        _check_invariants(L, out), fault=CAP if unlink else None))
    return cmds, None


WORKLOADS = {
    # name: (builder, per-command cap in seconds)
    "certify_verify": (certify_verify, 10.0),
    "lattice_obstruction": (lattice_obstruction, 10.0),
    "unknotify_invariants": (unknotify_invariants, 0.25),
}
