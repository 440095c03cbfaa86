"""Certified Kirby-move scripts and the three pipelines built on them:
free-group-word triviality, unknotification of surgery links, and
embedding certificates with their replay verifier, plus the lattice
obstruction verdict.

A move script is replayed against two parallel states -- the diagram and
its linking matrix -- and the two are cross-checked after every move; a
mismatch is a hard internal error, never a report entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from . import catalog, intlattice, linkdiag
from .intlattice import IntegralLattice
from .linkdiag import DiagramError, FramedLinkDiagram, GadgetRecord


class MoveError(ValueError):
    """A move's precondition failed during replay."""


# ---------------------------------------------------------------------------
# free words


@dataclass
class ReducedWord:
    reduced: list[tuple[int, int]]
    cyclically_reduced: list[tuple[int, int]]
    trivial: bool


def _free_reduce(letters):
    stack: list[tuple[int, int]] = []
    for gen, exp in letters:
        if exp not in (1, -1):
            raise ValueError("exponent must be +1 or -1, got %r" % (exp,))
        if stack and stack[-1][0] == gen and stack[-1][1] == -exp:
            stack.pop()
        else:
            stack.append((gen, exp))
    return stack


def reduce_free_word(letters) -> ReducedWord:
    """Free reduction to a fixed point, then cyclic reduction.

    The word is trivial iff the free reduction is empty; cancellation is
    confluent, so the stack pass gives the canonical answer.
    """
    red = _free_reduce(letters)
    cyc = list(red)
    while len(cyc) >= 2 and cyc[0][0] == cyc[-1][0] and cyc[0][1] == -cyc[-1][1]:
        cyc = cyc[1:-1]
    return ReducedWord(reduced=red, cyclically_reduced=cyc, trivial=not red)


def word_from_intersections(seq) -> list[tuple[int, int]]:
    """The loop's word in the meridian-disc generators: one letter per
    intersection point, in order, with the intersection sign as
    exponent."""
    out = []
    for disc, sign in seq:
        if sign not in (1, -1):
            raise ValueError("intersection sign must be +1 or -1, got %r" % (sign,))
        out.append((int(disc), sign))
    return out


# ---------------------------------------------------------------------------
# moves


@dataclass
class GadgetSwitch:
    """Switch an existing crossing, wiring an existing split +/-1 unknot
    around the two strands on `side`."""
    crossing: int
    unknot: int
    side: str


@dataclass
class SlideOverUnknot:
    """Slide `component` over a split +/-1-framed unknot: framing changes
    by that +/-1 without changing the rest of the link."""
    component: int
    unknot: int
    s: int


@dataclass
class AddSplitUnknot:
    framing: int


@dataclass
class MatrixSlide:
    """General handle slide of component #i over component #j (positional
    indices into the current component order)."""
    i: int
    j: int
    s: int


@dataclass
class BlowDownIndex:
    """Blow down the +/-1-framed component at position k."""
    k: int


@dataclass
class Poke:
    """Reidemeister-2 poke of `over` across `under`; creates a canceling
    crossing pair and changes no linking data."""
    over: int
    under: int
    sign: int


KirbyMove = Union[GadgetSwitch, SlideOverUnknot, AddSplitUnknot,
                  MatrixSlide, BlowDownIndex, Poke]


@dataclass
class MoveScript:
    initial: FramedLinkDiagram
    moves: list[KirbyMove] = field(default_factory=list)


@dataclass
class ReplayResult:
    final: FramedLinkDiagram
    matrix_trace: list[IntegralLattice]


def _index_of(d: FramedLinkDiagram, cid: int) -> int:
    ids = d.component_ids()
    try:
        return ids.index(cid)
    except ValueError:
        raise MoveError("unknown component id %r" % (cid,)) from None


def _apply_move(d: FramedLinkDiagram, L: IntegralLattice, move: KirbyMove):
    """One move applied to the diagram, with the matrix updated by the
    move's own matrix-level rule (not recomputed)."""
    if isinstance(move, AddSplitUnknot):
        d2, _ = linkdiag.add_split_unknot(d, move.framing)
        return d2, intlattice.stabilize(L, move.framing)

    if isinstance(move, Poke):
        if move.sign not in (1, -1):
            raise MoveError("poke sign must be +1 or -1")
        try:
            d2, _, _ = linkdiag.add_poke(d, move.over, move.under, move.sign)
        except DiagramError as e:
            raise MoveError(str(e)) from None
        return d2, L

    if isinstance(move, SlideOverUnknot):
        if move.s not in (1, -1):
            raise MoveError("slide sign must be +1 or -1")
        try:
            ucomp = d.component(move.unknot)
            d.component(move.component)
        except DiagramError as e:
            raise MoveError(str(e)) from None
        if move.component == move.unknot:
            raise MoveError("cannot slide a component over itself")
        if ucomp.framing not in (1, -1):
            raise MoveError("slide target unknot %d has framing %d, need +/-1"
                            % (move.unknot, ucomp.framing))
        if d.crossings_of_component(move.unknot):
            raise MoveError("slide target unknot %d is not split" % move.unknot)
        i = _index_of(d, move.component)
        u = _index_of(d, move.unknot)
        comp = d.component(move.component)
        d2 = linkdiag.add_clasp(d, move.component, move.unknot,
                                move.s * ucomp.framing)
        d2.component(move.component).framing = comp.framing + ucomp.framing
        return d2, intlattice.congruence_slide(L, i, u, move.s)

    if isinstance(move, GadgetSwitch):
        try:
            owners = d._strand_owners(d.crossing(move.crossing))
            d2, rec = linkdiag.insert_crossing_gadget(d, move.crossing, move.side,
                                                      move.unknot)
        except DiagramError as e:
            raise MoveError(str(e)) from None
        # the switch moves lk(x, y) by eps*a*b; the unknot links the over
        # strand's component a times and the under strand's b times
        a, b = rec.passage_signs
        ix, iy = (_index_of(d, cid) for cid in owners)
        iu = _index_of(d, rec.unknot)
        A = [row[:] for row in L.entries]
        if ix != iy:
            A[ix][iy] = A[iy][ix] = A[ix][iy] + rec.epsilon * a * b
        v = {ix: 0, iy: 0}
        v[ix] += a
        v[iy] += b
        for t, vt in v.items():
            A[iu][t] += vt
            A[t][iu] += vt
        for cid, delta in rec.framing_compensations.items():
            t = _index_of(d, cid)
            A[t][t] += delta
        return d2, IntegralLattice(A)

    if isinstance(move, MatrixSlide):
        ids = d.component_ids()
        if not (0 <= move.i < len(ids) and 0 <= move.j < len(ids)):
            raise MoveError("slide index out of range")
        if move.i == move.j:
            raise MoveError("cannot slide a component over itself")
        if move.s not in (1, -1):
            raise MoveError("slide sign must be +1 or -1")
        ci, cj = ids[move.i], ids[move.j]
        L2 = intlattice.congruence_slide(L, move.i, move.j, move.s)
        d2 = d.copy()
        d2.component(ci).framing = L2.entries[move.i][move.i]
        for t, ct in enumerate(ids):
            if t == move.i:
                continue
            delta = L2.entries[move.i][t] - L.entries[move.i][t]
            sgn = 1 if delta > 0 else -1
            for _ in range(abs(delta)):
                d2 = linkdiag.add_clasp(d2, ci, ct, sgn)
        return d2, L2

    if isinstance(move, BlowDownIndex):
        ids = d.component_ids()
        if not 0 <= move.k < len(ids):
            raise MoveError("blow-down index out of range")
        cid = ids[move.k]
        try:
            d2 = linkdiag.blow_down_component(d, cid)
            L2 = intlattice.blow_down(L, move.k)
        except (DiagramError, intlattice.LatticeError) as e:
            raise MoveError(str(e)) from None
        return d2, L2

    raise MoveError("unknown move %r" % (move,))


def replay(script: MoveScript) -> ReplayResult:
    """Deterministic replay; after every move the incrementally tracked
    matrix must equal the linking matrix recomputed from the diagram."""
    d = script.initial.copy()
    L = linkdiag.linking_matrix(d)
    trace = [L]
    for t, move in enumerate(script.moves):
        try:
            d, L = _apply_move(d, L, move)
        except MoveError as e:
            raise MoveError("move %d (%s): %s" % (t, type(move).__name__, e)) from None
        recomputed = linkdiag.linking_matrix(d)
        if recomputed != L:
            raise AssertionError(
                "internal error: matrix-level and diagram-level updates disagree "
                "after move %d (%s): %r vs %r"
                % (t, type(move).__name__, L.entries, recomputed.entries))
        trace.append(L)
    return ReplayResult(final=d, matrix_trace=trace)


# ---------------------------------------------------------------------------
# unknotification (crossing changes realized by blow-up gadgets)


@dataclass
class UnknotifyResult:
    diagram: FramedLinkDiagram
    gadgets: list[GadgetRecord]
    p: int


def _gadget_side_for(d: FramedLinkDiagram, xid: int) -> str:
    c = d.crossing(xid)
    # antiparallel passages keep the gadget unknot unlinked (the
    # canceling-curve picture); fall back to the parallel side when the
    # mixed side degenerates on a kink.
    if c.over_in != c.under_out:
        return linkdiag.SIDE_LEFT
    return linkdiag.SIDE_BEFORE


def unknotify(d: FramedLinkDiagram, component_order=None,
              unlink: bool = False) -> UnknotifyResult:
    """Make every component an unknot (or the whole link an unlink, with
    `unlink=True`) by switching the descending switch set, each switch
    paid for by a +/-1-framed gadget unknot."""
    linkdiag.require_valid(d)
    switches = linkdiag.descending_switch_set(d, component_order,
                                              self_only=not unlink)
    cur = d
    gadgets: list[GadgetRecord] = []
    for xid in sorted(switches):
        side = _gadget_side_for(cur, xid)
        cur, rec = linkdiag.insert_crossing_gadget(cur, xid, side)
        gadgets.append(rec)
    return UnknotifyResult(diagram=cur, gadgets=gadgets, p=len(gadgets))


# ---------------------------------------------------------------------------
# embedding certificates


@dataclass
class EmbeddingCertificate:
    target: FramedLinkDiagram
    initial: FramedLinkDiagram
    moves: list[KirbyMove]
    sublink: dict[int, int]
    m: int
    n: int
    p: int

    @property
    def script(self) -> MoveScript:
        return MoveScript(initial=self.initial, moves=list(self.moves))


def _sign_or_plus(x: int) -> int:
    return -1 if x < 0 else 1


def build_embedding_certificate(d: FramedLinkDiagram,
                                auto_unknotify: bool = False,
                                pad_positive: bool = False) -> EmbeddingCertificate:
    """Witness that surgery on `d` embeds in a blown-up product over the
    sphere: an initial +/-1-framed unlink, a script of pokes, gadget
    switches and framing-fix slides, and the sublink that replays to the
    target's linking data.
    """
    linkdiag.require_valid(d)
    switches = linkdiag.descending_switch_set(d, self_only=True)
    if switches:
        if not auto_unknotify:
            raise DiagramError(
                "components are not presented as descending unknots "
                "(crossings %r need switching); pass auto_unknotify=True"
                % (sorted(switches),))
        d = unknotify(d).diagram

    target_ids = d.component_ids()
    A = linkdiag.linking_matrix(d).entries
    k = len(target_ids)
    sublink = {cid: t for t, cid in enumerate(target_ids)}

    # The initial unlink, in id order: one unknot per target component,
    # one gadget unknot per unit of linking, then the framing-fix
    # unknots.  A poke plus a 'before'-side gadget switch between a and b
    # adds sign(lam) to lk(a, b) and to both framings, so the framing
    # left to fix on t is A[t][t] - sign(A[t][t]) - sum_u A[t][u].
    framings = [_sign_or_plus(A[t][t]) for t in range(k)]
    pairs = [(a, b, A[a][b]) for a in range(k) for b in range(a + 1, k) if A[a][b]]
    framings += [_sign_or_plus(lam) for _, _, lam in pairs for _ in range(abs(lam))]
    deficits = [A[t][t] - framings[t] - sum(A[t][u] for u in range(k) if u != t)
                for t in range(k)]
    framings += [_sign_or_plus(dt) for dt in deficits for _ in range(abs(dt))]
    if pad_positive and not (1 in framings and -1 in framings):
        framings += [1, -1]
    initial = catalog.unlink(framings)

    state, L = initial, IntegralLattice.diagonal(framings)
    moves: list[KirbyMove] = []

    def emit(mv: KirbyMove) -> None:
        nonlocal state, L
        state, L = _apply_move(state, L, mv)
        moves.append(mv)

    u = k                                      # next unused unknot of initial
    for a, b, lam in pairs:
        sigma = -_sign_or_plus(lam)            # poke crossing sign
        for _ in range(abs(lam)):
            c_main = state.fresh_crossing_ids(1)[0]
            emit(Poke(over=a, under=b, sign=sigma))
            emit(GadgetSwitch(crossing=c_main, unknot=u, side=linkdiag.SIDE_BEFORE))
            u += 1
    p = u - k
    for t, dt in enumerate(deficits):
        for _ in range(abs(dt)):
            emit(SlideOverUnknot(component=t, unknot=u, s=1))
            u += 1

    return EmbeddingCertificate(target=d, initial=initial, moves=moves,
                                sublink=sublink, m=framings.count(1),
                                n=framings.count(-1), p=p)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]


def verify_certificate(cert: EmbeddingCertificate) -> VerificationReport:
    """Replay the script and audit every claim the certificate makes.
    Failures are report entries, never exceptions."""
    checks: list[CheckResult] = []

    bad = linkdiag.validate_diagram(cert.initial)
    unlink = not bad and not cert.initial.crossings and all(
        c.framing in (1, -1) for c in cert.initial.components)
    detail = "; ".join(bad) if bad else (
        "" if unlink else "initial diagram is not a +/-1-framed zero-crossing unlink")
    checks.append(CheckResult("initial is a +/-1-framed unlink", unlink, detail))

    m = sum(1 for c in cert.initial.components if c.framing == 1)
    n = sum(1 for c in cert.initial.components if c.framing == -1)
    checks.append(CheckResult(
        "declared m, n match initial framings",
        (m, n) == (cert.m, cert.n),
        "initial has m=%d, n=%d; certificate declares m=%d, n=%d" % (m, n, cert.m, cert.n)
        if (m, n) != (cert.m, cert.n) else ""))

    gadget_count = sum(1 for mv in cert.moves if isinstance(mv, GadgetSwitch))
    checks.append(CheckResult(
        "declared p matches gadget switches",
        gadget_count == cert.p,
        "script has %d gadget switches, certificate declares p=%d"
        % (gadget_count, cert.p) if gadget_count != cert.p else ""))

    if not unlink:
        return VerificationReport(checks)

    try:
        result = replay(cert.script)
    except MoveError as e:
        checks.append(CheckResult("script replays", False, str(e)))
        return VerificationReport(checks)
    checks.append(CheckResult("script replays", True))

    final = result.final
    tgt_bad = linkdiag.validate_diagram(cert.target)
    if tgt_bad:
        checks.append(CheckResult("target diagram valid", False, "; ".join(tgt_bad)))
        return VerificationReport(checks)
    target_ids = cert.target.component_ids()
    mapped = [cert.sublink.get(cid) for cid in target_ids]
    final_ids = final.component_ids()
    ok_map = (None not in mapped and len(set(mapped)) == len(mapped)
              and all(x in final_ids for x in mapped))
    checks.append(CheckResult(
        "sublink designates distinct final components", ok_map,
        "" if ok_map else "sublink map %r does not inject target components "
        "into the final diagram" % (cert.sublink,)))
    if not ok_map:
        return VerificationReport(checks)

    try:
        Lt = linkdiag.linking_matrix(cert.target)
    except DiagramError as e:
        checks.append(CheckResult("target diagram valid", False, str(e)))
        return VerificationReport(checks)
    idx = {cid: final_ids.index(cid) for cid in mapped}
    Lf = result.matrix_trace[-1]
    sub = [[Lf.entries[idx[mapped[a]]][idx[mapped[b]]]
            for b in range(len(mapped))] for a in range(len(mapped))]
    same = sub == Lt.entries
    checks.append(CheckResult(
        "sublink linking matrix equals target", same,
        "" if same else "sublink matrix %r, target matrix %r" % (sub, Lt.entries)))
    return VerificationReport(checks)


# ---------------------------------------------------------------------------
# the lattice obstruction


@dataclass
class ObstructionReport:
    positive_definite: bool
    unimodular: bool
    diagonalizable: bool | None
    verdict: str  # OBSTRUCTED / NOT_OBSTRUCTED / NOT_APPLICABLE
    diagonal_part: int | None = None
    residual_rank: int | None = None


def donaldson_obstruction(L: IntegralLattice) -> ObstructionReport:
    """Does the presented homology sphere fail to embed separatingly in
    any negative blow-up of the product over the sphere?

    OBSTRUCTED iff the form is positive definite, unimodular, and not
    diagonalizable over the integers.
    """
    posdef = intlattice.is_positive_definite(L)
    unimod = intlattice.is_unimodular(L)
    if not (posdef and unimod):
        return ObstructionReport(positive_definite=posdef, unimodular=unimod,
                                 diagonalizable=None, verdict="NOT_APPLICABLE")
    ok, count, residual = intlattice.diagonalizable_over_Z(L)
    return ObstructionReport(
        positive_definite=True, unimodular=True, diagonalizable=ok,
        verdict="NOT_OBSTRUCTED" if ok else "OBSTRUCTED",
        diagonal_part=count, residual_rank=residual.n)
