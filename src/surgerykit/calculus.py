"""Certified Kirby-move scripts and the three pipelines built on them:
free-group-word triviality, unknotification of surgery links, and
embedding certificates with their replay verifier, plus the lattice
obstruction verdict.

A move script is replayed in place on the diagram and on its linking
matrix, kept as rows of nonzero entries keyed by component id -- the
one matrix form that the builder and the verifier share, each driving
one `Replayer` move by move -- at a cost that follows the size of each
move's change.  Each move's matrix rule is read off the move and the
diagram before the rewrite, never from what the rewrite returns.  After
every move the crossings and framings the diagram rewrite logged are
checked against the entries the rule changed, in O(change); the rows of
the final diagram are checked once at the end.  A mismatch is a hard
internal error, never a report entry.
"""

from . import intlattice, linkdiag
from .intlattice import IntegralLattice, Record, _lattice
from .linkdiag import Crossing, DiagramError, FramedLinkDiagram


class MoveError(ValueError):
    """A move's precondition failed during replay."""


# ---------------------------------------------------------------------------
# free words


class ReducedWord(Record):
    __slots__ = ("reduced", "cyclically_reduced", "trivial")

    def __init__(self, reduced: list[tuple[int, int]],
                 cyclically_reduced: list[tuple[int, int]], trivial: bool):
        self.reduced, self.cyclically_reduced, self.trivial = reduced, cyclically_reduced, trivial


def _free_reduce(letters):
    stack: list[tuple[int, int]] = []
    for gen, exp in letters:
        if type(exp) is not int or exp not in (1, -1):  # no bool or float
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
    i, j = 0, len(red) - 1
    while i < j and red[i][0] == red[j][0] and red[i][1] == -red[j][1]:
        i, j = i + 1, j - 1
    return ReducedWord(reduced=red, cyclically_reduced=red[i:j + 1], trivial=not red)


def word_from_intersections(seq) -> list[tuple[int, int]]:
    """The loop's word in the meridian-disc generators: one letter per
    intersection point, in order, with the intersection sign as
    exponent.  A disc or sign that is not an int is refused, not
    truncated."""
    out = []
    for disc, sign in seq:
        if type(disc) is not int:  # no bool or float
            raise ValueError("intersection disc must be an integer, got %r" % (disc,))
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError("intersection sign must be +1 or -1, got %r" % (sign,))
        out.append((disc, sign))
    return out


# ---------------------------------------------------------------------------
# moves


class GadgetSwitch(Record):
    """Switch an existing crossing, wiring an existing split +/-1 unknot
    around the two strands on `side`."""
    __slots__ = ("crossing", "unknot", "side")

    def __init__(self, crossing: int, unknot: int, side: str):
        self.crossing, self.unknot, self.side = crossing, unknot, side


class SlideOverUnknot(Record):
    """Slide `component` over a split +/-1-framed unknot: framing changes
    by that +/-1 without changing the rest of the link."""
    __slots__ = ("component", "unknot", "s")

    def __init__(self, component: int, unknot: int, s: int):
        self.component, self.unknot, self.s = component, unknot, s


class Poke(Record):
    """Reidemeister-2 poke of `over` across `under`; creates a canceling
    crossing pair and changes no linking data."""
    __slots__ = ("over", "under", "sign")

    def __init__(self, over: int, under: int, sign: int):
        self.over, self.under, self.sign = over, under, sign


KirbyMove = (GadgetSwitch, SlideOverUnknot, Poke)  # the move classes, for isinstance


class Replayer:
    """One diagram and its linking matrix, rewritten in place move by move.

    Each move rewrites the diagram through a `linkdiag.Editor` core and
    the matrix rows (nonzero entries keyed by component id) through the
    move's own matrix rule, which is read off the move and the diagram
    before the rewrite and touches only the entries it changes.
    After every move the two are checked against each other in O(change):
    the crossings and framings the diagram's log says changed must give
    exactly the entries the rule changed; `result` checks all once.
    """

    def __init__(self, d: FramedLinkDiagram):
        """Rewrites `d` itself, which must be a valid diagram."""
        self.ed = linkdiag.Editor(d)
        self.A = linkdiag._linking_rows(d)

    def apply(self, t: int, move: KirbyMove) -> None:
        try:
            rule, args = self._rewrite(move)
        except (MoveError, DiagramError) as e:
            raise MoveError("move %d (%s): %s" % (t, type(move).__name__, e)) from None
        # by component id: twice each linking number (a crossing sign sum), once each framing
        want = {(p, q): v if p == q else 2 * v for (p, q), v in rule(self.A, *args).items()}
        got = intlattice._pair_sums(self.ed.log)
        self.ed.log.clear()
        if got != want:
            raise AssertionError(
                "matrix-level and diagram-level updates disagree after move %d (%s): "
                "the matrix rule changed %r, the diagram changed %r"
                % (t, type(move).__name__, want, got))

    def _rewrite(self, move: KirbyMove):
        """The move applied to the diagram; returns its matrix rule, read
        off the move and the diagram before the rewrite.  A failed
        precondition, such as a field other than a gadget's side that is
        not an int, raises before any change."""
        if not isinstance(move, KirbyMove):
            raise MoveError("unknown move %r" % (move,))
        for name in move.__slots__:  # a poke's sign is left to the editor's check
            v = getattr(move, name)
            if type(v) is not int and name != "side" and (type(move), name) != (Poke, "sign"):
                raise MoveError("gadget unknot must be a component id, got %r" % (v,)
                                if (type(move), name) == (GadgetSwitch, "unknot")
                                else "%s must be an integer, got %r" % (name, v))
        ed = self.ed
        if isinstance(move, Poke):
            ed.poke(move.over, move.under, move.sign)
            return intlattice._add_rows, ((),)

        if isinstance(move, SlideOverUnknot):
            if move.s not in (1, -1):
                raise MoveError("slide sign must be +1 or -1")
            ucomp = ed.comp(move.unknot)
            ed.comp(move.component)
            if move.component == move.unknot:
                raise MoveError("cannot slide a component over itself")
            if ucomp.framing not in (1, -1):
                raise MoveError("slide target unknot %d has framing %d, need +/-1"
                                % (move.unknot, ucomp.framing))
            if next(iter(ed.arcs_of[move.unknot]), None) in ed.in_x:  # see Editor.xs_of
                raise MoveError("slide target unknot %d is not split" % move.unknot)
            # the split unknot's pushoff links nothing else: the component
            # gains its framing and one clasp with it
            c, f = move.component, ucomp.framing
            ed.set_framing(c, ed.comp(c).framing + f)
            ed.clasp(c, move.unknot, move.s * f)
            return intlattice._slide_rows, (c, move.unknot, move.s)

        d = ed.d  # GadgetSwitch
        c = d.crossing(move.crossing)
        x, y = d._strand_owners(c)
        _, _, a, b, eps = linkdiag._side_arcs(c, move.side)
        ed.gadget(move.crossing, move.side, move.unknot)
        # the blow-up of the eps-framed unknot whose row is w = a e_x + b e_y
        # (the over strand's component x, the under strand's y): A gains eps w w^T
        w = {x: a}
        w[y] = w.get(y, 0) + b
        entries = [(move.unknot, t, wt) for t, wt in w.items()]
        entries += [(p, q, eps * w[p] * w[q]) for p in w for q in w if p <= q]
        return intlattice._add_rows, (entries,)

    def result(self) -> dict[int, dict[int, int]]:
        """The final diagram's linking matrix rows, {id: {id': entry}},
        after one full check of that diagram and of the tracked rows."""
        linkdiag.require_valid(self.ed.d)
        final = linkdiag._linking_rows(self.ed.d)
        if list(final.items()) != list(self.A.items()):  # the rows and their order
            raise AssertionError("the final diagram's linking matrix %r differs from "
                                 "the tracked matrix %r"
                                 % (_lattice(final).entries, _lattice(self.A).entries))
        return final


# ---------------------------------------------------------------------------
# unknotification (crossing changes realized by blow-up gadgets)


class UnknotifyResult(Record):
    __slots__ = ("diagram", "unknots")  # unknots: the gadget unknots, in switched crossing id order

    def __init__(self, diagram: FramedLinkDiagram, unknots: list[int]):
        self.diagram, self.unknots = diagram, unknots


def _gadget_side_for(c: Crossing) -> str:
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
    paid for by a +/-1-framed gadget unknot, added just before it."""
    switches = linkdiag.descending_switch_set(d, component_order,
                                              self_only=not unlink)
    ed = linkdiag.Editor(d.copy())
    unknots = []
    for xid in sorted(switches):
        c = ed.d.crossings[xid]
        side = _gadget_side_for(c)
        unknots.append(ed.add_component(linkdiag._side_arcs(c, side)[4]))
        ed.gadget(xid, side, unknots[-1])
    return UnknotifyResult(diagram=ed.d, unknots=unknots)


# ---------------------------------------------------------------------------
# embedding certificates


class EmbeddingCertificate(Record):
    __slots__ = ("target", "initial", "moves", "sublink", "m", "n", "p")

    def __init__(self, target: FramedLinkDiagram, initial: FramedLinkDiagram,
                 moves: list[KirbyMove], sublink: dict[int, int], m: int, n: int, p: int):
        self.target, self.initial, self.moves, self.sublink = target, initial, moves, sublink
        self.m, self.n, self.p = m, n, p


MAX_FRAMING_FIXES = 2000  # framing-fix unknots per certificate: a budget against hostile framings


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
    if auto_unknotify:
        d = unknotify(d).diagram
    else:
        switches = linkdiag.descending_switch_set(d, self_only=True)
        if switches:
            raise DiagramError(
                "components are not presented as descending unknots "
                "(crossings %r need switching); unknotify them first "
                "(--auto-unknotify, or auto_unknotify=True)"
                % (sorted(switches),))

    rows = linkdiag._linking_rows(d)  # d is valid: checked, or unknotify's
    sublink = {cid: t for t, cid in enumerate(rows)}
    k = len(sublink)

    # The initial unlink, in id order: one unknot per target component,
    # one gadget unknot per unit of linking, then the framing-fix
    # unknots.  A poke plus a 'before'-side gadget switch between a and b
    # adds sign(lam) to lk(a, b) and to both framings, so the framing
    # left to fix on t is 2 A[t][t] - sign(A[t][t]) - (the sum of row t).
    diagonal = [row.get(cid, 0) for cid, row in rows.items()]
    framings = [_sign_or_plus(x) for x in diagonal]
    pairs = sorted((sublink[a], sublink[b], lam) for a, row in rows.items()
                   for b, lam in row.items() if sublink[a] < sublink[b])
    framings += [_sign_or_plus(lam) for _, _, lam in pairs for _ in range(abs(lam))]
    deficits = [2 * x - f - sum(row.values())
                for x, f, row in zip(diagonal, framings, rows.values())]
    if sum(map(abs, deficits)) > MAX_FRAMING_FIXES:
        raise DiagramError("the framings need %d framing-fix unknots, over the limit of %d"
                           % (sum(map(abs, deficits)), MAX_FRAMING_FIXES))
    framings += [_sign_or_plus(dt) for dt in deficits for _ in range(abs(dt))]
    if pad_positive and not (1 in framings and -1 in framings):
        framings += [1, -1]
    from .catalog import unlink  # here, so no other command loads catalog
    initial = unlink(framings)

    rp = Replayer(initial.copy())
    moves: list[KirbyMove] = []

    def emit(mv: KirbyMove) -> None:
        rp.apply(len(moves), mv)
        moves.append(mv)

    u = k                                      # next unused unknot of initial
    for a, b, lam in pairs:
        sigma = -_sign_or_plus(lam)            # poke crossing sign
        for _ in range(abs(lam)):
            c_main = rp.ed.xids.peek()         # the id the poke gives its first crossing
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


class CheckResult(Record):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name, self.ok, self.detail = name, ok, detail


class VerificationReport(Record):
    __slots__ = ("checks",)

    def __init__(self, checks: list[CheckResult]):
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]


def verify_certificate(cert: EmbeddingCertificate) -> VerificationReport:
    """Audit every claim the certificate makes: first the static ones
    (the initial unlink, m, n and p, a valid target without an odd
    pair), then the replay, then the sublink.  Failures are report
    entries, never exceptions.  Each diagram is validated once."""
    checks: list[CheckResult] = []

    def check(name: str, detail: str = "") -> bool:
        """Record one check, which passes iff `detail` is empty."""
        checks.append(CheckResult(name, not detail, detail))
        return not detail

    bad = linkdiag.validate_diagram(cert.initial)
    if not bad and (cert.initial.crossings or any(
            c.framing not in (1, -1) for c in cert.initial.components.values())):
        bad = ["initial diagram is not a +/-1-framed zero-crossing unlink"]
    unlink = check("initial is a +/-1-framed unlink", "; ".join(bad))

    m = sum(1 for c in cert.initial.components.values() if c.framing == 1)
    n = sum(1 for c in cert.initial.components.values() if c.framing == -1)
    check("declared m, n match initial framings",
          "" if (m, n) == (cert.m, cert.n) else
          "initial has m=%d, n=%d; certificate declares m=%d, n=%d" % (m, n, cert.m, cert.n))

    gadget_count = sum(1 for mv in cert.moves if isinstance(mv, GadgetSwitch))
    check("declared p matches gadget switches",
          "" if gadget_count == cert.p else
          "script has %d gadget switches, certificate declares p=%d" % (gadget_count, cert.p))

    if not unlink:
        return VerificationReport(checks)

    # a malformed target fails before the replay, which cannot mend it
    tgt_bad = linkdiag.validate_diagram(cert.target)
    if not tgt_bad:
        try:
            Lt = linkdiag._linking_rows(cert.target)
        except DiagramError as e:
            tgt_bad = [str(e)]
    if tgt_bad:
        check("target diagram valid", "; ".join(tgt_bad))
        return VerificationReport(checks)
    rp = Replayer(cert.initial.copy())  # the initial was validated above
    try:
        for t, move in enumerate(cert.moves):
            rp.apply(t, move)
    except MoveError as e:
        check("script replays", str(e))
        return VerificationReport(checks)
    check("script replays")

    Lf = rp.result()
    mapped = [cert.sublink.get(cid) for cid in cert.target.components]
    ok_map = (cert.sublink.keys() == cert.target.components.keys()
              and len(set(mapped)) == len(mapped)
              and all(x in Lf for x in mapped))
    if not check("sublink designates distinct final components",
                 "" if ok_map else "sublink map %r does not inject target components "
                 "into the final diagram" % (cert.sublink,)):
        return VerificationReport(checks)

    # the target's rows carried to final ids, against the final rows on the sublink
    want = {cert.sublink[a]: {cert.sublink[b]: v for b, v in row.items()}
            for a, row in Lt.items()}
    got = {a: {b: v for b, v in Lf[a].items() if b in want} for a in want}
    check("sublink linking matrix equals target",
          "" if got == want else "sublink matrix %r, target matrix %r"
          % ([[Lf[a].get(b, 0) for b in mapped] for a in mapped], _lattice(Lt).entries))
    return VerificationReport(checks)


# ---------------------------------------------------------------------------
# the lattice obstruction


class ObstructionReport(Record):
    __slots__ = ("positive_definite", "unimodular", "diagonalizable", "verdict",
                 "diagonal_part", "residual_rank")

    def __init__(self, positive_definite: bool, unimodular: bool, diagonalizable: bool | None,
                 verdict: str, diagonal_part: int | None = None, residual_rank: int | None = None):
        self.positive_definite, self.unimodular = positive_definite, unimodular
        self.diagonalizable = diagonalizable
        self.verdict = verdict  # OBSTRUCTED / NOT_OBSTRUCTED / NOT_APPLICABLE
        self.diagonal_part, self.residual_rank = diagonal_part, residual_rank


def donaldson_obstruction(L: IntegralLattice,
                          inert: intlattice.Inertia | None = None) -> ObstructionReport:
    """Does the presented homology sphere fail to embed separatingly in
    any negative blow-up of the product over the sphere?

    OBSTRUCTED iff the form is positive definite, unimodular, and not
    diagonalizable over the integers.  `inert`, if given, is L's inertia.
    """
    if inert is None:
        inert = intlattice.inertia(L)
    posdef, unimod = inert.positive == L.n, abs(inert.det) == 1
    if not (posdef and unimod):
        return ObstructionReport(positive_definite=posdef, unimodular=unimod,
                                 diagonalizable=None, verdict="NOT_APPLICABLE")
    ok, count = intlattice.diagonalizable_over_Z(L, inert)
    return ObstructionReport(
        positive_definite=True, unimodular=True, diagonalizable=ok,
        verdict="NOT_OBSTRUCTED" if ok else "OBSTRUCTED",
        diagonal_part=count, residual_rank=L.n - count)
