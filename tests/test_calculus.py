import hashlib
import random
import re
import time

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from conftest import (PASSAGE_SIGNS, blow_down_gadget, blow_down_unknotify, gadget_sides,
                      moved, random_diagram, random_kirby_move, random_trefoil_diagram,
                      with_split_unknots)
from surgerykit import calculus, catalog, intlattice, jsonio, linkdiag
from surgerykit.calculus import (CheckResult, GadgetSwitch, MoveError, ObstructionReport, Poke,
                                 Replayer, SlideOverUnknot,
                                 build_embedding_certificate,
                                 donaldson_obstruction, reduce_free_word,
                                 replay, unknotify, verify_certificate,
                                 word_from_intersections)
from surgerykit.intlattice import (AbelianGroupPresentation, IntegralLattice, Record,
                                   _lattice, direct_sum, e8_matrix, inertia, snf_diagonal)
from surgerykit.linkdiag import (Arc, Component, Crossing, DiagramError,
                                 Editor, FramedLinkDiagram, linking_matrix)


# -- free words --------------------------------------------------------------

def test_reduce_empty_word():
    r = reduce_free_word([])
    assert r.trivial and r.reduced == [] and r.cyclically_reduced == []


def test_reduce_cancels_adjacent_inverses():
    r = reduce_free_word([(0, 1), (0, -1)])
    assert r.trivial
    r = reduce_free_word([(0, 1), (1, 1), (1, -1), (0, -1)])
    assert r.trivial


def test_reduce_keeps_nontrivial():
    r = reduce_free_word([(0, 1), (1, 1), (0, -1)])
    assert not r.trivial
    assert r.reduced == [(0, 1), (1, 1), (0, -1)]
    assert r.cyclically_reduced == [(1, 1)]


def test_reduce_rejects_bad_exponent():
    with pytest.raises(ValueError):
        reduce_free_word([(0, 2)])
    for exp in (True, 1.0, -1.0):  # an int only, so no bool or float
        with pytest.raises(ValueError, match="^exponent must be"):
            reduce_free_word([(0, 1), (0, exp)])


def test_word_from_intersections():
    w = word_from_intersections([(3, 1), (3, -1), (5, 1)])
    assert w == [(3, 1), (3, -1), (5, 1)]
    assert reduce_free_word(w).reduced == [(5, 1)]
    with pytest.raises(ValueError):
        word_from_intersections([(0, 0)])
    # (1.7, 1) used to be read as (1, 1), and True as the sign +1
    for seq, message in (([(1.7, 1)], "disc must be an integer, got 1.7"),
                         ([(True, 1)], "disc must be an integer, got True"),
                         ([(0, True)], "sign must be +1 or -1, got True"),
                         ([(0, -1.0)], "sign must be +1 or -1, got -1.0")):
        with pytest.raises(ValueError, match="^intersection %s$" % re.escape(message)):
            word_from_intersections(seq)


def test_meridian_pair_pattern_is_trivial():
    # a loop meeting one disc twice with opposite signs bounds: its word
    # a_i a_i^-1 reduces to 1
    for i in range(4):
        w = word_from_intersections([(i, 1), (i, -1)])
        assert reduce_free_word(w).trivial


def _reduce_random_order(rng, letters):
    """Oracle: cancel an arbitrary adjacent inverse pair until stuck.
    Free reduction is confluent, so any cancellation order agrees."""
    w = list(letters)
    while True:
        pairs = [k for k in range(len(w) - 1)
                 if w[k][0] == w[k + 1][0] and w[k][1] == -w[k + 1][1]]
        if not pairs:
            return w
        k = rng.choice(pairs)
        del w[k:k + 2]


def _cyclic_reduce_by_copies(red):
    """Oracle: strip one cancelling pair of ends at a time, by copies."""
    cyc = list(red)
    while len(cyc) >= 2 and cyc[0][0] == cyc[-1][0] and cyc[0][1] == -cyc[-1][1]:
        cyc = cyc[1:-1]
    return cyc


def test_cyclic_reduction_matches_oracle_and_is_linear():
    rng = random.Random(212)
    for _ in range(20000):
        u, v = ([(rng.randint(0, 2), rng.choice((1, -1))) for _ in range(rng.randint(0, n))]
                for n in (30, 6))
        letters = u + v + [(g, -e) for g, e in reversed(u)]  # u v u^-1, often deep
        r = reduce_free_word(letters)
        assert r.cyclically_reduced == _cyclic_reduce_by_copies(r.reduced)
    k = 40000  # a^k b a^-k: the oracle copies about k^2 letters here
    start = time.perf_counter()
    r = reduce_free_word([(0, 1)] * k + [(1, 1)] + [(0, -1)] * k)
    assert time.perf_counter() - start < 1
    assert len(r.reduced) == 2 * k + 1 and r.cyclically_reduced == [(1, 1)]


def test_reduction_confluence_randomized():
    rng = random.Random(211)
    for _ in range(100):
        letters = [(rng.randint(0, 2), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 20))]
        r = reduce_free_word(letters)
        assert r.reduced == _reduce_random_order(rng, letters)
        assert r.trivial == (not r.reduced)


# -- replay ------------------------------------------------------------------

def test_replay_empty_script():
    d = catalog.hopf_link((2, 3))
    res = replay(d, [])
    assert res.final == d and res.final is not d
    assert _lattice(res.rows) == linking_matrix(d)


def test_replay_poke_keeps_matrix():
    d = catalog.unlink([1, -1])
    res = replay(d, [Poke(over=0, under=1, sign=1)])
    assert _lattice(res.rows) == linking_matrix(d)
    assert len(res.final.crossings) == 2


def test_replay_gadget_switch_then_blow_down():
    # poke two unknots and gadget-switch the poke crossing; blowing the
    # gadget unknot back down returns the matrix to the start
    ed = Editor(catalog.unlink([1, 1]))
    g = ed.split_unknot(-1)
    d = ed.d
    ref = Editor(d.copy())
    c_main, _ = ref.poke(0, 1, 1)
    ref.gadget(c_main, linkdiag.SIDE_BEFORE, g)
    res = replay(d, [
        Poke(over=0, under=1, sign=1),
        GadgetSwitch(crossing=c_main, unknot=g, side=linkdiag.SIDE_BEFORE),
    ])
    assert res.final == ref.d
    assert linking_matrix(d).entries == [[1, 0, 0], [0, 1, 0], [0, 0, -1]]  # d is not rewritten
    # the switch drops lk(0,1) to -1 and compensates framings through g
    assert res.rows[0][1] == -1
    ed = Editor(res.final)
    blow_down_gadget(ed, c_main, linkdiag.SIDE_BEFORE, g)
    assert linking_matrix(ed.d).entries == [[1, 0], [0, 1]]


@pytest.mark.parametrize("unknot", [None, 2.0, "2"])
def test_replay_gadget_switch_needs_a_component_id(unknot):
    # the move names its unknot by id; any other value fails before the
    # move changes anything
    d = catalog.unlink([1, 1, -1])
    rp = Replayer(d.copy())
    rp.apply(0, Poke(over=0, under=1, sign=1))
    before, A = rp.ed.d.copy(), {k: dict(row) for k, row in rp.A.items()}
    with pytest.raises(MoveError, match=r"^move 1 \(GadgetSwitch\): gadget unknot must "
                                        r"be a component id, got %s$" % re.escape(repr(unknot))):
        rp.apply(1, GadgetSwitch(crossing=0, unknot=unknot, side=linkdiag.SIDE_BEFORE))
    assert rp.ed.d == before and rp.A == A
    with pytest.raises(MoveError, match="got None"):
        replay(d, [
            Poke(over=0, under=1, sign=1),
            GadgetSwitch(crossing=0, unknot=None, side=linkdiag.SIDE_BEFORE)])


def test_replay_gadget_switch_every_side_and_self_crossing():
    # the per-move check in replay asserts the GadgetSwitch matrix rule,
    # here on every side, on self-crossings and on mixed crossings
    rng = random.Random(41)
    replays = self_crossings = 0
    for _ in range(60):
        d = random_diagram(rng, 3, 10)
        for xid in sorted(d.crossings):
            owners = d._strand_owners(d.crossing(xid))
            for side in gadget_sides(d, xid):
                a, b = PASSAGE_SIGNS[side]
                eps = -d.crossing(xid).sign * a * b
                ed = Editor(d.copy())
                u = ed.split_unknot(eps)
                res = replay(ed.d, [
                    GadgetSwitch(crossing=xid, unknot=u, side=side)])
                assert res.final.components[u].framing == eps
                replays += 1
                self_crossings += owners[0] == owners[1]
    assert (replays, self_crossings) == (1126, 638)


@pytest.mark.parametrize("side", linkdiag.SIDES)
def test_gadget_framing_fault_is_caught_at_its_move(monkeypatch, side):
    # a gadget that, after its real rewrite, moves the over strand's
    # component's framing by one: the rule is read off the move, not from
    # the editor, so the replay names the move on every side
    gadget = Editor.gadget

    def faulty(self, xid, side, unknot):
        over = self.d._strand_owners(self.d.crossing(xid))[0]
        gadget(self, xid, side, unknot)
        self.set_framing(over, self.comp(over).framing + 1)

    d = catalog.hopf_link((0, 0))
    a, b = PASSAGE_SIGNS[side]
    Editor(d).split_unknot(-d.crossing(0).sign * a * b)
    moves = [Poke(over=0, under=1, sign=1), GadgetSwitch(crossing=0, unknot=2, side=side)]
    assert replay(d, moves).final.components[2].framing in (1, -1)
    monkeypatch.setattr(Editor, "gadget", faulty)
    with pytest.raises(AssertionError, match=r"after move 1 \(GadgetSwitch\)"):
        replay(d, moves)


def test_replay_slide_needs_split_unit_unknot():
    d = catalog.hopf_link((2, 1))
    with pytest.raises(MoveError, match="not split"):
        replay(d, [SlideOverUnknot(component=0, unknot=1, s=1)])
    d2 = catalog.unlink([2, 5])
    with pytest.raises(MoveError, match="framing"):
        replay(d2, [SlideOverUnknot(component=0, unknot=1, s=1)])


def test_replay_slide_over_unknot():
    d = catalog.unlink([0, 1])
    res = replay(d, [SlideOverUnknot(component=0, unknot=1, s=1)])
    assert _lattice(res.rows).entries == [[1, 1], [1, 1]]
    assert res.final.components[0].framing == 1


def test_replay_error_carries_step_index():
    moves = [Poke(over=0, under=1, sign=1), SlideOverUnknot(component=0, unknot=5, s=1)]
    with pytest.raises(MoveError, match="move 1 \\(SlideOverUnknot\\)"):
        replay(catalog.unlink([1, 1]), moves)


@pytest.mark.parametrize("move, message", [
    (SlideOverUnknot(component=0, unknot=1, s=2), "slide sign must be +1 or -1"),
    (SlideOverUnknot(component=1, unknot=1, s=1), "cannot slide a component over itself")])
def test_replay_guards_of_matrix_moves(move, message):
    # each guard names the move and fails before the diagram or the
    # matrix changes
    rp = Replayer(catalog.hopf_link((1, -1)))
    rp.apply(0, Poke(over=0, under=1, sign=1))
    before, A = rp.ed.d.copy(), {k: dict(row) for k, row in rp.A.items()}
    with pytest.raises(MoveError, match=r"^move 1 \(%s\): %s$"
                       % (type(move).__name__, re.escape(message))):
        rp.apply(1, move)
    assert rp.ed.d == before and rp.A == A and not rp.ed.log


@pytest.mark.parametrize("move, message", [
    (Poke(over=0.0, under=1, sign=1), "over must be an integer, got 0.0"),
    (SlideOverUnknot(component=0, unknot=1.0, s=1), "unknot must be an integer, got 1.0"),
    (GadgetSwitch(crossing="0", unknot=1, side="before"), "crossing must be an integer, got '0'")])
def test_replay_refuses_move_fields_that_are_not_ints(move, message):
    # a bool or float is not read as an index, id or sign: the move fails,
    # naming its field, before the diagram or the matrix changes
    rp = Replayer(catalog.unlink([1, -1]))
    before, A = rp.ed.d.copy(), {k: dict(row) for k, row in rp.A.items()}
    with pytest.raises(MoveError, match=r"^move 0 \(%s\): %s$"
                       % (type(move).__name__, re.escape(message))):
        rp.apply(0, move)
    assert rp.ed.d == before and rp.A == A and not rp.ed.log


@pytest.mark.parametrize("edit, final, tracked", [
    (lambda d: setattr(d.components[0], "framing", 5), [[5, 0], [0, -1]], [[1, 0], [0, -1]]),
    (lambda d: setattr(d, "components", dict(reversed(d.components.items()))),
     [[-1, 0], [0, 1]], [[1, 0], [0, -1]])])
def test_replay_result_catches_a_diagram_edited_behind_the_log(edit, final, tracked):
    # a framing or the component order changed past the editor leaves the
    # tracked rows stale; the final full check names both matrices
    rp = Replayer(catalog.unlink([1, -1]))
    rp.apply(0, Poke(over=0, under=1, sign=1))
    edit(rp.ed.d)
    with pytest.raises(AssertionError, match=re.escape(
            "the final diagram's linking matrix %r differs from the tracked matrix %r"
            % (final, tracked))):
        rp.result()


def test_replay_rows_hold_only_nonzero_entries():
    # a certificate padded with 3,000 split unknots: each unknot costs one
    # diagonal entry, each linked pair two, and nothing else is stored
    cert = build_embedding_certificate(catalog.hopf_link((3, -4)))
    ed = Editor(cert.initial)
    for _ in range(3000):
        ed.split_unknot(1)
    rp = Replayer(cert.initial.copy())
    for t, mv in enumerate(cert.moves):
        rp.apply(t, mv)
    comps = list(rp.ed.d.components)
    linked = sum(len(rp.ed.linking(c)) for c in comps)  # twice the linked pairs
    assert sum(map(len, rp.A.values())) <= len(comps) + linked
    assert len(comps) > 3000 and linked > 0
    assert rp.result().rows == rp.A


# -- the per-move check and the in-place engine ------------------------------

def _one_move_scripts():
    """(initial, moves) per move type, with that move last."""
    # two +1 unknots and a -1 unknot; poke, switch the poke crossing
    # through the -1 unknot
    d = catalog.unlink([1, 1, -1])
    c_main = Editor(d.copy()).poke(0, 1, 1)[0]
    return {
        "Poke": (catalog.unlink([1, 1]), [Poke(over=0, under=1, sign=-1)]),
        "SlideOverUnknot": (catalog.unlink([0, 1]), [SlideOverUnknot(component=0, unknot=1, s=1)]),
        "GadgetSwitch": (d, [Poke(over=0, under=1, sign=1),
                             GadgetSwitch(crossing=c_main, unknot=2, side=linkdiag.SIDE_BEFORE)]),
    }


# the matrix rule of each move type, and when it runs for that move
RULES = {
    "Poke": ("_add_rows", lambda entries: not entries),
    "SlideOverUnknot": ("_slide_rows", lambda *args: True),
    "GadgetSwitch": ("_add_rows", lambda entries: bool(entries)),
}


@pytest.mark.parametrize("kind", sorted(RULES))
def test_wrong_matrix_rule_is_caught_at_its_move(kind, monkeypatch):
    d, moves = _one_move_scripts()[kind]
    replay(d, moves)
    name, runs_for = RULES[kind]
    rule = getattr(intlattice, name)

    def off_by_one(A, *args):
        changed = rule(A, *args)
        if runs_for(*args):
            A[0][0] = A[0].get(0, 0) + 1
            changed[0, 0] = changed.get((0, 0), 0) + 1
        return changed

    monkeypatch.setattr(intlattice, name, off_by_one)
    with pytest.raises(AssertionError, match=r"after move %d \(%s\)" % (len(moves) - 1, kind)):
        replay(d, moves)


@pytest.mark.parametrize("kind", ["Poke", "SlideOverUnknot", "GadgetSwitch"])
def test_crossing_missing_from_the_log_is_caught_at_its_move(kind, monkeypatch):
    d, moves = _one_move_scripts()[kind]
    rp = Replayer(d.copy())
    for t, move in enumerate(moves[:-1]):
        rp.apply(t, move)
    put, unlogged = linkdiag.Editor.put, []

    def put_first_unlogged(self, xid, c):
        n = len(self.log)
        put(self, xid, c)
        if not unlogged:
            unlogged.append(xid)
            del self.log[n:]

    monkeypatch.setattr(linkdiag.Editor, "put", put_first_unlogged)
    t = len(moves) - 1
    with pytest.raises(AssertionError, match=r"after move %d \(%s\)" % (t, kind)):
        rp.apply(t, moves[-1])
    assert unlogged


def _reference_step(d, move):
    """One move on a copy of `d`, with the matrix recomputed in full."""
    ed = Editor(d.copy())
    d = ed.d
    if isinstance(move, Poke):
        ed.poke(move.over, move.under, move.sign)
    elif isinstance(move, SlideOverUnknot):
        f = d.components[move.unknot].framing
        ed.clasp(move.component, move.unknot, move.s * f)
        d.components[move.component].framing += f
    else:
        ed.gadget(move.crossing, move.side, move.unknot)
    return d, linking_matrix(d)


def test_in_place_replay_matches_copying_reference():
    # after every move, the engine's diagram and rows equal those of a
    # reference that copies and computes the whole linking matrix
    rng = random.Random(307)
    kinds = {}
    for _ in range(120):
        d = with_split_unknots(rng, random_diagram(rng, 3, 6), rng.randint(2, 6))
        rp, ref = Replayer(d.copy()), d
        assert _lattice(rp.A) == linking_matrix(d)
        for t in range(6):
            move = None
            while move is None:
                move = random_kirby_move(rng, ref)
            ref, L = _reference_step(ref, move)
            rp.apply(t, move)
            assert rp.ed.d == ref and _lattice(rp.A) == L
            kinds[type(move).__name__] = kinds.get(type(move).__name__, 0) + 1
        assert rp.result().final == ref
    assert len(kinds) == 3 and min(kinds.values()) >= 50, kinds


def test_alternating_slides_copy_the_diagram_once(monkeypatch):
    copies = []
    copy = FramedLinkDiagram.copy
    monkeypatch.setattr(FramedLinkDiagram, "copy",
                        lambda self: copies.append(len(self.crossings)) or copy(self))
    # component 0 slides over +1 and -1 unknots in turn
    moves = [SlideOverUnknot(component=0, unknot=t, s=1) for t in range(1, 11)]
    framings = [0] + [1, -1] * 5
    res = replay(catalog.unlink(framings), moves)
    L = IntegralLattice.diagonal(framings)
    for mv in moves:
        L = moved(L, intlattice._slide_rows, mv.component, mv.unknot, mv.s)
    assert _lattice(res.rows) == L
    assert copies == [0]


# -- unknotify ---------------------------------------------------------------

def test_unknotify_trefoil():
    d = catalog.trefoil(-1)
    res = unknotify(d)
    assert len(res.unknots) == 1
    assert linkdiag.descending_switch_set(res.diagram, self_only=True) == set()
    assert linking_matrix(blow_down_unknotify(d, res)) == linking_matrix(d)


def test_unknotify_descending_input_is_noop():
    d = catalog.hopf_link((2, 3))
    res = unknotify(d)
    assert res.unknots == []
    assert res.diagram == d


def test_unknotify_unlink_mode_also_switches_mixed_crossings():
    d = catalog.hopf_link((0, 0))
    res = unknotify(d, unlink=True)
    assert res.unknots == [2]
    assert linkdiag.linking_matrix(res.diagram).entries[0][1] == 0


def test_unknotify_random_round_trip():
    rng = random.Random(227)
    done = 0
    while done < 20:
        d = random_diagram(rng)
        res = unknotify(d)
        assert linkdiag.descending_switch_set(res.diagram, self_only=True) == set()
        for u in res.unknots:
            assert res.diagram.components[u].framing in (1, -1)
        assert linking_matrix(blow_down_unknotify(d, res)) == linking_matrix(d)
        done += 1


def test_unknotify_linking_matrices_against_sympy():
    # sparse gadget forms at 20-60 components, the sizes the benchmark's
    # unknotify outputs reach: the Smith diagonal and the determinant
    # against sympy's
    rng = random.Random(2039)
    sizes, dets = [], set()
    while len(sizes) < 6:
        L = linking_matrix(unknotify(random_diagram(rng, 4, 120), unlink=True).diagram)
        if not 20 <= L.n <= 60:
            continue
        M = sympy.Matrix(L.entries)
        want = [abs(int(x)) for x in sympy_snf(M).diagonal()]
        assert snf_diagonal(L) == want + [0] * (L.n - len(want))
        det = inertia(L).det
        assert det == int(M.det())
        sizes.append(L.n)
        dets.add(abs(det))
    assert min(sizes) < 30 and max(sizes) > 55 and {0, 1} < dets, (sizes, dets)


# -- embedding certificates --------------------------------------------------

def test_certificate_single_unknot_framing_one():
    cert = build_embedding_certificate(catalog.unknot(1))
    assert (cert.m, cert.n, cert.p) == (1, 0, 0)
    assert cert.moves == []
    assert verify_certificate(cert).passed


def test_certificate_single_unknot_framing_three():
    cert = build_embedding_certificate(catalog.unknot(3))
    assert (cert.m, cert.n, cert.p) == (3, 0, 0)
    assert sum(1 for mv in cert.moves if isinstance(mv, SlideOverUnknot)) == 2
    assert verify_certificate(cert).passed


def test_certificate_zero_framed_unknot():
    cert = build_embedding_certificate(catalog.unknot(0))
    assert (cert.m, cert.n) == (1, 1)
    assert verify_certificate(cert).passed


def test_certificate_negative_unlink():
    cert = build_embedding_certificate(catalog.unlink([-1, -1]))
    assert (cert.m, cert.n, cert.p) == (0, 2, 0)
    assert cert.moves == []
    assert verify_certificate(cert).passed


def test_certificate_hopf_link():
    cert = build_embedding_certificate(catalog.hopf_link((4, 4)))
    assert cert.p == 1
    rep = verify_certificate(cert)
    assert rep.passed, [c for c in rep.checks if not c.ok]


def test_certificate_chain():
    cert = build_embedding_certificate(catalog.chain_link([2, -3, 5]))
    assert cert.p == 2
    assert verify_certificate(cert).passed


def test_certificate_pad_positive():
    cert = build_embedding_certificate(catalog.unlink([-1, -1]),
                                       pad_positive=True)
    assert cert.m > 0 and cert.n > 0
    assert verify_certificate(cert).passed


def test_certificate_requires_descending_or_auto():
    d = catalog.trefoil(1)
    with pytest.raises(DiagramError, match="auto_unknotify"):
        build_embedding_certificate(d)
    cert = build_embedding_certificate(d, auto_unknotify=True)
    assert verify_certificate(cert).passed


@pytest.mark.parametrize("auto", [False, True])
def test_certificate_refuses_a_float_framing(auto):
    # it used to raise TypeError while counting framing-fix unknots
    with pytest.raises(DiagramError, match="component 0 has framing 2.0, expected an integer"):
        build_embedding_certificate(catalog.unknot(2.0), auto_unknotify=auto)


def test_certificate_framing_fixes_are_capped_before_building():
    # the deficit sums over components: |2001 - 1| + |-2001 + 1| = 4000
    for d, fixes in ((catalog.unknot(10 ** 23), 10 ** 23 - 1), (catalog.unknot(-2002), 2001),
                     (catalog.unlink([2001, -2001]), 4000)):
        with pytest.raises(DiagramError) as err:
            build_embedding_certificate(d)
        assert str(err.value) == ("the framings need %d framing-fix unknots, over the limit "
                                  "of %d" % (fixes, calculus.MAX_FRAMING_FIXES))


def test_certificate_at_the_framing_fix_limit():
    assert calculus.MAX_FRAMING_FIXES == 2000
    cert = build_embedding_certificate(catalog.unlink([1001, -1001]))
    assert [type(mv) for mv in cert.moves] == [SlideOverUnknot] * 2000
    assert (cert.m, cert.n, cert.p) == (1001, 1001, 0)


def test_certificate_builder_validates_its_target_once(monkeypatch):
    hopf, trefoil = catalog.hopf_link(), catalog.trefoil(2)
    seen = []
    validate = linkdiag.validate_diagram
    monkeypatch.setattr(linkdiag, "validate_diagram",
                        lambda d: seen.append(len(d.components)) or validate(d))
    build_embedding_certificate(hopf)
    assert seen == [2]               # the target; the initial unlink is valid as built
    seen.clear()
    build_embedding_certificate(trefoil, auto_unknotify=True)
    assert seen == [1]               # the target, in unknotify


def test_verify_validates_each_diagram_once(monkeypatch):
    cert = build_embedding_certificate(catalog.hopf_link((2, 3)))
    seen = []
    validate = linkdiag.validate_diagram
    monkeypatch.setattr(linkdiag, "validate_diagram",
                        lambda d: seen.append(len(d.components)) or validate(d))
    assert verify_certificate(cert).passed
    assert seen == [4, 2, 4]         # the initial unlink, the target, the final diagram
    seen.clear()
    replay(cert.initial, cert.moves)
    assert seen == [4, 4]            # the initial and the final diagram
    bad = cert.initial.copy()
    bad.arcs[0].owner = 9
    with pytest.raises(DiagramError, match="arc 0 owned by unknown component 9"):
        replay(bad, cert.moves)


def test_tampered_certificate_fails():
    cert = build_embedding_certificate(catalog.hopf_link((4, 4)))
    cert.target.components[0].framing += 1
    rep = verify_certificate(cert)
    assert not rep.passed
    assert any("linking matrix" in c.name for c in rep.failures())


def test_builder_and_a_passing_verify_make_no_dense_matrix(monkeypatch):
    def dense(A):
        raise AssertionError("a dense matrix of %d rows" % len(A))

    monkeypatch.setattr(calculus, "_lattice", dense)
    for d in (catalog.chain_link([2, -3, 5]), catalog.hopf_link((3, -4)),
              catalog.unlink([1, -1] * 50), catalog.trefoil(2)):
        cert = build_embedding_certificate(d, auto_unknotify=True)
        assert verify_certificate(cert).passed


def test_sublink_matrix_check_agrees_with_the_dense_matrices():
    # the check compares rows keyed by id; the oracle compares the dense
    # linking matrices of the target and of the final diagram's sublink
    rng = random.Random(53)
    verdicts = set()
    for _ in range(150):
        cert = build_embedding_certificate(random_diagram(rng, 4, 6), auto_unknotify=True)
        ids = list(cert.target.components)
        images = [cert.sublink[c] for c in ids]
        rng.shuffle(images)
        cert.sublink = dict(zip(ids, images))
        if rng.random() < 0.3:
            rng.choice(list(cert.target.components.values())).framing += rng.choice((1, -1))
        final = replay(cert.initial, cert.moves).final
        at = {c: t for t, c in enumerate(final.components)}
        F = linking_matrix(final).entries
        want = [[F[at[a]][at[b]] for b in images] for a in images]
        ok = want == linking_matrix(cert.target).entries
        assert verify_certificate(cert).passed == ok
        verdicts.add(ok)
    assert verdicts == {True, False}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1b: the verifier compares linking "
                                       "matrices only, not the target's knotting")
def test_verify_fails_an_unknot_certificate_whose_target_is_a_trefoil():
    cert = build_embedding_certificate(catalog.unknot(0))
    cert.target = catalog.trefoil(0)
    assert not verify_certificate(cert).passed


def test_target_naming_missing_arc_fails_report(monkeypatch):
    cert = build_embedding_certificate(catalog.hopf_link((1, -1)))
    obj = jsonio.certificate_to_obj(cert)
    obj["target"]["crossings"][0]["over_in"] = 99
    monkeypatch.setattr(calculus, "Replayer", None)  # the target fails before the replay
    rep = verify_certificate(jsonio.certificate_from_obj(obj))
    assert [c.name for c in rep.failures()] == ["target diagram valid"]
    assert "crossing 0 references unknown arcs [99]" in rep.failures()[0].detail
    assert rep.checks[-1].name == "target diagram valid"
    assert "script replays" not in [c.name for c in rep.checks]


def test_target_with_odd_pair_fails_report(monkeypatch):
    # three components of two arcs each; every pair shares one crossing
    target = FramedLinkDiagram(
        components={k: Component(0, basepoint=2 * k) for k in range(3)},
        arcs={0: Arc(0, 1), 1: Arc(0, 0), 2: Arc(1, 3), 3: Arc(1, 2),
              4: Arc(2, 5), 5: Arc(2, 4)},
        crossings={0: Crossing(0, 1, 2, 3, 1), 1: Crossing(3, 2, 4, 5, 1),
                   2: Crossing(5, 4, 1, 0, 1)})
    cert = build_embedding_certificate(catalog.hopf_link())
    cert.target = target
    cert.sublink = {0: 0, 1: 1, 2: 2}
    monkeypatch.setattr(calculus, "Replayer", None)
    rep = verify_certificate(cert)
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("target diagram valid", "components 0 and 1 share an odd number of crossings")]
    assert rep.checks[-1].name == "target diagram valid"
    assert "script replays" not in [c.name for c in rep.checks]


def test_pass_report_names_every_check():
    rep = verify_certificate(build_embedding_certificate(catalog.hopf_link()))
    assert [(c.name, c.ok, c.detail) for c in rep.checks] == [
        ("initial is a +/-1-framed unlink", True, ""),
        ("declared m, n match initial framings", True, ""),
        ("declared p matches gadget switches", True, ""),
        ("script replays", True, ""),
        ("sublink designates distinct final components", True, ""),
        ("sublink linking matrix equals target", True, "")]


def test_certificate_padded_with_a_thousand_split_unknots_verifies():
    # 1,001 split unknots: the linking matrix costs the crossing pairs
    # (none here), not a parity sweep over all half a million pairs
    cert = build_embedding_certificate(catalog.unknot(1))
    assert cert.initial == catalog.unlink([1])
    cert.initial = catalog.unlink([1] * 1001)
    cert.m = 1001
    rep = verify_certificate(cert)
    assert rep.passed, rep.failures()


# sha256 of the certificate JSON: certificates must stay byte-identical
# across changes to how they are built and checked.
CERTIFICATE_DIGESTS = [
    (catalog.hopf_link, (), {},
     "71784cc1046e5e3be85fb49ffc286d4cc43b1af53448e7a30002d51c06307ec4"),
    (catalog.chain_link, ([2, -1, 0, 3],), {},
     "7af70d1703f749b93762dbf612ec5c2353c668110749f85e8d7a6f831d1c4101"),
    (catalog.e8_link, (), {},
     "43282ee7c3450f469c768cb4588cfc275cb7487009a71c5e449978e06a13286a"),
    # negative linking; framing deficits of both signs
    (catalog.hopf_link, ((3, -4), -1), {},
     "831eee048a8c2960ed1b6ecdfba494675fedaf01b0deac53bbc4b666743dddff"),
    (catalog.hopf_link, ((1, -1),), {"pad_positive": True},
     "71941f895278a64dedc0180012b7c20be66ed0eaeb6f2078653aed88f6da1bfc"),
    (catalog.trefoil, (2,), {"auto_unknotify": True},
     "a73ea5b83a147b34b4e0d449631332636b129e88476ca11e2ec5c9e3aa05db38"),
    (catalog.unlink, ([-1, -1],), {},
     "bc4fa6a287a7fa90e195d7301c70382ca71f4cb3bb1544dd51341bc7cee34b42"),
]


@pytest.mark.parametrize(
    "make, args, kwargs, digest", CERTIFICATE_DIGESTS,
    ids=["%s-args%d-%s" % (make.__name__, i, digest)
         for i, (make, _, _, digest) in enumerate(CERTIFICATE_DIGESTS)])
def test_certificate_json_is_byte_identical(make, args, kwargs, digest):
    cert = build_embedding_certificate(make(*args), **kwargs)
    text = jsonio.dumps(jsonio.certificate_to_obj(cert))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_unknotify_outputs_are_byte_identical():
    # every unknotified link and its gadget unknots, in both modes, on 600
    # seeded diagrams of up to 40 crossings: 9,426 gadgets in all
    h, gadgets = hashlib.sha256(), 0
    for seed in range(600):
        d = random_diagram(random.Random(seed), 4, 40)
        for unlink in (False, True):
            res = unknotify(d, unlink=unlink)
            gadgets += len(res.unknots)
            h.update(jsonio.dumps({"link": jsonio.diagram_to_obj(res.diagram),
                                   "unknots": res.unknots}).encode())
    assert gadgets == 9426
    assert h.hexdigest() == "57b231aa9d99b1af3a94cc0b46d191f3bfd797d990e6c551f6ab20e8b7facc7c"


def test_auto_unknotify_certificates_are_byte_identical():
    # 300 seeded certificates built through unknotify, 5,700 moves in all
    h, moves = hashlib.sha256(), 0
    for seed in range(300):
        cert = build_embedding_certificate(random_diagram(random.Random(seed), 4, 12),
                                           auto_unknotify=True)
        assert verify_certificate(cert).passed, seed
        moves += len(cert.moves)
        h.update(jsonio.dumps(jsonio.certificate_to_obj(cert)).encode())
    assert moves == 5700
    assert h.hexdigest() == "9a3fc574279521a6c07a8fc543d7706b3d777094529698b8d397cf37aa5b3723"


def test_auto_unknotify_certificates_of_grown_trefoils(monkeypatch):
    # 300 seeded trefoils grown by kinks, clasps and pokes: their switched
    # crossings are not all kinks, so unknotify's gadgets take the 'left'
    # side too, where random_diagram's take only 'before'
    sides = []
    side_for = calculus._gadget_side_for
    monkeypatch.setattr(calculus, "_gadget_side_for",
                        lambda c: sides.append(side_for(c)) or sides[-1])
    h, moves = hashlib.sha256(), 0
    for seed in range(300):
        cert = build_embedding_certificate(random_trefoil_diagram(random.Random(seed), 3, 12),
                                           auto_unknotify=True)
        assert verify_certificate(cert).passed, seed
        moves += len(cert.moves)
        h.update(jsonio.dumps(jsonio.certificate_to_obj(cert)).encode())
    assert (moves, sides.count("before"), sides.count("left")) == (4205, 410, 402)
    assert h.hexdigest() == "0fdcf9eef194fa93ea1905f78af0aaaa7bb79d61f7fa15628c72ca10a5f7daf9"


def test_wrong_initial_framing_fails():
    cert = build_embedding_certificate(catalog.unknot(1))
    cert.initial.components[0].framing = 0
    rep = verify_certificate(cert)
    assert not rep.passed
    assert any("unlink" in c.name for c in rep.failures())


def test_wrong_declared_counts_fail():
    cert = build_embedding_certificate(catalog.unknot(1))
    cert.m += 1
    assert not verify_certificate(cert).passed
    cert = build_embedding_certificate(catalog.unknot(1))
    cert.p += 1
    assert not verify_certificate(cert).passed


# a mutant of the Hopf (1, -1) certificate (moves: Poke, GadgetSwitch and
# two SlideOverUnknot) -> its one failed check and that check's detail
VERIFY_FAILURES = {
    "unknown crossing": (lambda c: setattr(c.moves[1], "crossing", 99), "script replays",
                         "move 1 (GadgetSwitch): unknown crossing id 99"),
    "poke sign": (lambda c: setattr(c.moves[0], "sign", 3), "script replays",
                  "move 0 (Poke): poke sign must be +1 or -1"),
    "poke sign True": (lambda c: setattr(c.moves[0], "sign", True), "script replays",
                       "move 0 (Poke): poke sign must be +1 or -1"),
    "poke sign 1.0": (lambda c: setattr(c.moves[0], "sign", 1.0), "script replays",
                      "move 0 (Poke): poke sign must be +1 or -1"),
    "gadget unknot None": (lambda c: setattr(c.moves[1], "unknot", None), "script replays",
                           "move 1 (GadgetSwitch): gadget unknot must be a component id, "
                           "got None"),
    "sublink not injective": (
        lambda c: setattr(c, "sublink", {0: 0, 1: 0}),
        "sublink designates distinct final components",
        "sublink map {0: 0, 1: 0} does not inject target components into the final diagram"),
    "sublink key not a target id": (
        lambda c: c.sublink.update({7: 0}),
        "sublink designates distinct final components",
        "sublink map {0: 0, 1: 1, 7: 0} does not inject target components into the final "
        "diagram"),
}


@pytest.mark.parametrize("case", sorted(VERIFY_FAILURES))
def test_verify_failure_is_the_last_check(case):
    mutate, name, detail = VERIFY_FAILURES[case]
    cert = build_embedding_certificate(catalog.hopf_link((1, -1)))
    mutate(cert)
    rep = verify_certificate(cert)
    assert not rep.passed
    assert [(c.name, c.detail) for c in rep.failures()] == [(name, detail)]
    assert rep.checks[-1].name == name


@pytest.mark.parametrize("make", [catalog.hopf_link, lambda: catalog.unknot(3),
                                  catalog.e8_link], ids=["hopf", "unknot3", "e8"])
def test_split_unknot_move_is_not_a_certificate_move(make):
    # a split-unknot move would attach a 2-handle: framed 0 or 5 the
    # witnessed 4-manifold is not W, framed +/-1 it has one more summand
    # than m, n say.  No script can name one, so the certificate is refused
    for f in (0, 1, -1, 5):
        for first in (True, False):
            obj = jsonio.certificate_to_obj(build_embedding_certificate(make()))
            obj["moves"].insert(0 if first else len(obj["moves"]),
                                {"type": "add_split_unknot", "framing": f})
            with pytest.raises(jsonio.FormatError,
                               match="^unknown move type 'add_split_unknot'$"):
                jsonio.certificate_from_obj(obj)


def test_hostile_slides_fail_without_a_replay():
    # alternating general slides would grow the entries like Fibonacci
    # numbers; no script can name one, so nothing is replayed
    obj = jsonio.certificate_to_obj(build_embedding_certificate(catalog.hopf_link()))
    obj["moves"] += [{"type": "matrix_slide", "i": t % 2, "j": 1 - t % 2, "s": 1}
                     for t in range(60)]
    with pytest.raises(jsonio.FormatError, match="^unknown move type 'matrix_slide'$"):
        jsonio.certificate_from_obj(obj)


# -- obstruction -------------------------------------------------------------

def test_obstruction_not_applicable():
    rep = donaldson_obstruction(IntegralLattice([[0, 1], [1, 0]]))
    assert rep.verdict == "NOT_APPLICABLE"
    assert rep.diagonalizable is None
    rep = donaldson_obstruction(IntegralLattice([[2]]))
    assert rep.verdict == "NOT_APPLICABLE"
    assert not rep.unimodular


def test_obstruction_identity_not_obstructed():
    rep = donaldson_obstruction(IntegralLattice.diagonal([1, 1, 1]))
    assert rep.verdict == "NOT_OBSTRUCTED"
    assert rep.diagonalizable
    assert rep.diagonal_part == 3 and rep.residual_rank == 0


def test_obstruction_e8_obstructed():
    rep = donaldson_obstruction(e8_matrix())
    assert rep.verdict == "OBSTRUCTED"
    assert rep.positive_definite and rep.unimodular
    assert rep.diagonalizable is False
    assert rep.residual_rank == 8


def test_obstruction_e8_plus_identity_still_obstructed():
    rep = donaldson_obstruction(direct_sum(e8_matrix(),
                                           IntegralLattice.diagonal([1])))
    assert rep.verdict == "OBSTRUCTED"
    assert rep.diagonal_part == 1 and rep.residual_rank == 8


# -- records -----------------------------------------------------------------


def _one_record_of_each_class():
    d = catalog.hopf_link((1, -1))
    cert = build_embedding_certificate(d)
    return [inertia(e8_matrix()), AbelianGroupPresentation(1, [2]),
            d.components[0], d.arcs[0], d.crossings[0], d, reduce_free_word([(0, 1)]),
            *cert.moves[:3], replay(cert.initial, cert.moves), unknotify(catalog.trefoil()),
            cert, CheckResult("x", True), verify_certificate(cert),
            donaldson_obstruction(e8_matrix())]


def test_records_are_slotted_unhashable_and_compare_field_by_field():
    records = _one_record_of_each_class()
    assert {type(r) for r in records} == set(Record.__subclasses__())
    assert len(records) == 16
    for r in records:
        assert r == r and not r != r
        with pytest.raises(TypeError):
            hash(r)
        with pytest.raises(AttributeError):  # a misspelt field is refused, not added
            r.misspelt = 3
    d = catalog.trefoil(2)
    assert d.copy() == d
    e = d.copy()
    e.crossings[1].sign = -1
    assert e != d and e.crossings[1] != d.crossings[1]
    assert Poke(0, 1, 1) == Poke(over=0, under=1, sign=1)
    assert Poke(0, 1, 1) != SlideOverUnknot(0, 1, 1)
    assert Poke(0, 1, 1) != (0, 1, 1)
    cert = build_embedding_certificate(catalog.unknot(1))
    with pytest.raises(AttributeError):
        cert.mm = 3
    assert cert.m == 1


def test_record_repr_names_each_field():
    assert repr(Poke(over=0, under=1, sign=1)) == "Poke(over=0, under=1, sign=1)"
    assert repr(catalog.unknot(1)) == (
        "FramedLinkDiagram(components={0: Component(framing=1, basepoint=0)}, "
        "arcs={0: Arc(owner=0, successor=0)}, crossings={})")
    check = CheckResult("x", True)
    with pytest.raises(MoveError, match=re.escape(
            "move 0 (CheckResult): unknown move CheckResult(name='x', ok=True, detail='')")):
        replay(catalog.unknot(1), [check])
    with pytest.raises(jsonio.FormatError, match=re.escape("unknown move " + repr(check))):
        jsonio.move_to_obj(check)


def test_record_constructors_take_the_fields_and_their_defaults():
    with pytest.raises(TypeError):
        Poke(over=0, under=1)
    with pytest.raises(TypeError):
        Poke(over=0, under=1, sign=1, side="left")
    with pytest.raises(TypeError):
        Component()
    assert CheckResult("x", True).detail == ""
    assert Component(1).basepoint is None
    rep = ObstructionReport(False, True, None, "NOT_APPLICABLE")
    assert rep.diagonal_part is None and rep.residual_rank is None
    a, b = FramedLinkDiagram(), FramedLinkDiagram()
    assert a == b
    assert a.components is not b.components and a.arcs is not b.arcs
    assert a.crossings is not b.crossings
