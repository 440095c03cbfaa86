"""Hand-built sample diagrams used in tests and documentation."""

from .linkdiag import Arc, Component, Crossing, Editor, FramedLinkDiagram, require_valid


def unknot(framing: int = 0) -> FramedLinkDiagram:
    return unlink([framing])


def unlink(framings) -> FramedLinkDiagram:
    """Component k is a zero-crossing loop on arc k with the k-th framing."""
    fs = list(framings)
    return FramedLinkDiagram(
        components={k: Component(f, basepoint=k) for k, f in enumerate(fs)},
        arcs={k: Arc(owner=k, successor=k) for k in range(len(fs))})


def _clasped(framings, pairs, sign: int = 1) -> FramedLinkDiagram:
    """The unlink on `framings` with one clasp of `sign` per pair (i, j),
    in order, all made in place by one Editor."""
    ed = Editor(unlink(framings))
    for i, j in pairs:
        ed.clasp(i, j, sign)
    return ed.d


def hopf_link(framings=(0, 0), sign: int = 1) -> FramedLinkDiagram:
    """Two unknots clasped once; lk = sign."""
    return _clasped(framings, [(0, 1)], sign)


def chain_link(framings) -> FramedLinkDiagram:
    """Open chain of unknots: consecutive components clasp with lk = +1."""
    fs = list(framings)
    return _clasped(fs, [(i, i + 1) for i in range(len(fs) - 1)])


def trefoil(framing: int = 0) -> FramedLinkDiagram:
    """Right-handed trefoil as the closure of a three-crossing braid.

    Traversal from the basepoint meets the crossings over, under, over,
    so the descending switch set is a single crossing (unknotting
    number one).
    """
    d = FramedLinkDiagram(
        components={0: Component(framing, basepoint=0)},
        arcs={a: Arc(owner=0, successor=(a + 1) % 6) for a in range(6)},
        crossings={
            0: Crossing(over_in=0, over_out=1, under_in=3, under_out=4, sign=1),
            1: Crossing(over_in=4, over_out=5, under_in=1, under_out=2, sign=1),
            2: Crossing(over_in=2, over_out=3, under_in=5, under_out=0, sign=1),
        })
    require_valid(d)
    return d


def e8_link() -> FramedLinkDiagram:
    """Plumbing link on the E8 tree, all framings 2: surgery gives the
    Poincare homology sphere.  Node order matches
    intlattice.e8_matrix."""
    d = _clasped([2] * 8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)])
    require_valid(d)
    return d
