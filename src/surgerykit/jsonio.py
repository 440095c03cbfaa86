"""JSON schemas for links, matrices, certificates and reports.

Integers outside the signed 64-bit range are encoded as decimal strings;
both forms are accepted on input.  Unknown keys are rejected everywhere
so that schema drift fails loudly.
"""

from __future__ import annotations

import json
from dataclasses import fields

from .calculus import (AddSplitUnknot, BlowDownIndex, EmbeddingCertificate,
                       GadgetSwitch, KirbyMove, MatrixSlide, Poke,
                       SlideOverUnknot)
from .intlattice import IntegralLattice
from .linkdiag import Arc, Component, Crossing, FramedLinkDiagram


class FormatError(ValueError):
    """Malformed or out-of-schema input."""


_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1


def encode_int(v: int):
    try:
        return v if _I64_MIN <= v <= _I64_MAX else str(v)
    except ValueError:  # past the interpreter's int/str digit limit
        raise FormatError("result integer has too many digits to write") from None


def decode_int(v, what: str = "integer") -> int:
    if isinstance(v, bool):
        raise FormatError("%s must be an integer, got a boolean" % what)
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        body = v[1:] if v[:1] == "-" else v
        if body.isascii() and body.isdigit():
            try:
                return int(v)
            except ValueError:  # past the interpreter's int/str digit limit
                raise FormatError("%s has %d digits, too many to read"
                                  % (what, len(body))) from None
    raise FormatError("%s must be an integer or decimal string, got %r" % (what, v))


def _check_keys(obj, allowed, required, what):
    if not isinstance(obj, dict):
        raise FormatError("%s must be an object, got %s" % (what, type(obj).__name__))
    unknown = set(obj) - set(allowed)
    if unknown:
        raise FormatError("%s has unknown keys %r" % (what, sorted(unknown)))
    missing = set(required) - set(obj)
    if missing:
        raise FormatError("%s is missing keys %r" % (what, sorted(missing)))


# ---------------------------------------------------------------------------
# links


def diagram_to_obj(d: FramedLinkDiagram) -> dict:
    comps = []
    for c in d.components:
        rec = {"id": c.id, "framing": encode_int(c.framing)}
        if c.basepoint is not None:
            rec["basepoint"] = c.basepoint
        comps.append(rec)
    arcs = [{"id": a, "component": v.owner, "next": v.successor}
            for a, v in sorted(d.arcs.items())]
    crossings = [{"id": x, "over_in": c.over_in, "over_out": c.over_out,
                  "under_in": c.under_in, "under_out": c.under_out, "sign": c.sign}
                 for x, c in sorted(d.crossings.items())]
    return {"components": comps, "arcs": arcs, "crossings": crossings}


def _link_list(obj: dict, key: str) -> list:
    recs = obj.get(key, [])
    if not isinstance(recs, list):
        raise FormatError("link %s must be a list" % key)
    return recs


def diagram_from_obj(obj) -> FramedLinkDiagram:
    _check_keys(obj, ("components", "arcs", "crossings"), ("components",), "link")
    d = FramedLinkDiagram()
    for rec in _link_list(obj, "components"):
        _check_keys(rec, ("id", "framing", "basepoint"), ("id", "framing"), "component")
        d.components.append(Component(
            id=decode_int(rec["id"], "component id"),
            framing=decode_int(rec["framing"], "framing"),
            basepoint=decode_int(rec["basepoint"], "basepoint")
            if "basepoint" in rec else None))
    for rec in _link_list(obj, "arcs"):
        _check_keys(rec, ("id", "component", "next"), ("id", "component", "next"), "arc")
        aid = decode_int(rec["id"], "arc id")
        if aid in d.arcs:
            raise FormatError("duplicate arc id %d" % aid)
        d.arcs[aid] = Arc(owner=decode_int(rec["component"], "arc component"),
                          successor=decode_int(rec["next"], "arc successor"))
    for rec in _link_list(obj, "crossings"):
        _check_keys(rec, ("id", "over_in", "over_out", "under_in", "under_out", "sign"),
                    ("id", "over_in", "over_out", "under_in", "under_out", "sign"),
                    "crossing")
        xid = decode_int(rec["id"], "crossing id")
        if xid in d.crossings:
            raise FormatError("duplicate crossing id %d" % xid)
        d.crossings[xid] = Crossing(
            over_in=decode_int(rec["over_in"], "over_in"),
            over_out=decode_int(rec["over_out"], "over_out"),
            under_in=decode_int(rec["under_in"], "under_in"),
            under_out=decode_int(rec["under_out"], "under_out"),
            sign=decode_int(rec["sign"], "sign"))
    return d


# ---------------------------------------------------------------------------
# matrices


def lattice_to_obj(L: IntegralLattice) -> dict:
    return {"n": L.n, "entries": [[encode_int(x) for x in row] for row in L.entries]}


def lattice_from_obj(obj) -> IntegralLattice:
    _check_keys(obj, ("n", "entries"), ("n", "entries"), "matrix")
    n = decode_int(obj["n"], "dimension")
    rows = obj["entries"]
    if not isinstance(rows, list) or len(rows) != n:
        raise FormatError("matrix entries must be a list of %d rows" % n)
    entries = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise FormatError("matrix rows must each have %d entries" % n)
        entries.append([decode_int(x, "matrix entry") for x in row])
    try:
        return IntegralLattice(entries)
    except ValueError as e:
        raise FormatError(str(e)) from None


# ---------------------------------------------------------------------------
# moves and certificates


_MOVE_TYPES = {"gadget_switch": GadgetSwitch, "slide_over_unknot": SlideOverUnknot,
               "add_split_unknot": AddSplitUnknot, "matrix_slide": MatrixSlide,
               "blow_down_index": BlowDownIndex, "poke": Poke}
# move class -> (tag, field names); every field is an integer but `side`
_MOVE_FIELDS = {cls: (tag, tuple(f.name for f in fields(cls)))
                for tag, cls in _MOVE_TYPES.items()}


def move_to_obj(mv: KirbyMove) -> dict:
    try:
        tag, names = _MOVE_FIELDS[type(mv)]
    except KeyError:
        raise FormatError("unknown move %r" % (mv,)) from None
    obj = {"type": tag}
    for name in names:
        v = getattr(mv, name)
        obj[name] = v if name == "side" else encode_int(v)
    return obj


def move_from_obj(obj) -> KirbyMove:
    if not isinstance(obj, dict) or "type" not in obj:
        raise FormatError("move must be an object with a 'type' tag")
    kind = obj["type"]
    cls = _MOVE_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise FormatError("unknown move type %r" % (kind,))
    keys = ("type",) + _MOVE_FIELDS[cls][1]
    _check_keys(obj, keys, keys, kind)
    if not isinstance(obj.get("side", ""), str):
        raise FormatError("side must be a string, got %r" % (obj["side"],))
    return cls(**{name: obj[name] if name == "side" else decode_int(obj[name], name)
                  for name in keys[1:]})


def certificate_to_obj(cert: EmbeddingCertificate) -> dict:
    return {
        "target": diagram_to_obj(cert.target),
        "initial": diagram_to_obj(cert.initial),
        "moves": [move_to_obj(mv) for mv in cert.moves],
        "sublink": {str(k): v for k, v in sorted(cert.sublink.items())},
        "m": cert.m,
        "n": cert.n,
        "p": cert.p,
    }


def certificate_from_obj(obj) -> EmbeddingCertificate:
    _check_keys(obj, ("target", "initial", "moves", "sublink", "m", "n", "p"),
                ("target", "initial", "moves", "sublink", "m", "n", "p"),
                "certificate")
    sublink = {}
    if not isinstance(obj["sublink"], dict):
        raise FormatError("sublink must be an object")
    for k, v in obj["sublink"].items():
        sublink[decode_int(k, "sublink key")] = decode_int(v, "sublink value")
    if not isinstance(obj["moves"], list):
        raise FormatError("moves must be a list")
    return EmbeddingCertificate(
        target=diagram_from_obj(obj["target"]),
        initial=diagram_from_obj(obj["initial"]),
        moves=[move_from_obj(mv) for mv in obj["moves"]],
        sublink=sublink,
        m=decode_int(obj["m"], "m"),
        n=decode_int(obj["n"], "n"),
        p=decode_int(obj["p"], "p"))


# ---------------------------------------------------------------------------
# file helpers


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_path(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as e:  # bad JSON, UTF-8, digits, depth
        raise FormatError("cannot read %s: %s" % (path, e)) from None


def save_path(path: str, obj) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(obj))
    except OSError as e:
        raise FormatError("cannot write %s: %s" % (path, e)) from None
