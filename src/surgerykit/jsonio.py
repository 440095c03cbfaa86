"""JSON schemas for links, matrices, certificates and reports.

Framings, matrix entries, report invariants and move fields outside the
signed 64-bit range are written as decimal strings; counts are sizes of
what was built.  Ids are written as plain JSON integers whatever their
size, so an id read past 64 bits is written back as a bare integer.  Both
forms are accepted on input.  Unknown keys are rejected everywhere so
that schema drift fails loudly.
"""

import io
import sys
from itertools import chain
from operator import itemgetter

from .calculus import (EmbeddingCertificate, GadgetSwitch, KirbyMove, Poke,
                       SlideOverUnknot)
from .intlattice import IntegralLattice
from .linkdiag import Arc, Component, Crossing, FramedLinkDiagram

# The C functions that json and hashlib themselves call, so that a cold
# start loads neither module, nor json's re and enum, nor OpenSSL's 2-3 ms.
try:
    from _json import encode_basestring_ascii, make_encoder, make_scanner
except ImportError:  # no C accelerator: json's own code reads and writes
    encode_basestring_ascii = make_encoder = make_scanner = None
try:  # the interpreter's own SHA-256, which hashlib falls back on
    _builtin_sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
except ImportError:
    _builtin_sha256 = None
_OPENSSL_AFTER, _hashed = 1 << 19, 0  # the builtin hashes a process's first 512 KiB


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
    """Raise unless obj is a dict with all `required` and only `allowed` keys (frozensets)."""
    if isinstance(obj, dict) and required <= obj.keys() <= allowed:
        return
    if not isinstance(obj, dict):
        raise FormatError("%s must be an object, got %s" % (what, type(obj).__name__))
    unknown = obj.keys() - allowed
    if unknown:
        raise FormatError("%s has unknown keys %r" % (what, sorted(unknown)))
    raise FormatError("%s is missing keys %r" % (what, sorted(required - obj.keys())))


# ---------------------------------------------------------------------------
# links


_LINK_KEYS = frozenset(("components", "arcs", "crossings"))
# list key, record name, class, row getter, {field: error label} in schema order;
# a component's basepoint, its last field, is the one that may be left out
_RECORDS = (("components", "component", Component, itemgetter("id", "framing", "basepoint"),
             {"id": "component id", "framing": "framing", "basepoint": "basepoint"}),
            ("arcs", "arc", Arc, itemgetter("id", "component", "next"),
             {"id": "arc id", "component": "arc component", "next": "arc successor"}),
            ("crossings", "crossing", Crossing, itemgetter("id", *Crossing.__slots__),
             {"id": "crossing id"} | {f: f for f in Crossing.__slots__}))


def diagram_to_obj(d: FramedLinkDiagram) -> dict:
    comps = []
    for cid, c in d.components.items():
        rec = {"id": cid, "framing": encode_int(c.framing)}
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


def _int_rows(recs, row, width: int):
    """list(map(row, recs)) if recs is a list of dicts with exactly the `width` keys `row`
    gets and exact int values (no bool or decimal string), checked per list; else None."""
    if not (type(recs) is list and set(map(type, recs)) <= {dict}
            and set(map(len, recs)) <= {width}):
        return None
    try:
        rows = list(map(row, recs))
    except KeyError:
        return None
    return rows if set(map(type, chain.from_iterable(rows))) <= {int} else None


def diagram_from_obj(obj) -> FramedLinkDiagram:
    _check_keys(obj, _LINK_KEYS, frozenset(("components",)), "link")
    d = FramedLinkDiagram()
    for key, what, cls, row, labels in _RECORDS:
        rows = _int_rows(obj.get(key), row, len(labels)) or ()
        recs = {r[0]: cls(*r[1:]) for r in rows}
        if not recs or len(recs) < len(rows):  # the loop reads the list, naming the fault
            recs, keys, fields = {}, frozenset(labels), list(labels.items())[1:]
            required = keys - {"basepoint"}
            for rec in _link_list(obj, key):
                _check_keys(rec, keys, required, what)
                rid = decode_int(rec["id"], labels["id"])
                if rid in recs:
                    raise FormatError("duplicate %s id %d" % (what, rid))
                recs[rid] = cls(*[decode_int(rec[f], label) for f, label in fields if f in rec])
        setattr(d, key, recs)
    return d


# ---------------------------------------------------------------------------
# matrices


def lattice_to_obj(L: IntegralLattice) -> dict:
    return {"n": L.n, "entries": [row[:] if _I64_MIN <= min(row) and max(row) <= _I64_MAX
                                  else [encode_int(x) for x in row] for row in L.entries]}


def lattice_from_obj(obj) -> IntegralLattice:
    keys = frozenset(("n", "entries"))
    _check_keys(obj, keys, keys, "matrix")
    n = decode_int(obj["n"], "dimension")
    if n < 0:
        raise FormatError("matrix dimension must be non-negative, got %d" % n)
    rows = obj["entries"]
    if not isinstance(rows, list) or len(rows) != n:
        raise FormatError("matrix entries must be a list of %d rows" % n)
    entries = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise FormatError("matrix rows must each have %d entries" % n)
        entries.append(row if {int}.issuperset(map(type, row))  # no bool or decimal string
                       else [decode_int(x, "matrix entry") for x in row])
    try:
        return IntegralLattice(entries)
    except ValueError as e:
        raise FormatError(str(e)) from None


# ---------------------------------------------------------------------------
# moves and certificates


_MOVE_TYPES = {"gadget_switch": GadgetSwitch, "slide_over_unknot": SlideOverUnknot,
               "poke": Poke}
# move class -> (tag, field names); every field is an integer but `side`
_MOVE_FIELDS = {cls: (tag, cls.__slots__) for tag, cls in _MOVE_TYPES.items()}
_MOVE_KEYS = {cls: frozenset(("type",) + names) for cls, (_, names) in _MOVE_FIELDS.items()}


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
    _check_keys(obj, _MOVE_KEYS[cls], _MOVE_KEYS[cls], kind)
    if not isinstance(obj.get("side", ""), str):
        raise FormatError("side must be a string, got %r" % (obj["side"],))
    return cls(**{name: obj[name] if name == "side" else decode_int(obj[name], name)
                  for name in _MOVE_FIELDS[cls][1]})


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
    keys = frozenset(("target", "initial", "moves", "sublink", "m", "n", "p"))
    _check_keys(obj, keys, keys, "certificate")
    sublink = {}
    if not isinstance(obj["sublink"], dict):
        raise FormatError("sublink must be an object")
    for k, v in obj["sublink"].items():
        cid = decode_int(k, "sublink key")
        if cid in sublink:  # "01" and "-0" name the ids of "1" and "0"
            raise FormatError("duplicate sublink key %d (%r)" % (cid, k))
        sublink[cid] = decode_int(v, "sublink value")
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


_SCALARS = frozenset((str, int, float, bool, type(None)))
_levels: dict = {}  # depth -> (C encoder of one container's scalars, separator, end)
_records: dict = {}  # (sorted keys, separator of a depth) -> (itemgetter, record template)


def _int_records(o, sep: str):
    """2+ dicts of the same 2+ str keys and exact int values in one % format, else None."""
    keys = tuple(sorted(o[0])) if type(o[0]) is dict and {str}.issuperset(map(type, o[0])) else ()
    if len(o) < 2 or len(keys) < 2:  # itemgetter of one key returns no tuple
        return None
    if (keys, sep) not in _records:  # the C encoder writes an int v as repr(v) == "%d" % v
        ind = sep + "  "
        _records[keys, sep] = (itemgetter(*keys), "{%s%s}" % (ind[1:] + ind.join(
            encode_basestring_ascii(k).replace("%", "%%") + ": %d" for k in keys), sep[1:]))
    row, rec = _records[keys, sep]
    rows = _int_rows(o, row, len(keys))
    return rows and "[%s]" % sep.join([rec] * len(o)) % tuple(chain.from_iterable(rows))


def _default(o):
    raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)


def _encode(o, depth: int) -> str:
    """json.dumps(o, indent=2, sort_keys=True) as nested at `depth`: a
    dict or list of scalars is one call of the C encoder."""
    if depth not in _levels:
        sep = ",\n" + "  " * (depth + 1)
        _levels[depth] = (make_encoder(None, _default, encode_basestring_ascii, None, ": ",
                                       sep, True, False, True), sep, "\n" + "  " * depth)
    enc, sep, end = _levels[depth]
    if not isinstance(o, (dict, list, tuple)) or not o:
        return "".join(enc(o, 0))
    if isinstance(o, dict) and not {str}.issuperset(map(type, o)):
        import json
        return json.dumps(o, indent=2, sort_keys=True).replace("\n", end)
    if _SCALARS.issuperset(map(type, o.values() if isinstance(o, dict) else o)):
        text = "".join(enc(o, 0))
    elif isinstance(o, dict):
        text = "{%s}" % sep.join([encode_basestring_ascii(k) + ": "
                                  + _encode(v, depth + 1) for k, v in sorted(o.items())])
    else:
        text = (_int_records(o, sep)
                or "[%s]" % sep.join([_encode(v, depth + 1) for v in o]))
    return text[0] + sep[1:] + text[1:-1] + end + text[-1]


def dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) and a newline, in C where it can."""
    if make_encoder is None:
        import json
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    return _encode(obj, 0) + "\n"


class _Decoder:  # the settings of json.JSONDecoder()
    strict, object_hook, object_pairs_hook, parse_float, parse_int = True, None, None, float, int
    parse_constant = {"NaN": float("nan"), "Infinity": float("inf"),
                      "-Infinity": float("-inf")}.__getitem__


_scan = make_scanner and make_scanner(_Decoder)


def loads(s: str):
    """json.loads(s) for a str, by json's C scanner; json itself words any error."""
    if _scan is not None:
        start, end = len(s) - len(s.lstrip(" \t\n\r")), len(s.rstrip(" \t\n\r"))
        try:
            obj, stop = _scan(s, start)
            if stop == end:
                return obj
        except (ValueError, StopIteration, SystemError, RecursionError):
            pass  # SystemError: Python 3.10 and 3.11 raise it until json.decoder is imported
    import json
    return json.loads(s)


def sha256(raw: bytes):
    """hashlib.sha256(raw); rebinds itself to OpenSSL's once _hashed passes _OPENSSL_AFTER."""
    global sha256, _hashed
    _hashed += len(raw)  # a racing update only changes which hasher runs: same digest
    if _builtin_sha256 is not None and _hashed <= _OPENSSL_AFTER:
        return _builtin_sha256(raw)
    try:
        from _hashlib import openssl_sha256 as sha256
    except ImportError:
        from hashlib import sha256
    return sha256(raw)


def load_path(path: str, digests: dict | None = None):
    """The JSON value of the UTF-8 file at `path`, read once; with
    `digests`, the SHA-256 of the bytes read goes in digests[path]."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        if digests is not None:
            digests[path] = sha256(raw).hexdigest()
        with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8") as fh:
            return loads(fh.read())
    except (OSError, ValueError, RecursionError) as e:  # bad JSON, UTF-8, digits, depth
        raise FormatError("cannot read %s: %s" % (path, e)) from None


def save_path(path: str, obj) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(obj))
    except OSError as e:
        raise FormatError("cannot write %s: %s" % (path, e)) from None
