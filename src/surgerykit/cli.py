"""Command-line front end.

A well-formed argument list is parsed straight from `_COMMANDS`: the
command name first, then its one positional argument (not starting
with `-`) and its options, each spelled exactly, with a value option's
value not starting with `-`.  Every other list (no command, `--help`,
an abbreviation, `--output=x`, `--`, an unknown name or a usage error)
goes to one `parse_args` call on argparse's own parser, which is built
and imported only then, so help texts, usage errors and their exit
code 2 are argparse's own.

Exit status: 0 success (and PASS for `verify`), 1 verification failure,
2 malformed input, usage error or unwritable output file, 3 internal
error (a fault of the program).  Every command is deterministic for a
fixed input; `--json` switches the report to machine-readable form.
"""

from __future__ import annotations

import os
import sys
import time
from types import SimpleNamespace

from . import calculus, intlattice, jsonio, linkdiag
from .intlattice import IntegralLattice
from .jsonio import FormatError

def _load_link(args):
    return jsonio.diagram_from_obj(jsonio.load_path(args.link, args._inputs))


def _load_matrix_or_link(args) -> IntegralLattice:
    obj = jsonio.load_path(args.input, args._inputs)
    if isinstance(obj, dict) and "entries" in obj:
        return jsonio.lattice_from_obj(obj)
    d = jsonio.diagram_from_obj(obj)
    return linkdiag.linking_matrix(d)


def _fields(*pairs) -> str:
    """`label : value` lines, each label padded to the longest label
    present; a pair whose value is None is left out."""
    pairs = [(label, value) for label, value in pairs if value is not None]
    width = max(len(label) for label, _ in pairs)
    return "".join("%-*s : %s\n" % (width, label, value) for label, value in pairs)


def _lattice_report(L: IntegralLattice) -> dict:
    inert = intlattice.inertia(L)
    diag = intlattice.snf_diagonal(L, inert)
    hom = intlattice.homology_from_diagonal(diag)
    ob = calculus.donaldson_obstruction(L, inert)
    out = {
        "n": L.n,
        "det": jsonio.encode_int(inert.det),
        "inertia": {"positive": inert.positive, "zero": inert.zero,
                    "negative": inert.negative},
        "snf_diagonal": [jsonio.encode_int(x) for x in diag],
        "homology": {"rank": hom.rank,
                     "torsion": [jsonio.encode_int(t) for t in hom.torsion],
                     "pretty": str(hom)},
        "unimodular": ob.unimodular,
    }
    if ob.diagonalizable is not None:
        out["diagonalizable_over_Z"] = ob.diagonalizable
        out["diagonal_part"] = ob.diagonal_part
        out["residual_rank"] = ob.residual_rank
    return out


def _lattice_text(rep: dict) -> str:
    i = rep["inertia"]
    diag_z = None
    if "diagonalizable_over_Z" in rep:
        diag_z = "%s (split %d, residual rank %d)" % (
            rep["diagonalizable_over_Z"], rep["diagonal_part"], rep["residual_rank"])
    return _fields(("rank", rep["n"]), ("det", rep["det"]),
                   ("inertia", "(%d, %d, %d)" % (i["positive"], i["zero"], i["negative"])),
                   ("SNF diag", rep["snf_diagonal"]), ("H1", rep["homology"]["pretty"]),
                   ("unimodular", rep["unimodular"]), ("diag/Z", diag_z))


def _parse_order(text: str | None):
    if text is None:
        return None
    try:  # ASCII decimal ids, as in the JSON files
        return [jsonio.decode_int(x.strip()) for x in text.split(",") if x.strip() != ""]
    except FormatError:
        raise FormatError("--order expects a comma-separated list of component ids") from None


def _output(args, rep: dict, key: str, obj, *pairs):
    """Write `obj` to the -o file, or carry it inline in the report under
    `key`; the text report is `pairs`, then the path written or `obj`."""
    rep["output"] = args.output
    if args.output:
        jsonio.save_path(args.output, obj)
        return lambda: _fields(*pairs, ("written", args.output))
    rep[key] = obj
    return lambda: _fields(*pairs) + jsonio.dumps(obj)


# Each command returns (exit code, result, text report), the text as a
# function: main prints the result under --json, and only else builds the text.

def cmd_invariants(args):
    L = linkdiag.linking_matrix(_load_link(args))
    rep = _lattice_report(L)
    rep["linking_matrix"] = jsonio.lattice_to_obj(L)
    return 0, rep, lambda: _lattice_text(rep)


def cmd_lattice(args):
    rep = _lattice_report(jsonio.lattice_from_obj(jsonio.load_path(args.matrix, args._inputs)))
    return 0, rep, lambda: _lattice_text(rep)


def cmd_unknotify(args):
    res = calculus.unknotify(_load_link(args), component_order=_parse_order(args.order),
                             unlink=args.unlink)
    rep = {"p": len(res.unknots), "gadget_unknots": res.unknots}
    return 0, rep, _output(args, rep, "link", jsonio.diagram_to_obj(res.diagram),
                           ("crossing changes (p)", rep["p"]),
                           ("gadget unknots", rep["gadget_unknots"]))


def cmd_certify_embedding(args):
    cert = calculus.build_embedding_certificate(
        _load_link(args), auto_unknotify=args.auto_unknotify, pad_positive=args.pad_positive)
    rep = {"m": cert.m, "n": cert.n, "p": cert.p, "moves": len(cert.moves)}
    return 0, rep, _output(args, rep, "certificate", jsonio.certificate_to_obj(cert),
                           ("m (+1 handles)", cert.m), ("n (-1 handles)", cert.n),
                           ("p (crossings)", cert.p), ("moves", len(cert.moves)))


def cmd_verify(args):
    cert = jsonio.certificate_from_obj(jsonio.load_path(args.certificate, args._inputs))
    report = calculus.verify_certificate(cert)
    verdict = "PASS" if report.passed else "FAIL"
    rep = {"verdict": verdict, "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                                          for c in report.checks]}
    return 0 if report.passed else 1, rep, lambda: "".join(
        "%s  %s%s\n" % ("PASS" if c.ok else "FAIL", c.name, c.detail and " -- " + c.detail)
        for c in report.checks) + "verdict: %s\n" % verdict


def cmd_obstruction(args):
    ob = calculus.donaldson_obstruction(_load_matrix_or_link(args))
    rep = {
        "positive_definite": ob.positive_definite,
        "unimodular": ob.unimodular,
        "diagonalizable_over_Z": ob.diagonalizable,
        "verdict": ob.verdict,
    }
    return 0, rep, lambda: _fields(
        ("positive definite", ob.positive_definite), ("unimodular", ob.unimodular),
        ("diagonalizable/Z", ob.diagonalizable), ("verdict", ob.verdict))


def _word_text(w) -> str:
    return " ".join("a%d%s" % (g, "" if e == 1 else "^-1") for g, e in w) or "1"


def cmd_word(args):
    if os.path.exists(args.intersections):
        obj = jsonio.load_path(args.intersections, args._inputs)
    else:
        try:
            obj = jsonio.loads(args.intersections)
        except (ValueError, RecursionError):  # bad JSON, too deep, or too many digits
            raise FormatError("expected a JSON file or inline JSON list of "
                              "[disc, sign] pairs")
    if not isinstance(obj, list):
        raise FormatError("intersections must be a list of [disc, sign] pairs")
    seq = []
    for item in obj:
        if not isinstance(item, list) or len(item) != 2:
            raise FormatError("each intersection must be a [disc, sign] pair")
        seq.append((jsonio.decode_int(item[0], "disc"),
                    jsonio.decode_int(item[1], "sign")))
    try:
        word = calculus.word_from_intersections(seq)
    except ValueError as e:
        raise FormatError(str(e))
    red = calculus.reduce_free_word(word)
    rep = {
        "word": [[g, e] for g, e in word],
        "reduced": [[g, e] for g, e in red.reduced],
        "cyclically_reduced": [[g, e] for g, e in red.cyclically_reduced],
        "trivial": red.trivial,
    }
    return 0, rep, lambda: _fields(
        ("word", _word_text(word)), ("reduced", _word_text(red.reduced)),
        ("cyclically reduced", _word_text(red.cyclically_reduced)), ("trivial", red.trivial))


def _report(args, result: dict) -> dict:
    return {
        "command": args.command,
        "inputs": args._inputs,
        "result": result,
        "elapsed_s": round(time.monotonic() - args._t0, 6),
    }


# name, handler, help, positional argument, options in help order (_JSON
# follows them): flags, help, argparse action (None stores a value)
_COMMANDS = [
    ("invariants", cmd_invariants, "linking matrix invariants of a link file", "link", []),
    ("lattice", cmd_lattice, "invariants of a symmetric matrix file", "matrix", []),
    ("unknotify", cmd_unknotify,
     "switch crossings via blow-up gadgets until every component is an unknot", "link",
     [(("-o", "--output"), "write the rewritten link here", None),
      (("--order",), "comma-separated component order for the descending traversal; write "
       "--order=-1,-2 when the first id is negative", None),
      (("--unlink",), "make the whole link an unlink, not just each component an unknot",
       "store_true")]),
    ("certify-embedding", cmd_certify_embedding,
     "build an embedding certificate for a link of unknots", "link",
     [(("-o", "--output"), "write the certificate here", None),
      (("--pad-positive",), "force m > 0 and n > 0 by adding a canceling +1/-1 pair",
       "store_true"),
      (("--auto-unknotify",), "run unknotify first if components are not descending",
       "store_true")]),
    ("verify", cmd_verify, "replay and audit an embedding certificate", "certificate", []),
    ("obstruction", cmd_obstruction,
     "lattice obstruction verdict for a link or matrix file", "input", []),
    ("word", cmd_word,
     "reduce the free-group word of an intersection sequence (JSON file or inline list)",
     "intersections", []),
]
_JSON = (("--json",), "emit a machine-readable JSON report", "store_true")


def _table() -> dict:
    """name -> (positional, {exact flag: (dest, takes a value)}, the
    attributes argparse sets before parsing: command, func and each
    option's default, under the dest of its first long flag)."""
    table = {}
    for name, func, _, positional, options in _COMMANDS:
        flags, defaults = {}, {"command": name, "func": func}
        for names, _, action in options + [_JSON]:
            dest = next(f for f in names if f[:2] == "--")[2:].replace("-", "_")
            defaults[dest] = False if action else None
            flags.update(dict.fromkeys(names, (dest, action is None)))
        table[name] = positional, flags, defaults
    return table


_TABLE = _table()


def _parse(argv):
    """The namespace argparse gives a well-formed argv, or None for any
    other argv."""
    if not argv or argv[0] not in _TABLE:
        return None
    positional, flags, defaults = _TABLE[argv[0]]
    attrs, it = dict(defaults), iter(argv[1:])
    for tok in it:
        if tok[:1] != "-":
            if positional in attrs:  # a second positional
                return None
            attrs[positional] = tok
        elif tok in flags:
            dest, takes_value = flags[tok]
            if takes_value:
                tok = next(it, "-")  # a missing value fails as "-" does
                if tok[:1] == "-":
                    return None
            attrs[dest] = tok if takes_value else True
        else:
            return None
    return SimpleNamespace(**attrs) if positional in attrs else None


def build_parser():
    """argparse's parser, built from `_COMMANDS`; only an argv that
    `_parse` refuses needs it."""
    import argparse
    ap = argparse.ArgumentParser(
        prog="surgerykit",
        description="Surgery presentations, Kirby-move certificates and "
                    "integer-lattice obstructions.")
    sub = ap.add_subparsers(dest="command")
    for name, func, help_text, positional, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(positional)
        for flags, option_help, action in options + [_JSON]:
            p.add_argument(*flags, help=option_help, action=action)
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args is None:  # help, a usage error or a spelling only argparse reads
        ap = build_parser()
        args = ap.parse_args(argv)
        if not getattr(args, "func", None):
            ap.print_help()
            return 2
    args._t0 = time.monotonic()
    args._inputs = {}  # path -> sha256 of the bytes read there
    try:
        code, result, text = args.func(args)
        print(jsonio.dumps(_report(args, result)) if args.json else text(), end="")
        return code
    except (FormatError, linkdiag.DiagramError, intlattice.LatticeError,
            calculus.MoveError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:  # a fault of the program, not of the input
        print("internal error: %s: %s" % (type(e).__name__, " ".join(str(e).split())),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
