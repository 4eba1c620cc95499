"""Command-line front end.

Every subcommand is a thin shell over one library call; its handler
returns (payload, text) and main alone prints one of them.  --json,
given after the subcommand's own words, prints the payload as one JSON
object with sorted keys, so identical inputs give byte-identical
output.  A payload may carry an IntegerMatrix; main spells it as a
matrix document only under --json, so text mode never pays for it.
Exit codes: 0 for success, 1 for a verification failure (only the
family sweep can produce one) or for a reader of stdout that left
early (say, `| head -1`), which prints nothing more, 2 for bad input:
a usage error or an InputError: every layer's input error, or what
_read_doc makes of an unreadable file, malformed JSON or undecodable
text.  Any other exception, any other OSError or ValueError included,
is a fault, not bad input: it ends in a traceback, and Python exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .matrices import (
    InputError, IntegerMatrix, doc_integer, smith_normal_form,
)
from .slopes import Slope, SlopeInvolution, distance, fixed_slopes
from .surgery import (
    FramedLink, SurgeryError, mn_framed_link, surgered_homology, verify_family,
)
from .twobridge import (
    ConwayWord,
    SchubertForm,
    continued_fraction,
    is_achiral_lens,
    schubert_equivalent,
)


def _read_doc(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(exc) from exc


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(x.ljust(w) for x, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def _cmd_slope(args) -> tuple[dict, str]:
    if args.action == "normalize":
        s = Slope(args.ints[0], args.ints[1])
        return {"slope": str(s)}, str(s)
    if args.action == "dist":
        d = distance(Slope.parse(args.slopes[0]), Slope.parse(args.slopes[1]))
        return {"distance": d}, str(d)
    inv = SlopeInvolution(*args.ints)
    if args.action == "apply":
        s = inv.apply(Slope.parse(args.slopes[0]))
        return {"slope": str(s)}, str(s)
    found = fixed_slopes(inv, args.bound)
    payload = {
        "bound": args.bound,
        "is_involution": inv.is_involution(),
        "slopes": [str(s) for s in found],
    }
    return payload, "\n".join(str(s) for s in found)


def _parse_word(parts: list[str]) -> ConwayWord:
    return ConwayWord.parse(" ".join(parts))


def _cmd_cfrac(args) -> tuple[dict, str]:
    word = _parse_word(args.entries)
    s = continued_fraction(word)
    return {"word": list(word.entries), "slope": str(s)}, str(s)


def _describe(form: SchubertForm) -> tuple[dict, str]:
    """The payload fields and the components line of a Schubert form."""
    parity = "knot" if form.is_knot else "2-component link"
    payload = {
        "schubert": str(form),
        "p": form.p,
        "q": form.q,
        "components": form.components,
    }
    return payload, f"components: {form.components} ({parity})"


def _cmd_twobridge(args) -> tuple[dict, str]:
    s = continued_fraction(_parse_word(args.entries))
    form = SchubertForm.from_slope(s)
    payload, components = _describe(form)
    payload["fraction"] = str(s)
    return payload, f"fraction: {s}\nschubert: {form}\n{components}"


def _cmd_lens(args) -> tuple[dict, str]:
    form = SchubertForm(args.p, args.q)
    achiral = is_achiral_lens(form)
    payload, components = _describe(form)
    payload["mirror"] = mirror = str(form.mirror())
    payload["achiral"] = achiral
    lines = [
        f"lens: {form}",
        components,
        f"mirror: {mirror}",
        f"achiral: {'yes' if achiral else 'no'}",
    ]
    if args.compare:
        other = SchubertForm(args.compare[0], args.compare[1])
        if schubert_equivalent(form, other):
            verdict = "equivalent (orientation-preserving)"
        elif schubert_equivalent(form, other.mirror()):
            verdict = "equivalent (mirror pair)"
        else:
            verdict = "not equivalent"
        payload["compare"] = {
            "schubert": str(other),
            "equivalent": verdict != "not equivalent",
            "verdict": verdict,
        }
        lines.append(f"compare {other}: {verdict}")
    return payload, "\n".join(lines)


def _cmd_snf(args) -> tuple[dict, str]:
    m = IntegerMatrix.from_doc(_read_doc(args.input))
    # text mode prints only the diagonal and the group; --json adds u, v
    snf = smith_normal_form(m, transforms=args.json)
    group = snf.cokernel
    payload = {
        "diagonal": [str(d) for d in snf.diagonal],
        "rank": snf.rank,
        "cokernel": str(group),
    }
    if args.json:
        payload.update(u=snf.u, d=snf.d, v=snf.v)
    text = f"diagonal: {' '.join(payload['diagonal'])}\ncokernel: {group}"
    return payload, text


def _load_surgery(args):
    if args.template == "mn":
        if args.twists is None:
            raise SurgeryError("the mn template needs --twists")
        return mn_framed_link(args.twists)
    if args.twists is not None:
        raise SurgeryError("--twists only applies to the mn template")
    if args.template == "unknot":
        return FramedLink(((0,),)), {}
    return FramedLink.from_doc(_read_doc(args.input))


def _cmd_surgery(args) -> tuple[dict, str]:
    link, fills = _load_surgery(args)
    for component in args.drill or ():
        i = link.index(component)
        if i not in fills:
            raise SurgeryError(
                f"cannot drill {link.labels[i]}: component is not filled"
            )
        del fills[i]
    for item in args.fill or ():
        component, sep, slope = item.partition("=")
        if not sep:
            raise SurgeryError(
                f"fill {item!r} is not of the form COMPONENT=P/Q")
        fills[link.index(component)] = Slope.parse(slope)
    group = surgered_homology(link, fills)
    payload = {
        "components": link.num_components,
        "fillings": {link.labels[i]: str(s) for i, s in sorted(fills.items())},
        "homology": str(group),
        "free_rank": group.free_rank,
        "invariant_factors": [str(d) for d in group.invariant_factors],
    }
    return payload, str(group)


def _cmd_family(args) -> tuple[dict, str]:
    reports, failures = verify_family(args.n_min, args.n_max)
    # one column per FamilyReport field, in declaration order
    header = ["n", "schubert", "comps", "t", "p", "chirality",
              "null-homology", "swap"]
    rows = [
        [("yes" if v else "no") if isinstance(v, bool) else str(v)
         for v in r._values()]
        for r in reports
    ]
    payload = {
        "range": [args.n_min, args.n_max],
        "reports": [r.as_dict() for r in reports],
        "failures": failures,
        "ok": not failures,
    }
    if failures:
        summary = f"FAILED: {failures[0]}"
    else:
        summary = f"all checks passed ({len(reports)} reports)"
    return payload, _table(header, rows) + "\n" + summary


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # accept bare negative slopes like -2/3 as positionals; stock
    # argparse only waves through plain negative numbers
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/-?\d+)?$")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dehnkit",
        description="exact slope, two-bridge, and surgery homology toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    # --json only on each action, whose default would overwrite a copy
    # on the group
    p = sub.add_parser("slope", help="normalize, distance, coordinate changes")
    p.set_defaults(func=_cmd_slope)
    slope_sub = p.add_subparsers(dest="action", required=True)
    q = slope_sub.add_parser("normalize", parents=[common])
    q.add_argument("ints", type=doc_integer, nargs=2, metavar="INT")
    q = slope_sub.add_parser("dist", parents=[common])
    q.add_argument("slopes", nargs=2, metavar="SLOPE")
    q = slope_sub.add_parser("apply", parents=[common])
    q.add_argument("ints", type=doc_integer, nargs=4, metavar="INT")
    q.add_argument("slopes", nargs=1, metavar="SLOPE")
    q = slope_sub.add_parser("fixed", parents=[common])
    q.add_argument("ints", type=doc_integer, nargs=4, metavar="INT")
    q.add_argument("--bound", type=doc_integer, default=100)

    p = sub.add_parser("cfrac", parents=[common],
                       help="evaluate a Conway word to a fraction")
    p.add_argument("entries", nargs="+", metavar="INT")
    p.set_defaults(func=_cmd_cfrac)

    p = sub.add_parser("twobridge", parents=[common],
                       help="Conway word to Schubert normal form")
    p.add_argument("entries", nargs="+", metavar="INT")
    p.set_defaults(func=_cmd_twobridge)

    p = sub.add_parser("lens", parents=[common],
                       help="classify S(p,q): parity, mirror, achirality")
    p.add_argument("p", type=doc_integer)
    p.add_argument("q", type=doc_integer)
    p.add_argument("--compare", type=doc_integer, nargs=2, metavar=("P", "Q"))
    p.set_defaults(func=_cmd_lens)

    p = sub.add_parser("snf", parents=[common],
                       help="Smith normal form of a matrix document")
    p.add_argument("--input", required=True, metavar="FILE",
                   help="matrix document, '-' for stdin")
    p.set_defaults(func=_cmd_snf)

    p = sub.add_parser("surgery", parents=[common],
                       help="first homology of a filled surgery description")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="FILE",
                        help="framed-link document, '-' for stdin")
    source.add_argument("--template", choices=("mn", "unknot"),
                        help="built-in link: mn (needs --twists) or unknot")
    p.add_argument("-n", "--twists", type=doc_integer,
                   help="parameter n for the mn template")
    p.add_argument("--fill", action="append", metavar="COMPONENT=P/Q",
                   help="set or override one filling slope")
    p.add_argument("--drill", action="append", metavar="COMPONENT",
                   help="remove the filling of a component")
    p.set_defaults(func=_cmd_surgery)

    p = sub.add_parser("family", parents=[common],
                       help="certify the knot exterior family over a range")
    p.add_argument("n_min", type=doc_integer, nargs="?", default=-10)
    p.add_argument("n_max", type=doc_integer, nargs="?", default=10)
    p.set_defaults(func=_cmd_family)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        payload, text = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(json.dumps(payload, sort_keys=True,
                             default=IntegerMatrix.to_doc))
        elif text:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left; as the Python docs advise for SIGPIPE, point
        # stdout at devnull so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 1 if payload.get("failures") else 0


def run():
    sys.exit(main())
