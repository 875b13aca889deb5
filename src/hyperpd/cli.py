"""Command-line front end.

Every subcommand reads one object (ideal, hypergraph, or lattice),
converts as needed, and emits deterministic JSON, DOT, or text.
Domain failures, unreadable input and unwritable output exit 1 with a
JSON error on stderr; usage problems exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .betti import (
    OracleError,
    _check_char,
    betti_table,
    betti_table_from_lattice,
    betti_table_of_edges,
    lattice_pd,
)
from .hypergraphs import (
    Hypergraph,
    HypergraphError,
    classify_shape,
    dual_hypergraph,
    edge_masks,
    hypergraph_from_json_dict,
    is_separated,
)
from .ideals import IdealError, ideal_from_json_dict, parse_ideal
from .lattices import (
    LatticeError,
    SetFamilyLattice,
    _separated_edge_masks,
    coordinatize,
    hypergraph_coordinatization,
    labeling_from_json_dict,
    labeling_to_json_dict,
    lattice_from_hypergraph,
    lattice_from_json_dict,
    lcm_lattice,
)
from .pd import PdError, pd
from .reduction import (
    GATES,
    ReductionError,
    ReductionTrace,
    check_preconditions,
    full_reduce,
    remove_union_edges,
)

DOMAIN_ERRORS = (
    IdealError,
    HypergraphError,
    LatticeError,
    OracleError,
    ReductionError,
    PdError,
)

INPUT_FORMATS = ("ideal-text", "ideal-json", "hypergraph-json", "lattice-json")
DRAWABLE = ("json", "dot", "text")  # output formats of graph-valued commands
UNDRAWABLE = ("json", "text")


class UsageError(Exception):
    pass


def _read_input(value: str) -> str:
    if value == "-":
        return sys.stdin.read()
    if os.path.isfile(value):
        with open(value) as fh:
            return fh.read()
    return value


def _sniff_format(data: dict) -> str:
    if "generators" in data:
        return "ideal-json"
    if "edges" in data:
        return "hypergraph-json"
    if "elements" in data:
        return "lattice-json"
    raise UsageError("cannot tell what kind of object the JSON input is")


def _load(text: str, fmt: str | None):
    """Returns (kind, object) with kind in ideal/hypergraph/lattice."""
    if fmt == "ideal-text" or (fmt is None and not text.lstrip().startswith("{")):
        return "ideal", parse_ideal(text)
    data = json.loads(text)  # the one decode, so errors name positions in the text as given
    fmt = fmt or _sniff_format(data)
    if fmt == "ideal-json":
        return "ideal", ideal_from_json_dict(data)
    if fmt == "hypergraph-json":
        return "hypergraph", hypergraph_from_json_dict(data)
    if fmt == "lattice-json":
        if isinstance(data, dict) and "labels" in data:
            return "labeling", labeling_from_json_dict(data)
        return "lattice", lattice_from_json_dict(data)
    raise UsageError(f"unknown input format {fmt!r}")


def _as_hypergraph(kind: str, obj) -> Hypergraph:
    if kind == "hypergraph":
        return obj
    if kind == "ideal":
        return dual_hypergraph(obj)
    raise UsageError(f"{kind} input cannot be used as a hypergraph")


def _as_lattice(kind: str, obj) -> SetFamilyLattice:
    if kind == "ideal":
        return lcm_lattice(obj)
    if kind == "hypergraph":
        return lattice_from_hypergraph(obj)
    if kind == "labeling":
        return obj[0]
    return obj


def _emit(text: str, out_path: str | None):
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2)


def _field_char(args) -> int:
    """The characteristic from --field-char, else HYPERPD_FIELD_CHAR,
    else 2; it must be prime whether or not the oracle runs."""
    if args.field_char is not None:
        char = args.field_char
    else:
        raw = os.environ.get("HYPERPD_FIELD_CHAR", "2")
        try:
            char = int(raw)
        except ValueError:
            raise OracleError(f"HYPERPD_FIELD_CHAR must be an integer, got {raw!r}")
    _check_char(char)
    return char


def _cmd_pd(args, kind: str, obj) -> str:
    H = _as_hypergraph(kind, obj)
    char = _field_char(args)
    result = pd(H, field_char=char)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(result.trace.to_jsonl())
    data = result.to_json_dict()
    if args.verify:
        # pd() refused an unseparated H, so its edge lattice is the
        # lcm-lattice of its ideal
        reference = lattice_pd(H.mu, edge_masks(H), char=char)
        if reference != result.pd:
            raise PdError(
                f"verification failed: reduction gives pd {result.pd}, "
                f"homology oracle gives {reference}"
            )
        data["oracle_pd"] = reference
        data["verified"] = True
    if args.output_format == "text":
        return f"pd = {result.pd} ({result.method})"
    return _json_text(data)


def _cmd_hypergraph(args, kind: str, obj) -> str:
    H = _as_hypergraph(kind, obj)
    if args.output_format == "dot":
        return H.to_dot()
    if args.output_format == "text":
        lines = [
            f"vertices: {H.mu}",
            f"edges: {' '.join(json.dumps(list(e)) for e in H.edges)}",
            f"separated: {is_separated(H)}",
        ]
        if len(H.components()) == 1:
            lines.append(f"shape: {classify_shape(H).kind}")
        return "\n".join(lines)
    return _json_text(H.to_json_dict())


def _cmd_lattice(args, kind: str, obj) -> str:
    L = _as_lattice(kind, obj)
    if args.output_format == "dot":
        return L.to_dot()
    if args.output_format == "text":
        return f"atoms: {L.num_atoms}\nelements: {len(L)}"
    return _json_text(L.to_json_dict())


def _cmd_reduce(args, kind: str, obj) -> str:
    H = _as_hypergraph(kind, obj)
    trace = ReductionTrace()
    if args.strict:
        H, trace = remove_union_edges(H, strict=True)
    reduced, steps = full_reduce(H)
    trace.extend(steps)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(trace.to_jsonl())
    if args.output_format == "dot":
        return reduced.to_dot()
    if args.output_format == "text":
        return (
            f"vertices: {reduced.mu}\n"
            f"edges: {' '.join(json.dumps(list(e)) for e in reduced.edges)}\n"
            f"steps: {len(trace.steps)}"
        )
    return _json_text(reduced.to_json_dict())


def _cmd_betti(args, kind: str, obj) -> str:
    char = _field_char(args)
    if kind == "labeling":
        raise UsageError("betti takes an ideal, hypergraph, or bare lattice")
    if kind == "ideal":
        table = betti_table(obj, char=char)
    elif kind == "hypergraph":
        table = betti_table_of_edges(obj.mu, _separated_edge_masks(obj), char=char)
    else:
        table = betti_table_from_lattice(obj, char=char)
    if args.output_format == "text":
        totals = table.totals()
        row = " ".join(str(totals[i]) for i in sorted(totals))
        return f"total Betti numbers: {row} (pd {table.pd}, char {table.field_char})"
    return _json_text(table.to_json_dict(include_entries=args.entries))


def _cmd_coordinatize(args, kind: str, obj) -> str:
    if kind == "hypergraph":
        lattice, labeling, ideal = hypergraph_coordinatization(obj)
    elif kind == "labeling":
        lattice, labeling = obj
        ideal = coordinatize(lattice, labeling)
    elif kind == "lattice":
        raise UsageError("coordinatize needs labels on the lattice elements")
    else:
        raise UsageError("coordinatize takes a labeled lattice or a hypergraph")
    if args.output_format == "text":
        return ideal.to_text()
    return _json_text(
        {
            "ideal": ideal.to_json_dict(),
            "text": ideal.to_text(),
            "labeling": labeling_to_json_dict(lattice, labeling),
        }
    )


def _cmd_check(args, kind: str, obj) -> str:
    if kind in ("lattice", "labeling"):
        # Only the lattice-side check applies; there is no hypergraph to test.
        lattice = _as_lattice(kind, obj)
        data = {"remark22": lattice.check_remark22(), "elements": len(lattice)}
        if args.output_format == "text":
            return f"remark22: {data['remark22']}\nelements: {data['elements']}"
        return _json_text(data)
    H = _as_hypergraph(kind, obj)
    pre = check_preconditions(H)
    try:
        remark22 = lattice_from_hypergraph(H).check_remark22()
        remark22_note = None
    except LatticeError as exc:
        remark22 = None
        remark22_note = str(exc)
    data = {
        "preconditions": pre.to_json_dict(),
        "ready": pre.all_ok,
        "separated": is_separated(H),
        "remark22": remark22,
        "components": [{"vertices": list(vs), "kind": kind} for vs, kind in pre.components],
    }
    if remark22_note is not None:
        data["remark22_note"] = remark22_note
    if args.output_format == "text":
        lines = [f"ready: {pre.all_ok}", f"separated: {data['separated']}"]
        for gate in GATES:
            mark = f"FAIL ({pre.witnesses[gate]})" if gate in pre.witnesses else "ok"
            lines.append(f"{gate}: {mark}")
        if remark22 is None:
            lines.append(f"remark22: skipped ({remark22_note})")
        else:
            lines.append(f"remark22: {remark22}")
        return "\n".join(lines)
    return _json_text(data)


_FIELD_CHAR = ("--field-char", {"type": int, "default": None,
                                 "help": "field characteristic (default: HYPERPD_FIELD_CHAR or 2)"})
_TRACE = ("--trace", {"default": None, "help": "write a JSONL trace here"})


def _switch(flag: str, help_text: str):
    return flag, {"action": "store_true", "help": help_text}


# name -> (handler, help, output formats, arguments after the common ones)
_SUBCOMMANDS = {
    "pd": (_cmd_pd, "projective dimension of R/I", UNDRAWABLE, [
        _FIELD_CHAR, _TRACE,
        _switch("--verify", "also run the homology oracle and require agreement"),
    ]),
    "hypergraph": (_cmd_hypergraph, "dual hypergraph of an ideal", DRAWABLE, []),
    "lattice": (_cmd_lattice, "lcm-lattice of an ideal or hypergraph", DRAWABLE, []),
    "reduce": (_cmd_reduce, "run the reduction pipeline", DRAWABLE, [
        _TRACE, _switch("--strict", "refuse higher edges that are not unions"),
    ]),
    "betti": (_cmd_betti, "total Betti numbers via lattice homology", UNDRAWABLE, [
        _FIELD_CHAR, _switch("--entries", "include the per-degree breakdown"),
    ]),
    "coordinatize": (_cmd_coordinatize, "recover an ideal from labels", UNDRAWABLE, []),
    "check": (_cmd_check, "report reduction preconditions", UNDRAWABLE, []),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for every subcommand, or, given `command`, a parser
    that holds that subcommand alone and parses its calls the same way.

    A subcommand's help and errors do not depend on the other
    subcommands, and the narrow parser's usage line names them all.
    """
    parser = argparse.ArgumentParser(
        prog="hyperpd",
        description="projective dimension and Betti numbers of square-free "
                    "monomial ideals via dual-hypergraph reduction",
    )
    # the full parser's "argument command:" errors read the dest, not a metavar
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (_, help_text, formats, arguments) in _SUBCOMMANDS.items():
        if command is not None and name != command:
            continue
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--in", dest="input", required=True,
                         help="path, inline text, or - for stdin")
        sub.add_argument("--out", dest="out", default=None, help="output path")
        sub.add_argument("--input-format", choices=INPUT_FORMATS, default=None)
        sub.add_argument("--output-format", choices=formats, default="json")
        for flag, options in arguments:
            sub.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the full parser only where its output lists the other subcommands:
    # top-level help and an unknown or missing command
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    parser = build_parser(command)
    args = parser.parse_args(argv)
    try:
        kind, obj = _load(_read_input(args.input), args.input_format)
        _emit(_SUBCOMMANDS[args.command][0](args, kind, obj), args.out)
    except UsageError as exc:
        parser.error(str(exc))
    except DOMAIN_ERRORS + (json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
