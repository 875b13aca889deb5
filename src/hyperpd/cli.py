"""Command-line front end.

Every subcommand reads one object (ideal, hypergraph, or lattice),
converts as needed, and emits deterministic JSON, DOT, or text.
Domain failures exit 1 with a JSON error on stderr; usage problems
exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .betti import OracleError, betti_table, betti_table_from_lattice, oracle_pd
from .hypergraphs import (
    Hypergraph,
    HypergraphError,
    classify_shape,
    dual_hypergraph,
    hypergraph_from_json_dict,
    ideal_from_hypergraph,
    is_separated,
)
from .ideals import IdealError, MonomialIdeal, ideal_from_json_dict, parse_ideal
from .lattices import (
    LatticeError,
    SetFamilyLattice,
    coordinatize,
    hypergraph_coordinatization,
    labeling_from_json_dict,
    labeling_to_json_dict,
    lattice_from_hypergraph,
    lattice_from_json_dict,
    lcm_lattice,
)
from .pd import PdError, pd
from .reduction import ReductionError, check_preconditions, full_reduce, remove_union_edges

DOMAIN_ERRORS = (
    IdealError,
    HypergraphError,
    LatticeError,
    OracleError,
    ReductionError,
    PdError,
)

INPUT_FORMATS = ("ideal-text", "ideal-json", "hypergraph-json", "lattice-json")
OUTPUT_FORMATS = ("json", "dot", "text")


class UsageError(Exception):
    pass


def _read_input(value: str) -> str:
    if value == "-":
        return sys.stdin.read()
    if os.path.isfile(value):
        with open(value) as fh:
            return fh.read()
    return value


def _sniff_format(text: str) -> str:
    stripped = text.lstrip()
    if not stripped.startswith("{"):
        return "ideal-text"
    data = json.loads(stripped)
    if "generators" in data:
        return "ideal-json"
    if "edges" in data:
        return "hypergraph-json"
    if "elements" in data:
        return "lattice-json"
    raise UsageError("cannot tell what kind of object the JSON input is")


def _load(text: str, fmt: str | None):
    """Returns (kind, object) with kind in ideal/hypergraph/lattice."""
    fmt = fmt or _sniff_format(text)
    if fmt == "ideal-text":
        return "ideal", parse_ideal(text)
    data = json.loads(text)
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


def _as_ideal(kind: str, obj) -> MonomialIdeal:
    if kind == "ideal":
        return obj
    if kind == "hypergraph":
        return ideal_from_hypergraph(obj)
    raise UsageError(f"{kind} input cannot be used as an ideal")


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
    if args.field_char is not None:
        return args.field_char
    raw = os.environ.get("HYPERPD_FIELD_CHAR", "2")
    try:
        return int(raw)
    except ValueError:
        raise OracleError(f"HYPERPD_FIELD_CHAR must be an integer, got {raw!r}")


def _cmd_pd(args) -> str:
    kind, obj = _load(_read_input(args.input), args.input_format)
    H = _as_hypergraph(kind, obj)
    result = pd(H, field_char=_field_char(args))
    if args.trace and result.trace is not None:
        with open(args.trace, "w") as fh:
            fh.write(result.trace.to_jsonl())
    data = result.to_json_dict()
    if args.verify:
        reference = oracle_pd(_as_ideal(kind, obj), char=_field_char(args))
        if reference != result.pd:
            raise PdError(
                f"verification failed: reduction gives pd {result.pd}, "
                f"homology oracle gives {reference}"
            )
        data["oracle_pd"] = reference
        data["verified"] = True
    if args.output_format == "text":
        return f"pd = {result.pd} ({result.method})"
    if args.output_format == "dot":
        raise UsageError("pd has no dot output")
    return _json_text(data)


def _cmd_hypergraph(args) -> str:
    kind, obj = _load(_read_input(args.input), args.input_format)
    H = _as_hypergraph(kind, obj)
    if args.output_format == "dot":
        return H.to_dot()
    if args.output_format == "text":
        shape = classify_shape(H) if len(H.components()) == 1 else None
        lines = [
            f"vertices: {H.mu}",
            f"edges: {' '.join(json.dumps(list(e)) for e in H.edges)}",
            f"separated: {is_separated(H)}",
        ]
        if shape is not None:
            lines.append(f"shape: {shape.kind}")
        return "\n".join(lines)
    return _json_text(H.to_json_dict())


def _cmd_lattice(args) -> str:
    kind, obj = _load(_read_input(args.input), args.input_format)
    if kind == "ideal":
        L = lcm_lattice(obj)
    elif kind == "hypergraph":
        L = lattice_from_hypergraph(obj)
    elif kind == "lattice":
        L = obj
    else:
        L = obj[0]
    if args.output_format == "dot":
        return L.to_dot()
    if args.output_format == "text":
        return f"atoms: {L.num_atoms}\nelements: {len(L)}"
    return _json_text(L.to_json_dict())


def _cmd_reduce(args) -> str:
    kind, obj = _load(_read_input(args.input), args.input_format)
    H = _as_hypergraph(kind, obj)
    if args.strict:
        H, pre_trace = remove_union_edges(H, strict=True)
    else:
        pre_trace = None
    reduced, trace = full_reduce(H)
    if pre_trace is not None:
        pre_trace.extend(trace)
        trace = pre_trace
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


def _cmd_betti(args) -> str:
    kind, obj = _load(_read_input(args.input), args.input_format)
    char = _field_char(args)
    if kind == "lattice":
        table = betti_table_from_lattice(obj, char=char)
    elif kind == "labeling":
        raise UsageError("betti takes an ideal, hypergraph, or bare lattice")
    else:
        table = betti_table(_as_ideal(kind, obj), char=char)
    if args.output_format == "text":
        totals = table.totals()
        row = " ".join(str(totals[i]) for i in sorted(totals))
        return f"total Betti numbers: {row} (pd {table.pd}, char {table.field_char})"
    if args.output_format == "dot":
        raise UsageError("betti has no dot output")
    return _json_text(table.to_json_dict(include_entries=args.entries))


def _cmd_coordinatize(args) -> str:
    kind, obj = _load(_read_input(args.input), args.input_format)
    if kind == "hypergraph":
        labeling, ideal = hypergraph_coordinatization(obj)
        lattice = lattice_from_hypergraph(obj)
    elif kind == "labeling":
        lattice, labeling = obj
        ideal = coordinatize(lattice, labeling)
    elif kind == "lattice":
        raise UsageError("coordinatize needs labels on the lattice elements")
    else:
        raise UsageError("coordinatize takes a labeled lattice or a hypergraph")
    if args.output_format == "text":
        return ideal.to_text()
    if args.output_format == "dot":
        raise UsageError("coordinatize has no dot output")
    return _json_text(
        {
            "ideal": ideal.to_json_dict(),
            "text": ideal.to_text(),
            "labeling": labeling_to_json_dict(lattice, labeling),
        }
    )


def _cmd_check(args) -> str:
    kind, obj = _load(_read_input(args.input), args.input_format)
    if kind in ("lattice", "labeling"):
        # Only the lattice-side check applies; there is no hypergraph to test.
        lattice = obj[0] if kind == "labeling" else obj
        data = {"remark22": lattice.check_remark22(), "elements": len(lattice)}
        if args.output_format == "text":
            return f"remark22: {data['remark22']}\nelements: {data['elements']}"
        if args.output_format == "dot":
            raise UsageError("check has no dot output")
        return _json_text(data)
    H = _as_hypergraph(kind, obj)
    pre = check_preconditions(H)
    components = [
        {"vertices": [int(v) for v in comp.vertices], "kind": classify_shape(comp).kind}
        for comp in H.components()
    ]
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
        "components": components,
    }
    if remark22_note is not None:
        data["remark22_note"] = remark22_note
    if args.output_format == "text":
        lines = [f"ready: {pre.all_ok}", f"separated: {data['separated']}"]
        for name in ("bush", "higher_edges_same_joint", "no_connected_closed"):
            mark = "ok" if getattr(pre, name) else f"FAIL ({pre.witnesses.get(name, '')})"
            lines.append(f"{name}: {mark}")
        if remark22 is None:
            lines.append(f"remark22: skipped ({remark22_note})")
        else:
            lines.append(f"remark22: {remark22}")
        return "\n".join(lines)
    if args.output_format == "dot":
        raise UsageError("check has no dot output")
    return _json_text(data)


_COMMANDS = {
    "pd": _cmd_pd,
    "hypergraph": _cmd_hypergraph,
    "lattice": _cmd_lattice,
    "reduce": _cmd_reduce,
    "betti": _cmd_betti,
    "coordinatize": _cmd_coordinatize,
    "check": _cmd_check,
}


def _add_common(sub: argparse.ArgumentParser, trace: bool = False):
    sub.add_argument("--in", dest="input", required=True,
                     help="path, inline text, or - for stdin")
    sub.add_argument("--out", dest="out", default=None, help="output path")
    sub.add_argument("--input-format", choices=INPUT_FORMATS, default=None)
    sub.add_argument("--output-format", choices=OUTPUT_FORMATS, default="json")
    sub.add_argument("--field-char", type=int, default=None,
                     help="field characteristic (default: HYPERPD_FIELD_CHAR or 2)")
    if trace:
        sub.add_argument("--trace", default=None, help="write a JSONL trace here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperpd",
        description="projective dimension and Betti numbers of square-free "
                    "monomial ideals via dual-hypergraph reduction",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("pd", help="projective dimension of R/I")
    _add_common(p, trace=True)
    p.add_argument("--verify", action="store_true",
                   help="also run the homology oracle and require agreement")

    p = subs.add_parser("hypergraph", help="dual hypergraph of an ideal")
    _add_common(p)

    p = subs.add_parser("lattice", help="lcm-lattice of an ideal or hypergraph")
    _add_common(p)

    p = subs.add_parser("reduce", help="run the reduction pipeline")
    _add_common(p, trace=True)
    p.add_argument("--strict", action="store_true",
                   help="refuse higher edges that are not unions")

    p = subs.add_parser("betti", help="total Betti numbers via lattice homology")
    _add_common(p)
    p.add_argument("--entries", action="store_true",
                   help="include the per-degree breakdown")

    p = subs.add_parser("coordinatize", help="recover an ideal from labels")
    _add_common(p)

    p = subs.add_parser("check", help="report reduction preconditions")
    _add_common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = _COMMANDS[args.command](args)
    except UsageError as exc:
        parser.error(str(exc))
    except DOMAIN_ERRORS as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return 1
    except json.JSONDecodeError as exc:
        payload = {"error": "JSONDecodeError", "message": str(exc)}
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return 1
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
