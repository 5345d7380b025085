"""Command-line interface.

One command per invocation; graphs come from JSON files (see ``formats``).
Exit codes: 0 success, 1 computational failure (unsupported ring, size
guard tripped, an integer beyond the factorization limits), 2 input errors
(parse, schema, missing files, unknown flags, refused values), 3 internal
errors (a broken invariant of the engine, or a ``ValueError`` or
``ZeroDivisionError`` that no input check raised).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import formats
from .certificates import check_cover, verify_certificate
from .errors import ComputationError, InputError, InternalError
from .graphs import contract_edge, delete_edge, delete_vertex, reduce_mod, restrict
from .modules import (
    bruteforce_values,
    incremental_assembled,
    solve_direct,
    spline_set,
)
from .spectrum import spectrum_diff, spectrum_report


def _parse_edge(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"--edge expects 'u,v', got {text!r}")
    return parts[0].strip(), parts[1].strip()


def _emit(args, text_out: str, json_obj) -> None:
    if args.json:
        print(formats.dump_json(json_obj))
    else:
        print(text_out)


def _vertex_order(args):
    if getattr(args, "vertex_order", None):
        return [v.strip() for v in args.vertex_order.split(",")]
    return None


def cmd_basis(args) -> int:
    g = formats.load_graph(args.input)
    order = _vertex_order(args)
    if args.incremental:
        module, traces = incremental_assembled(g, order)
        trace_text = "\n".join(formats.render_trace_text(g, t) for t in traces)
        text = formats.render_basis_text(module) + "\n" + trace_text
        payload = formats.basis_to_json(module)
        payload["trace"] = trace_text.splitlines()
        _emit(args, text, payload)
    else:
        module = solve_direct(g, order)
        _emit(args, formats.render_basis_text(module), formats.basis_to_json(module))
    return 0


def cmd_verify(args) -> int:
    g = formats.load_graph(args.input)
    if g.ring.kind == "Int":
        gn = reduce_mod(g, args.mod)
    elif g.ring.kind == "ModInt" and g.ring.modulus == args.mod:
        gn = g
    else:
        raise InputError("verify needs an integer graph (or a matching residue graph)")
    brute = frozenset(bruteforce_values(gn))
    direct_module = solve_direct(gn)
    incremental_module = incremental_assembled(gn)[0]
    direct = spline_set(direct_module)
    # Equal modules span one set: enumerate it once.
    incremental = (
        direct if incremental_module == direct_module else spline_set(incremental_module)
    )
    agree = brute == direct == incremental
    payload = {
        "modulus": args.mod,
        "bruteForce": len(brute),
        "direct": len(direct),
        "incremental": len(incremental),
        "agree": agree,
    }
    if agree:
        _emit(args, f"brute force = direct = incremental: {len(brute)} splines", payload)
        return 0
    # The paths that disagree with brute force, and the least value tuple on
    # which one of them does, with the side that holds it.
    spans = {"direct": direct, "incremental": incremental}
    paths = [p for p, spanned in spans.items() if spanned != brute]
    witness = min(min(brute ^ spans[p]) for p in paths)
    odd = [p for p in paths if (witness in spans[p]) != (witness in brute)]
    held, missing = (["bruteForce"], odd) if witness in brute else (odd, ["bruteForce"])
    payload["paths"] = paths
    payload["witness"] = {"values": list(witness), "heldBy": held, "missingFrom": missing}
    names = {"bruteForce": "brute force"}
    text = "\n".join(
        [
            "MISMATCH: "
            f"brute force {len(brute)}, direct {len(direct)}, incremental {len(incremental)}",
            f"disagreeing with brute force: {', '.join(paths)}",
            f"witness ({', '.join(gn.vertices)}) = ({', '.join(map(str, witness))}): "
            f"in {' and '.join(names.get(h, h) for h in held)}; "
            f"missing from {' and '.join(names.get(m, m) for m in missing)}",
        ]
    )
    _emit(args, text, payload)
    return 1


def cmd_restrict(args) -> int:
    g = formats.load_graph(args.input)
    factors = formats.factor_list(
        [t.strip() for t in args.invert.split(",") if t.strip()],
        g.ring,
        "--invert",
    )
    outcome = restrict(g, factors)
    _emit(
        args,
        formats.render_restriction_text(outcome),
        formats.restriction_to_json(outcome),
    )
    return 0


def cmd_spectrum(args) -> int:
    g = formats.load_graph(args.input)
    report = spectrum_report(g)
    _emit(args, formats.render_spectrum_text(report), formats.spectrum_to_json(report))
    return 0


def cmd_cover(args) -> int:
    g = formats.load_graph(args.input)
    opens = formats.load_opens(args.opens, g.ring)
    cover = check_cover(g.ring, opens)
    _emit(args, formats.render_cover_text(cover), formats.cover_to_json(cover, g.ring))
    return 0


def cmd_certify(args) -> int:
    g = formats.load_graph(args.input)
    opens = formats.load_opens(args.opens, g.ring)
    report = verify_certificate(g, opens)
    _emit(
        args,
        formats.render_certificate_text(report),
        formats.certificate_to_json(report, g.ring),
    )
    return 0


def _graph_op_output(args, before, after) -> int:
    text = formats.render_graph_text(after)
    payload = formats.graph_to_json(after)
    if args.emit_diff:
        diff = spectrum_diff(before, after)
        text += "\n\nspectrum diff:\n" + formats.render_diff_text(diff)
        payload = {"graph": payload, "diff": formats.diff_to_json(diff)}
    _emit(args, text, payload)
    return 0


def cmd_delete_edge(args) -> int:
    g = formats.load_graph(args.input)
    u, v = _parse_edge(args.edge)
    return _graph_op_output(args, g, delete_edge(g, u, v))


def cmd_delete_vertex(args) -> int:
    g = formats.load_graph(args.input)
    return _graph_op_output(args, g, delete_vertex(g, args.vertex))


def cmd_contract(args) -> int:
    g = formats.load_graph(args.input)
    u, v = _parse_edge(args.edge)
    return _graph_op_output(args, g, contract_edge(g, u, v))


def cmd_diff(args) -> int:
    before = formats.load_graph(args.before)
    after = formats.load_graph(args.after)
    diff = spectrum_diff(before, after)
    _emit(args, formats.render_diff_text(diff), formats.diff_to_json(diff))
    return 0


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit JSON")
    group.add_argument(
        "--text", action="store_true", help="emit plain text (default)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsplines",
        description="Exact spline modules on edge-labeled graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="flow-up basis of the spline module")
    p.add_argument("input")
    p.add_argument("--incremental", action="store_true", help="build edge by edge and print the trace")
    p.add_argument("--vertex-order", help="comma-separated vertex order override")
    _add_format_flags(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("verify", help="cross-check all three computation paths modulo n")
    p.add_argument("input")
    p.add_argument("--mod", type=int, required=True, help="modulus for the residue ring")
    _add_format_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("restrict", help="restrict along a localization")
    p.add_argument("input")
    p.add_argument("--invert", required=True, help="comma-separated factors to invert")
    _add_format_flags(p)
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("spectrum", help="gluing report of the spectrum")
    p.add_argument("input")
    _add_format_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("cover", help="check that opens cover the base spectrum")
    p.add_argument("input")
    p.add_argument("--opens", required=True, help="JSON file of named opens")
    _add_format_flags(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("certify", help="run the local-freeness certificate")
    p.add_argument("input")
    p.add_argument("--opens", required=True, help="JSON file of named opens")
    _add_format_flags(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("delete-edge", help="remove one edge")
    p.add_argument("input")
    p.add_argument("--edge", required=True, help="edge as 'u,v'")
    p.add_argument("--emit-diff", action="store_true", help="append the spectrum diff")
    _add_format_flags(p)
    p.set_defaults(func=cmd_delete_edge)

    p = sub.add_parser("delete-vertex", help="remove one vertex and its edges")
    p.add_argument("input")
    p.add_argument("--vertex", required=True)
    p.add_argument("--emit-diff", action="store_true", help="append the spectrum diff")
    _add_format_flags(p)
    p.set_defaults(func=cmd_delete_vertex)

    p = sub.add_parser("contract", help="contract one edge")
    p.add_argument("input")
    p.add_argument("--edge", required=True, help="edge as 'u,v'")
    p.add_argument("--emit-diff", action="store_true", help="append the spectrum diff")
    _add_format_flags(p)
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("diff", help="spectrum diff of two graph files")
    p.add_argument("before")
    p.add_argument("after")
    _add_format_flags(p)
    p.set_defaults(func=cmd_diff)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ComputationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (InternalError, ValueError, ZeroDivisionError) as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
