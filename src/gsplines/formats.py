"""JSON schemas and text renderers for graphs, bases, reports.

Graph files look like::

    { "ring": {"kind": "Int" | "ModInt" | "PolyQ",
               "modulus"?: n, "variables"?: ["x","y"], "inverted"?: ["3","x-3"]},
      "vertices": ["u","v","w"],
      "edges": [ {"ends": ["u","v"], "label": {"factors": [["3",1],["2",1]]}},
                 {"ends": ["v","w"], "label": {"zero": true}} ] }

Factor strings parse under the polynomial grammar (decimal strings for
integer rings); composite integer factor strings are split into their prime
factors.  Certificate opens live in a separate file::

    { "opens": [ {"name": "U1", "invert": ["x-3", "x-5"]} ] }

Each factor text is parsed once per ring object that a loader builds: its
``Factor``s are kept on the ring (``RingDescriptor.parsed_factors``), so a
graph's labels, opens read with ``opens_from_json(obj, g.ring)`` and an
``--invert`` list read with ``factor_list(texts, g.ring, ...)`` share one
parse of each text.  Nothing is cached across documents or commands:
``graph_from_json`` builds a new ring for every document.  A text that
fails is not kept, and its error names where the text sat: ``edges[i]``,
``'ring.inverted'``, ``opens[i].invert`` or ``--invert``.

All emitted text is UTF-8 with LF line endings and byte-stable across runs.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from typing import Dict, Sequence, Tuple

from .certificates import BasicOpen, CertificateReport, CoverStatus
from .errors import InputError, SchemaError
from .graphs import EdgeLabeledGraph, RestrictionOutcome, normalize
from .modules import LeafPullback, LimitTrace, SplineModule, work_ring
from .parsing import parse_element
from .rings import (
    INT,
    MODINT,
    POLYQ,
    Factor,
    FactoredElement,
    RingDescriptor,
    RingElement,
    factored_from_residue,
    format_element,
    format_factored,
    integer_factors,
    lcm_factors,
    make_factor,
)
from .spectrum import SpectrumDiff, SpectrumReport


# ---------------------------------------------------------------------------
# schema helpers


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _unknown_fields(obj: dict, allowed: Sequence[str], where: str) -> SchemaError:
    return SchemaError(f"unknown field(s) {sorted(set(obj) - set(allowed))} in {where}")


def _only_keys(obj: dict, allowed: Sequence[str], where: str) -> None:
    if not obj.keys() <= set(allowed):
        raise _unknown_fields(obj, allowed, where)


def parse_factor_text(text: str, ring: RingDescriptor) -> Tuple[Factor, ...]:
    """One factor string into canonical ``Factor``s.

    Integer strings may be composite; they are split into primes so the
    factored-form invariants hold.  Polynomial strings must be irreducible
    (checked for univariate degree <= 3, declared otherwise).
    """
    element = parse_element(text, ring.base())
    if ring.kind == INT:
        return integer_factors(element, ring)
    return (make_factor(element, ring),)


def _parsed(text: str, ring: RingDescriptor) -> Tuple[Factor, ...]:
    """``parse_factor_text(text, ring)``, parsed once per ring object: the
    result is kept in ``ring.parsed_factors``.  A text that fails is not
    kept, so each occurrence of it raises."""
    factors = ring.parsed_factors.get(text)
    if factors is None:
        factors = ring.parsed_factors[text] = parse_factor_text(text, ring)
    return factors


def factor_list(texts: Sequence[str], ring: RingDescriptor, where: str) -> Tuple[Factor, ...]:
    """``rings.lcm_factors`` of the texts' factors, each text checked as it
    is parsed; a text that fails names ``where`` it sat."""

    def factors(text):
        _expect(isinstance(text, str), f"{where} entries must be strings")
        try:
            return _parsed(text, ring)
        except InputError as err:
            err.args = (f"{where}: {err}",)
            raise

    return lcm_factors(f for text in texts for f in factors(text))


# ---------------------------------------------------------------------------
# ring descriptors


def ring_from_json(obj: dict) -> RingDescriptor:
    _expect(isinstance(obj, dict), "'ring' must be an object")
    _only_keys(obj, ("kind", "modulus", "variables", "inverted"), "'ring'")
    kind = obj.get("kind")
    _expect(kind in (INT, MODINT, POLYQ), f"'ring.kind' must be one of Int, ModInt, PolyQ, got {kind!r}")
    if kind == MODINT:
        modulus = obj.get("modulus")
        _expect(isinstance(modulus, int) and modulus >= 2, "'ring.modulus' must be an integer >= 2")
        _expect("inverted" not in obj, "'ring.inverted' is not allowed for ModInt")
        _expect("variables" not in obj, "'ring.variables' is not allowed for ModInt")
        return RingDescriptor.residues(modulus)
    if kind == POLYQ:
        variables = obj.get("variables")
        _expect(
            isinstance(variables, list) and variables and all(isinstance(v, str) for v in variables),
            "'ring.variables' must be a nonempty list of names",
        )
        ring = RingDescriptor.rational_polynomials(*variables)
    else:
        _expect("variables" not in obj, "'ring.variables' is not allowed for Int")
        _expect("modulus" not in obj, "'ring.modulus' is not allowed for Int")
        ring = RingDescriptor.integers()
    inverted = obj.get("inverted", [])
    _expect(isinstance(inverted, list), "'ring.inverted' must be a list of strings")
    if inverted:
        ring = ring.localize(factor_list(inverted, ring, "'ring.inverted'"))
    return ring


def ring_to_json(ring: RingDescriptor) -> dict:
    out: dict = {"kind": ring.kind}
    if ring.kind == MODINT:
        out["modulus"] = ring.modulus
    if ring.kind == POLYQ:
        out["variables"] = list(ring.variables)
    if ring.inverted:
        out["inverted"] = [format_element(f.element, ring.base()) for f in ring.inverted]
    return out


# ---------------------------------------------------------------------------
# graphs


# Checked once per edge, so their error texts are built only on failure.
_EDGE_KEYS = frozenset(("ends", "label"))
_LABEL_KEYS = frozenset(("factors", "zero"))


def _label_from_json(obj: dict, ring: RingDescriptor, i: int) -> FactoredElement:
    if not isinstance(obj, dict):
        raise SchemaError(f"edges[{i}]: 'label' must be an object")
    if not obj.keys() <= _LABEL_KEYS:
        raise _unknown_fields(obj, _LABEL_KEYS, f"edges[{i}]")
    if obj.get("zero"):
        if "factors" in obj:
            raise SchemaError(f"edges[{i}]: a zero label carries no factors")
        return FactoredElement.zero()
    factors = obj.get("factors")
    if not isinstance(factors, list):
        raise SchemaError(f"edges[{i}]: 'label.factors' must be a list")
    merged: Dict[RingElement, Factor] = {}
    value = 1
    for item in factors:
        if not (
            isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)
            and isinstance(item[1], int) and item[1] >= 1
        ):
            raise SchemaError(f"edges[{i}]: each factor must be [\"text\", multiplicity]")
        text, mult = item
        try:
            if ring.kind == MODINT:
                n = ring.modulus
                value = value * pow(parse_element(text, ring).value, mult, n) % n
                continue
            parsed = _parsed(text, ring)
        except InputError as err:
            err.args = (f"edges[{i}]: {err}",)
            raise
        for f in parsed:
            # A factor that keeps its parsed multiplicity is the memo's own object.
            old = merged.get(f.element)
            if old is not None or mult != 1:
                m = f.multiplicity * mult + (0 if old is None else old.multiplicity)
                f = Factor(f.element, m, f.irreducibility)
            merged[f.element] = f
    if ring.kind == MODINT:
        return factored_from_residue(value, ring)
    return FactoredElement(tuple(merged.values()))


def graph_from_json(obj: dict) -> EdgeLabeledGraph:
    _expect(isinstance(obj, dict), "the graph document must be a JSON object")
    _only_keys(obj, ("ring", "vertices", "edges"), "the graph document")
    _expect("ring" in obj, "missing 'ring'")
    _expect("vertices" in obj, "missing 'vertices'")
    ring = ring_from_json(obj["ring"])
    vertices = obj["vertices"]
    _expect(
        isinstance(vertices, list) and all(isinstance(v, str) for v in vertices),
        "'vertices' must be a list of names",
    )
    raw_edges = obj.get("edges", [])
    _expect(isinstance(raw_edges, list), "'edges' must be a list")
    edges = []
    for i, e in enumerate(raw_edges):
        if not isinstance(e, dict):
            raise SchemaError(f"edges[{i}] must be an object")
        if not e.keys() <= _EDGE_KEYS:
            raise _unknown_fields(e, _EDGE_KEYS, f"edges[{i}]")
        ends = e.get("ends")
        if not (
            isinstance(ends, list) and len(ends) == 2
            and isinstance(ends[0], str) and isinstance(ends[1], str)
        ):
            raise SchemaError(f"edges[{i}]: 'ends' must be a pair of vertex names")
        if "label" not in e:
            raise SchemaError(f"edges[{i}]: missing 'label'")
        label = _label_from_json(e["label"], ring, i)
        edges.append((ends[0], ends[1], label))
    return normalize(ring, vertices, edges)


def _label_to_json(label: FactoredElement, ring: RingDescriptor) -> dict:
    if label.is_zero:
        return {"zero": True}
    return {
        "factors": [
            [format_element(f.element, ring.base()), f.multiplicity]
            for f in label.factors
        ]
    }


def graph_to_json(g: EdgeLabeledGraph) -> dict:
    return {
        "ring": ring_to_json(g.ring),
        "vertices": list(g.vertices),
        "edges": [
            {"ends": [e.a, e.b], "label": _label_to_json(e.label, g.ring)}
            for e in g.edges
        ],
    }


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise SchemaError(f"{path} is not valid JSON: {err}") from None
        except ValueError as err:  # bytes that are not UTF-8, an integer past the digit limit
            raise SchemaError(str(err)) from None


def load_graph(path: str) -> EdgeLabeledGraph:
    return graph_from_json(_read_json(path))


def render_graph_text(g: EdgeLabeledGraph) -> str:
    ring = g.ring
    head = ring.kind
    if ring.kind == MODINT:
        head = f"ModInt({ring.modulus})"
    if ring.kind == POLYQ:
        head = f"PolyQ({', '.join(ring.variables)})"
    if ring.inverted:
        inv = ", ".join(format_element(f.element, ring.base()) for f in ring.inverted)
        head += f" localized at {{{inv}}}"
    lines = [f"ring: {head}", f"vertices: {' '.join(g.vertices)}", "edges:"]
    for e in g.edges:
        lines.append(f"  {e.a}-{e.b}: {format_factored(e.label, ring)}")
    if not g.edges:
        lines.append("  (none)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# bases and traces


def basis_to_json(module: SplineModule) -> dict:
    ring = module.graph.ring
    return {
        "vertexOrder": list(module.vertex_order),
        "basis": [
            {v: format_element(x, ring) for v, x in zip(module.vertex_order, row)}
            for row in module.rows
        ],
    }


def format_matrix(module: SplineModule) -> str:
    """The module's rows, each column right-aligned to its widest entry."""
    ring = module.graph.ring
    cells = [[format_element(x, ring) for x in row] for row in module.rows]
    if not cells:
        return "(zero module)"
    widths = [max(len(row[j]) for row in cells) for j in range(len(module.vertex_order))]
    lines = []
    for row in cells:
        padded = " ".join(c.rjust(w) for c, w in zip(row, widths))
        lines.append(f"[ {padded} ]")
    return "\n".join(lines)


def render_basis_text(module: SplineModule) -> str:
    header = f"vertex order: {' '.join(module.vertex_order)}"
    return header + "\n" + format_matrix(module)


def render_trace_text(g, trace: LimitTrace) -> str:
    """The trace's steps; labels print over ``g.ring``, step rows over the
    work ring the steps computed in (``Int`` for a residue ring).

    The rows are ``trace.matrices_after()``, each step's rows from one
    forward pass in ``modules``; this function only formats them.
    """
    ring = g.ring
    work = work_ring(ring)
    lines = [f"start: {trace.start_vertex}"]
    for step, rows in zip(trace.steps, trace.matrices_after()):
        if isinstance(step, LeafPullback):
            head = f"leaf-pullback: {step.new_vertex} attached to {step.attach_vertex}"
        else:
            head = f"edge-equalizer: {step.u} ~ {step.v}"
        lines.append(f"{head} via {format_factored(step.label, ring)}")
        for row in rows:
            cells = " ".join(format_element(x, work) for x in row)
            lines.append(f"  [ {cells} ]")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# restriction outcomes


def classification_to_json(outcome: RestrictionOutcome) -> dict:
    c = outcome.classification
    out: dict = {"kind": c.kind}
    if c.kind == "DeterminedByCycle":
        out["cycle"] = list(c.cycle)
    return out


def restriction_to_json(outcome: RestrictionOutcome) -> dict:
    return {
        "graph": graph_to_json(outcome.graph),
        "trivializedEdges": [[e.a, e.b] for e in outcome.trivialized_edges],
        "classification": classification_to_json(outcome),
    }


def render_restriction_text(outcome: RestrictionOutcome) -> str:
    lines = [render_graph_text(outcome.graph)]
    lines.append("trivialized edges:")
    if outcome.trivialized_edges:
        for e in outcome.trivialized_edges:
            lines.append(f"  {e.a}-{e.b}")
    else:
        lines.append("  (none)")
    lines.append(f"classification: {outcome.classification}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# spectrum reports


def spectrum_to_json(report: SpectrumReport) -> dict:
    ring = report.ring
    return {
        "fibers": {
            format_element(p, ring.base()): [list(c) for c in report.fibers[p]]
            for p in report.relevant_primes
        },
        "holeCount": report.hole_count,
        "components": report.components,
    }


def render_spectrum_text(report: SpectrumReport) -> str:
    ring = report.ring
    if report.relevant_primes:
        names = ", ".join(format_element(p, ring.base()) for p in report.relevant_primes)
    else:
        names = "(none)"
    lines = [f"relevant factors: {names}"]
    for p in report.relevant_primes:
        classes = " ".join("{" + ", ".join(c) + "}" for c in report.fibers[p])
        lines.append(f"fiber at {format_element(p, ring.base())}: {classes}")
    plural = "point" if report.generic_points == 1 else "points"
    lines.append(f"generic fiber: {report.generic_points} {plural}")
    for a, b in report.fully_glued_pairs:
        lines.append(f"fully glued pair: {a}-{b}")
    lines.append(f"components: {report.components}")
    lines.append(f"holeCount: {report.hole_count}")
    return "\n".join(lines)


def render_diff_text(diff: SpectrumDiff) -> str:
    return "\n".join(diff.narrative)


def diff_to_json(diff: SpectrumDiff) -> dict:
    return {
        "before": spectrum_to_json(diff.before),
        "after": spectrum_to_json(diff.after),
        "narrative": list(diff.narrative),
    }


# ---------------------------------------------------------------------------
# certificate opens and reports


def opens_from_json(obj: dict, ring: RingDescriptor) -> Tuple[BasicOpen, ...]:
    _expect(isinstance(obj, dict), "the opens document must be a JSON object")
    _only_keys(obj, ("opens",), "the opens document")
    raw = obj.get("opens")
    _expect(isinstance(raw, list) and raw, "'opens' must be a nonempty list")
    out = []
    for i, o in enumerate(raw):
        where = f"opens[{i}]"
        _expect(isinstance(o, dict), f"{where} must be an object")
        _only_keys(o, ("name", "invert"), where)
        name = o.get("name")
        _expect(isinstance(name, str) and name, f"{where}: 'name' must be a nonempty string")
        invert = o.get("invert")
        _expect(
            isinstance(invert, list) and invert,
            f"{where}: 'invert' must be a nonempty list of factor strings",
        )
        out.append(BasicOpen(name, factor_list(invert, ring, f"{where}.invert")))
    return tuple(out)


def load_opens(path: str, ring: RingDescriptor) -> Tuple[BasicOpen, ...]:
    return opens_from_json(_read_json(path), ring)


def cover_to_json(cover: CoverStatus, ring: RingDescriptor) -> dict:
    out: dict = {"status": cover.status}
    if cover.common_factor is not None:
        out["commonFactor"] = format_element(cover.common_factor, ring.base())
    if cover.detail:
        out["detail"] = cover.detail
    return out


def certificate_to_json(report: CertificateReport, ring: RingDescriptor) -> dict:
    return {
        "perOpen": {
            name: {
                "classification": classification_to_json(outcome),
                "trivializedEdges": [[e.a, e.b] for e in outcome.trivialized_edges],
                "survivingEdges": [[e.a, e.b] for e in outcome.graph.edges],
            }
            for name, outcome in report.per_open
        },
        "coverStatus": cover_to_json(report.cover, ring),
        "verdict": report.verdict,
        "notes": list(report.notes),
    }


def render_cover_text(cover: CoverStatus) -> str:
    line = f"cover status: {cover.status}"
    if cover.status == "FailsToCover" and cover.detail:
        line += f" (common factor {cover.detail})"
    elif cover.detail:
        line += f" ({cover.detail})"
    return line


def render_certificate_text(report: CertificateReport) -> str:
    lines = []
    for name, outcome in report.per_open:
        kind = str(outcome.classification)
        lines.append(
            f"open {name}: {kind}; trivialized {len(outcome.trivialized_edges)} edge(s),"
            f" {len(outcome.graph.edges)} left"
        )
    lines.append(render_cover_text(report.cover))
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON


def dump_json(obj: dict) -> str:
    """``obj`` as JSON: the same bytes as ``json.dumps(obj, indent=2,
    ensure_ascii=False)``.

    Strings and keys go through ``encode_basestring``, the C function the
    standard encoder calls; other scalars through ``json.dumps``.  With an
    indent the standard library runs its pure-Python encoder, whose nested
    closures leave a reference cycle per call; this writer is plain
    recursion and creates none.
    """
    return _json_value(obj, "\n")


def _json_value(obj, newline: str) -> str:
    kind = type(obj)
    if kind is not dict and kind is not list and kind is not tuple:
        if isinstance(obj, str):
            return encode_basestring(obj)
        if not isinstance(obj, (dict, list, tuple)):
            return json.dumps(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{encode_basestring(k) if type(k) is str else _json_key(k)}: "
            f"{encode_basestring(v) if type(v) is str else _json_value(v, inner)}"
            for k, v in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if not obj:
        return "[]"
    items = [encode_basestring(v) if type(v) is str else _json_value(v, inner) for v in obj]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _json_key(key) -> str:
    """A key as ``json.dumps`` writes it: numbers, booleans and ``None``
    become their JSON text, quoted."""
    if isinstance(key, str):
        return encode_basestring(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
