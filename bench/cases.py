"""One benchmark case per document, shaped like the CLI commands it mirrors,
and the oracles that check each case's outputs outside the timed region.

A case calls the same public functions as the ``cmd_*`` handlers of
``gsplines.cli``; every call into a layer goes through ``Tracer.call`` under
a ``<layer>.<fn>`` name.  A case returns its outputs; ``check`` compares them
with oracles that do not trust the code path being timed.

The layers are the package's modules:

* ``formats`` - parse and normalize on load (``parsing`` runs inside it) and
  rendering;
* ``graphs`` - ``reduce_mod``, ``restrict``, ``contract_edge`` (``edit``);
* ``modules`` - the solvers, replay, brute force, ``spline_set``,
  ``gkm_check`` and ``membership``;
* ``spectrum`` and ``certificates``.

``rings`` has no entry point of its own on any case path, and ``cli`` is
argparse dispatch only.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import gsplines
from gsplines import formats

# Failure kinds.  A cover status that contradicts the ideal-theoretic truth
# over two or more variables is the known unsound heuristic of
# ``check_cover``; every other kind means the program is wrong or too slow.
COVER_MULTIVARIATE = "cover-misreport-multivariate"


def load_graph_text(text: str):
    """What ``formats.load_graph`` does after reading the file."""
    return formats.graph_from_json(json.loads(text))


def _load_basis(doc):
    g = load_graph_text(doc["graph"])
    values = {v: gsplines.parse_element(t, g.ring) for v, t in doc["labeling"].items()}
    return g, gsplines.Spline(g, values)


def _render_basis(module) -> str:
    return formats.dump_json(formats.basis_to_json(module))


# ---------------------------------------------------------------------------
# cases


def basis_case(tr, doc) -> dict:
    """``gsplines basis`` (direct and ``--incremental``), then replay, the GKM
    check of every basis row and a membership query."""
    g, labeling = tr.call("formats.load", _load_basis, doc)
    direct = tr.call("modules.solve_direct", gsplines.solve_direct, g)
    incremental, traces = tr.call("modules.incremental", gsplines.incremental_assembled, g)
    replayed = [tr.call("modules.replay", gsplines.replay_trace, g, t) for t in traces]
    rows_ok = [tr.call("modules.gkm_check", gsplines.gkm_check, g, s) for s in direct.basis]
    member = tr.call("modules.membership", gsplines.membership, direct, labeling)
    labeling_ok = tr.call("modules.gkm_check", gsplines.gkm_check, g, labeling)
    rendered = tr.call("formats.render", _render_basis, direct)
    return {
        "graph": g, "labeling": labeling, "direct": direct, "incremental": incremental,
        "traces": traces, "replayed": replayed, "rows_ok": rows_ok,
        "member": bool(member), "labeling_ok": labeling_ok, "rendered": rendered,
    }


def verify_case(tr, doc) -> dict:
    """``gsplines verify --mod n``: brute force against the span of the
    direct and of the incremental basis."""
    g = tr.call("formats.load", load_graph_text, doc["graph"])
    gn = tr.call("graphs.reduce_mod", gsplines.reduce_mod, g, doc["mod"])
    brute = tr.call("modules.bruteforce", gsplines.enumerate_bruteforce, gn)
    brute_set = frozenset(tuple(x.value for x in s.value_tuple(gn.vertices)) for s in brute)
    direct = tr.call("modules.solve_direct", gsplines.solve_direct, gn)
    direct_set = tr.call("modules.spline_set", gsplines.spline_set, direct)
    incremental = tr.call("modules.incremental", gsplines.incremental_assembled, gn)[0]
    incremental_set = tr.call("modules.spline_set", gsplines.spline_set, incremental)
    return {
        "reduced": gn, "brute": brute_set, "direct": direct, "direct_set": direct_set,
        "incremental": incremental, "incremental_set": incremental_set,
    }


def _load_certify(doc):
    g = load_graph_text(doc["graph"])
    opens = formats.opens_from_json(json.loads(doc["opens"]), g.ring)
    invert = formats.factor_list(doc["invert"], g.ring, "--invert")
    return g, opens, invert


def _render_cover(cover, ring) -> str:
    return formats.dump_json(formats.cover_to_json(cover, ring))


def _render_certificate(report, ring) -> str:
    return formats.render_certificate_text(report) + formats.dump_json(
        formats.certificate_to_json(report, ring)
    )


def _render_graph_diff(after, diff) -> str:
    return formats.render_graph_text(after) + "\n" + formats.render_diff_text(diff)


def certify_case(tr, doc) -> dict:
    """``restrict --invert``, ``cover``, ``certify``, ``spectrum`` and
    ``contract --emit-diff`` on one graph, plus the base-change check of the
    same restriction."""
    g, opens, invert = tr.call("formats.load", _load_certify, doc)
    outcome = tr.call("graphs.restrict", gsplines.restrict, g, invert)
    tr.call("formats.render", formats.render_restriction_text, outcome)
    base_change = tr.call("spectrum.base_change", gsplines.base_change_commutes, g, invert)
    cover = tr.call("certificates.cover", gsplines.check_cover, g.ring, opens)
    tr.call("formats.render", _render_cover, cover, g.ring)
    report = tr.call("certificates.certify", gsplines.verify_certificate, g, opens)
    tr.call("formats.render", _render_certificate, report, g.ring)
    spectrum = tr.call("spectrum.report", gsplines.spectrum_report, g)
    tr.call("formats.render", formats.render_spectrum_text, spectrum)
    u, v = doc["contract"]
    after = tr.call("graphs.edit", gsplines.contract_edge, g, u, v)
    diff = tr.call("spectrum.diff", gsplines.spectrum_diff, g, after)
    tr.call("formats.render", _render_graph_diff, after, diff)
    return {
        "graph": g, "outcome": outcome, "base_change": base_change, "cover": cover,
        "report": report, "spectrum": spectrum, "after": after, "diff": diff,
    }


CASES = {
    "int-basis": basis_case,
    "poly-basis": basis_case,
    "verify-mod": verify_case,
    "certify-spectrum": certify_case,
}


def load_all(workload: str, docs) -> None:
    """Parse and normalize every distinct document once (part of set-up)."""
    seen = set()
    for doc in docs:
        key = (doc["graph"], doc.get("opens"), json.dumps(doc.get("labeling")))
        if key in seen:
            continue
        seen.add(key)
        if workload in ("int-basis", "poly-basis"):
            _load_basis(doc)
        elif workload == "verify-mod":
            load_graph_text(doc["graph"])
        else:
            _load_certify(doc)


# ---------------------------------------------------------------------------
# independent arithmetic for the oracles


def _prime_factors(n: int) -> List[int]:
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_at(p, r: Fraction) -> Fraction:
    return sum((c * r ** e[0] for e, c in p.terms), Fraction(0))


def _root_of_linear(text: str) -> Fraction:
    # Labels in poly-basis are "x", "x-r" or "x+r".
    if text == "x":
        return Fraction(0)
    return Fraction(int(text[1:])) * -1


def _label_divides(doc_edge, diff, kind: str) -> bool:
    factors = [t for t, _ in doc_edge["label"]["factors"]]
    if kind == "Int":
        m = 1
        for t in factors:
            m *= int(t)
        return diff % m == 0
    # Distinct linear factors x - r: divisibility means a root at every r.
    return all(_poly_at(diff, _root_of_linear(t)) == 0 for t in set(factors))


def _gkm_by_hand(doc_graph: dict, values: Dict[str, object]) -> bool:
    kind = doc_graph["ring"]["kind"]
    return all(
        _label_divides(e, values[e["ends"][0]] - values[e["ends"][1]], kind)
        for e in doc_graph["edges"]
    )


def _entry_size(x) -> Tuple[int, int]:
    """(bits, degree) of a basis entry."""
    if isinstance(x, int):
        return abs(x).bit_length(), 0
    bits = 0
    for _, c in x.terms:
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits, max(x.degree, 0)


def _single_cycle(vertices, edges) -> bool:
    """Whether the edges form exactly one cycle through >= 3 vertices."""
    if not edges:
        return False
    degree: Dict[str, int] = {}
    adj: Dict[str, List[str]] = {}
    for a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if len(degree) < 3 or any(d != 2 for d in degree.values()) or len(edges) != len(degree):
        return False
    start = next(iter(adj))
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(degree)


def _components(vertices, pairs) -> int:
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in pairs:
        parent[find(a)] = find(b)
    return len({find(v) for v in vertices})


def _doc_factor_keys(text: str, kind: str) -> List[str]:
    if kind == "Int":
        return [str(p) for p in sorted(set(_prime_factors(int(text))))]
    return [text]


# ---------------------------------------------------------------------------
# oracles


class Verdict:
    """Outcome of checking one case."""

    __slots__ = ("ok", "kind", "reason")

    def __init__(self, ok: bool, kind: str = "", reason: str = ""):
        self.ok, self.kind, self.reason = ok, kind, reason


OK = Verdict(True)


def check_basis(doc, out) -> Verdict:
    g, direct, incremental = out["graph"], out["direct"], out["incremental"]
    doc_graph = json.loads(doc["graph"])
    n = len(doc_graph["vertices"])
    if direct.rows != incremental.rows:
        return Verdict(False, "mismatch", "direct and incremental bases differ")
    for trace, replayed in zip(out["traces"], out["replayed"]):
        built = trace.steps[-1].vertices_after if trace.steps else (trace.start_vertex,)
        gens = [gsplines.Spline(g, dict(zip(built, row))) for row in replayed]
        again = gsplines.flow_up_normalize(gens, g.vertices, g)
        if again.rows != direct.rows:
            return Verdict(False, "mismatch", "replayed trace differs from the direct basis")
    if direct.rank != n:
        return Verdict(False, "mismatch", f"rank {direct.rank}, expected {n}")
    if not all(out["rows_ok"]):
        return Verdict(False, "mismatch", "gkm_check rejects a basis row")
    for row in direct.rows:
        if not _gkm_by_hand(doc_graph, dict(zip(direct.vertex_order, row))):
            return Verdict(False, "mismatch", "a basis row breaks an edge congruence")
    truth = _gkm_by_hand(doc_graph, out["labeling"].values)
    if out["labeling_ok"] != truth:
        return Verdict(False, "mismatch", "gkm_check disagrees on the labeling")
    if out["member"] != truth:
        return Verdict(False, "mismatch", "membership disagrees with the congruence check")
    if doc["member"] and not out["member"]:
        return Verdict(False, "mismatch", "a planted spline is not a member")
    if len(json.loads(out["rendered"])["basis"]) != n:
        return Verdict(False, "mismatch", "rendered basis has the wrong size")
    return OK


def check_verify(doc, out) -> Verdict:
    if not out["brute"] == out["direct_set"] == out["incremental_set"]:
        return Verdict(
            False, "mismatch",
            f"brute force {len(out['brute'])}, direct {len(out['direct_set'])},"
            f" incremental {len(out['incremental_set'])}",
        )
    return OK


def cover_is_wrong(truth: str, status: str) -> bool:
    """Inconclusive is undecided, never wrong."""
    return (truth == "Covers" and status == "FailsToCover") or (
        truth == "NotCovers" and status == "Covers"
    )


def check_certify(doc, out, truth: str) -> Verdict:
    doc_graph = json.loads(doc["graph"])
    ring = doc_graph["ring"]
    kind = ring["kind"]
    nvars = len(ring.get("variables", []))
    status = out["cover"].status
    if cover_is_wrong(truth, status):
        wrong_kind = COVER_MULTIVARIATE if nvars >= 2 else "cover-misreport"
        return Verdict(False, wrong_kind, f"cover status {status}, truth {truth}")
    report = out["report"]
    if report.cover.status != status:
        return Verdict(False, "mismatch", "certify and cover disagree on the cover status")
    good = all(o.classification.kind in ("Trivial", "DeterminedByCycle") for _, o in report.per_open)
    eligible = kind == "Int" or nvars <= 2
    expected = "FREE" if (status == "Covers" and good and eligible) else "UNKNOWN"
    if report.verdict != expected:
        return Verdict(False, "mismatch", f"verdict {report.verdict}, expected {expected}")
    # Restriction: an edge is trivialized when every factor is inverted.
    inverted = {k for t in doc["invert"] for k in _doc_factor_keys(t, kind)}
    kept, trivial = [], 0
    for e in doc_graph["edges"]:
        keys = {k for t, _ in e["label"]["factors"] for k in _doc_factor_keys(t, kind)}
        if keys <= inverted:
            trivial += 1
        else:
            kept.append(tuple(e["ends"]))
    outcome = out["outcome"]
    if len(outcome.trivialized_edges) != trivial:
        return Verdict(False, "mismatch", "wrong number of trivialized edges")
    cycle = _single_cycle(doc_graph["vertices"], kept)
    if (outcome.classification.kind == "DeterminedByCycle") != cycle:
        return Verdict(False, "mismatch", f"restriction classified {outcome.classification.kind}")
    if not out["base_change"].commutes:
        return Verdict(False, "mismatch", "restriction does not commute with the report")
    # Spectrum: one gluing link per (edge, distinct factor).
    links = sum(
        len({k for t, _ in e["label"]["factors"] for k in _doc_factor_keys(t, kind)})
        for e in doc_graph["edges"]
    )
    pairs = [tuple(e["ends"]) for e in doc_graph["edges"]]
    comps = _components(doc_graph["vertices"], pairs)
    spectrum = out["spectrum"]
    if spectrum.components != comps or spectrum.hole_count != links - len(doc_graph["vertices"]) + comps:
        return Verdict(False, "mismatch", "spectrum counts differ from the graph's links")
    u, v = doc["contract"]
    if len(out["after"].vertices) != len(doc_graph["vertices"]) - 1:
        return Verdict(False, "mismatch", "contraction did not merge two vertices")
    if out["diff"].narrative[0] != f"operation: contract {u}-{v}":
        return Verdict(False, "mismatch", "diff names the wrong operation")
    return OK


def check(workload: str, doc, out, truth: Optional[str] = None) -> Verdict:
    if workload in ("int-basis", "poly-basis"):
        return check_basis(doc, out)
    if workload == "verify-mod":
        return check_verify(doc, out)
    return check_certify(doc, out, truth)


# ---------------------------------------------------------------------------
# size counters, computed from outputs


def counters(workload: str, out) -> Dict[str, float]:
    """Exact counts of one case's outputs; summed or maxed over a pass."""
    c: Dict[str, float] = {}
    if workload in ("int-basis", "poly-basis"):
        bits = degree = 0
        for row in out["direct"].rows:
            for x in row:
                b, d = _entry_size(x)
                bits, degree = max(bits, b), max(degree, d)
        c["max:modules.basis_max_bits"] = bits
        c["max:modules.basis_max_degree"] = degree
    elif workload == "verify-mod":
        gn = out["reduced"]
        n = gn.ring.modulus
        c["sum:modules.bruteforce.labelings"] = n ** len(gn.vertices)
        c["sum:modules.bruteforce.splines"] = len(out["brute"])
        c["sum:modules.spline_set.tuples"] = n ** out["direct"].rank + n ** out["incremental"].rank
        c["sum:modules.spline_set.distinct"] = len(out["direct_set"]) + len(out["incremental_set"])
    else:
        c["sum:graphs.restrict.trivialized_edges"] = len(out["outcome"].trivialized_edges)
        c["sum:certificates.cover.checks"] = 1
        c["sum:certificates.cover.decided"] = int(out["cover"].status != "Inconclusive")
    return c
