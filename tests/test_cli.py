import json
import re

import pytest

from gsplines import InternalError, Residue, SplineModule, parse_element, solve_direct
from gsplines import cli, formats
from gsplines.cli import main
from conftest import fixture_path, unrelated_pairs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TRIANGLE = fixture_path("triangle.json")
PATH = fixture_path("path.json")
HEXCHAIN = fixture_path("hexchain.json")
FOREST = fixture_path("forest.json")
HEXPOLY = fixture_path("hexpoly.json")
HEXPOLY_OPENS = fixture_path("hexpoly_opens.json")
HEXPOLY_WITHOUT_A1_B1 = fixture_path("hexpoly_without_A1_B1.json")
BIGINT_CYCLE = fixture_path("bigint_cycle.json")
BIGCOEF_QX = fixture_path("bigcoef_qx.json")
ZERO_CHORD = fixture_path("zero_chord.json")
ZERO_LABEL_MOD12 = fixture_path("zero_label_mod12.json")
LOCALIZED = fixture_path("localized.json")


def test_basis_triangle_golden(capsys):
    code, out, _ = run(capsys, "basis", TRIANGLE)
    assert code == 0
    assert out == (
        "vertex order: u v w\n"
        "[ 1 1  1 ]\n"
        "[ 0 3 28 ]\n"
        "[ 0 0 35 ]\n"
    )


def test_basis_json_round_trips(capsys):
    code, out, _ = run(capsys, "basis", TRIANGLE, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertexOrder"] == ["u", "v", "w"]
    assert doc["basis"] == [
        {"u": "1", "v": "1", "w": "1"},
        {"u": "0", "v": "3", "w": "28"},
        {"u": "0", "v": "0", "w": "35"},
    ]


def test_basis_prints_integers_of_any_size(capsys):
    # The 5-cycle's labels are 400th powers of primes near 10^6, so its
    # basis has entries past 4,300 digits, where Python's str(int) and
    # int(str) stop by default.  Both outputs print, and the JSON basis
    # parses back to the module.
    code, text, err = run(capsys, "basis", BIGINT_CYCLE)
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "basis", BIGINT_CYCLE, "--json")
    assert (code, err) == (0, "")
    module = solve_direct(formats.load_graph(BIGINT_CYCLE))
    assert text == formats.render_basis_text(module) + "\n"
    doc = json.loads(out)
    assert max(len(x) for row in doc["basis"] for x in row.values()) > 4300
    ring = module.graph.ring
    rows = tuple(tuple(parse_element(row[v], ring) for v in doc["vertexOrder"]) for row in doc["basis"])
    assert (tuple(doc["vertexOrder"]), rows) == (module.vertex_order, module.rows)


def test_basis_of_a_label_with_a_coefficient_of_any_size(capsys):
    # The label x - 11...1 (5,000 ones) has a coefficient past 4,300
    # digits; factor order is keyed on its spelling, and the basis prints.
    code, out, err = run(capsys, "basis", BIGCOEF_QX)
    assert (code, err) == (0, "")
    assert out.splitlines()[2] == "[ 0 x - " + "1" * 5000 + " ]"


def test_basis_incremental_zero_labels_mod_12(capsys):
    # Over Z/12 a zero label is the congruence modulo 12, and every edge
    # enters the walk as its modulus, a divisor of 12.  So the zero chord
    # b ~ c keeps 12 times c's coordinate vector, the zero-label leaf d
    # adjoins 12 times its own, and the trace prints those rows; the basis
    # drops them, as they vanish modulo 12.
    code, out, err = run(capsys, "basis", ZERO_LABEL_MOD12, "--incremental")
    assert (code, err) == (0, "")
    assert out == (
        "vertex order: a b c d\n"
        "[ 1 1 1 1 ]\n"
        "[ 0 6 6 6 ]\n"
        "start: a\n"
        "leaf-pullback: b attached to a via 2\n"
        "  [ 1 1 ]\n"
        "  [ 0 2 ]\n"
        "leaf-pullback: c attached to a via 3\n"
        "  [ 1 1 1 ]\n"
        "  [ 0 2 0 ]\n"
        "  [ 0 0 3 ]\n"
        "edge-equalizer: b ~ c via 0\n"
        "  [ 1 1 1 ]\n"
        "  [ 0 6 6 ]\n"
        "  [ 0 0 12 ]\n"
        "leaf-pullback: d attached to b via 0\n"
        "  [ 1 1 1 1 ]\n"
        "  [ 0 6 6 6 ]\n"
        "  [ 0 0 12 0 ]\n"
        "  [ 0 0 0 12 ]\n"
        "edge-equalizer: c ~ d via 4\n"
        "  [ 1 1 1 1 ]\n"
        "  [ 0 6 6 6 ]\n"
        "  [ 0 0 12 0 ]\n"
        "  [ 0 0 0 12 ]\n"
    )
    code, out, err = run(capsys, "verify", ZERO_LABEL_MOD12, "--mod", "12")
    assert (code, out, err) == (0, "brute force = direct = incremental: 24 splines\n", "")


def test_basis_zero_chord_golden(capsys):
    # The 4-cycle a-b-c-d-a closes with the zero-labeled chord c-d, and
    # the chord b-d is labeled 4.  Both solvers impose the zero chord as an
    # equality, after which no row has a nonzero difference on c and d.  The
    # trace visits the vertices in the printed order: d is a leaf on a-d,
    # its earliest-declared edge to a, b and c, and then both chords follow.
    code, out, err = run(capsys, "basis", ZERO_CHORD)
    assert (code, err) == (0, "")
    assert out == (
        "vertex order: a b c d\n"
        "[ 1  1  1  1 ]\n"
        "[ 0 30 30 30 ]\n"
        "[ 0  0 60 60 ]\n"
    )
    code, out, err = run(capsys, "basis", ZERO_CHORD, "--incremental", "--json")
    assert (code, err) == (0, "")
    assert out == (
        '{\n'
        '  "vertexOrder": [\n'
        '    "a",\n'
        '    "b",\n'
        '    "c",\n'
        '    "d"\n'
        '  ],\n'
        '  "basis": [\n'
        '    {\n'
        '      "a": "1",\n'
        '      "b": "1",\n'
        '      "c": "1",\n'
        '      "d": "1"\n'
        '    },\n'
        '    {\n'
        '      "a": "0",\n'
        '      "b": "30",\n'
        '      "c": "30",\n'
        '      "d": "30"\n'
        '    },\n'
        '    {\n'
        '      "a": "0",\n'
        '      "b": "0",\n'
        '      "c": "60",\n'
        '      "d": "60"\n'
        '    }\n'
        '  ],\n'
        '  "trace": [\n'
        '    "start: a",\n'
        '    "leaf-pullback: b attached to a via 2*3",\n'
        '    "  [ 1 1 ]",\n'
        '    "  [ 0 6 ]",\n'
        '    "leaf-pullback: c attached to b via 2*5",\n'
        '    "  [ 1 1 1 ]",\n'
        '    "  [ 0 6 6 ]",\n'
        '    "  [ 0 0 10 ]",\n'
        '    "leaf-pullback: d attached to a via 3*5",\n'
        '    "  [ 1 1 1 1 ]",\n'
        '    "  [ 0 6 6 0 ]",\n'
        '    "  [ 0 0 10 0 ]",\n'
        '    "  [ 0 0 0 15 ]",\n'
        '    "edge-equalizer: b ~ d via 2^2",\n'
        '    "  [ 1 1 1 1 ]",\n'
        '    "  [ 0 6 6 30 ]",\n'
        '    "  [ 0 0 10 0 ]",\n'
        '    "  [ 0 0 0 60 ]",\n'
        '    "edge-equalizer: c ~ d via 0",\n'
        '    "  [ 1 1 1 1 ]",\n'
        '    "  [ 0 30 30 30 ]",\n'
        '    "  [ 0 0 60 60 ]"\n'
        '  ]\n'
        '}\n'
    )


def test_factorization_limits_exit_1(capsys, tmp_path):
    # (10^12+39)(10^12+61): both primes lie past trial division and their
    # product is composite, so the engine cannot split it.  The input is
    # well formed, so this is a computational failure, not an input error.
    doc = {
        "ring": {"kind": "Int"},
        "vertices": ["u", "v"],
        "edges": [{"ends": ["u", "v"], "label": {"factors": [["1000000000100000000002379", 1]]}}],
    }
    path = tmp_path / "semiprime.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "basis", str(path))
    assert (code, out) == (1, "")
    assert err == "error: cannot factor residual cofactor 1000000000100000000002379\n"


def test_basis_incremental_prints_trace(capsys):
    code, out, _ = run(capsys, "basis", PATH, "--incremental")
    assert code == 0
    assert "leaf-pullback: v attached to u via 3" in out
    assert "leaf-pullback: w attached to v via 5" in out
    assert out.startswith("vertex order: u v w\n[ 1 1 1 ]\n[ 0 3 3 ]\n[ 0 0 5 ]\n")


def test_basis_forest_interleaved_order_agrees(capsys):
    # Two components and an isolated vertex, in a vertex order that
    # interleaves them: both solvers print the same basis, and the one
    # trace visits the vertices in that order.  A vertex with no edge to
    # the vertices before it, here d and z, is a leaf on the unit ideal.
    order = "a,d,z,b,e,c,f"
    code, direct, _ = run(capsys, "basis", FOREST, "--vertex-order", order)
    assert code == 0
    code, incremental, _ = run(capsys, "basis", FOREST, "--incremental", "--vertex-order", order)
    assert code == 0
    assert direct.startswith("vertex order: a d z b e c f\n[ 1 0 0 1 0  1  0 ]\n")
    assert incremental.startswith(direct)
    trace = incremental[len(direct):].splitlines()
    assert [line for line in trace if not line.startswith("  ")] == [
        "start: a",
        "leaf-pullback: d attached to a via 1",
        "leaf-pullback: z attached to a via 1",
        "leaf-pullback: b attached to a via 2",
        "leaf-pullback: e attached to d via 7",
        "leaf-pullback: c attached to a via 5",
        "edge-equalizer: b ~ c via 3",
        "leaf-pullback: f attached to e via 11",
    ]
    # The last step's matrix is the printed basis, whose columns are padded.
    assert [line.split() for line in trace[-7:]] == [line.split() for line in direct.splitlines()[1:]]


def test_basis_vertex_order_flag(capsys):
    code, out, _ = run(capsys, "basis", TRIANGLE, "--vertex-order", "w,v,u")
    assert code == 0
    assert out.startswith("vertex order: w v u\n")


def test_verify_path_mod_15(capsys):
    code, out, _ = run(capsys, "verify", PATH, "--mod", "15")
    assert code == 0
    assert out == "brute force = direct = incremental: 225 splines\n"


def test_verify_triangle_mod_105(capsys):
    code, out, _ = run(capsys, "verify", TRIANGLE, "--mod", "105")
    assert code == 0
    assert out == "brute force = direct = incremental: 11025 splines\n"


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", PATH, "--mod", "15", "--json")
    assert code == 0
    assert json.loads(out) == {
        "modulus": 15,
        "bruteForce": 225,
        "direct": 225,
        "incremental": 225,
        "agree": True,
    }


def _counting_spline_set(monkeypatch):
    calls = []

    def counted(module):
        calls.append(module)
        return real(module)

    real = cli.spline_set
    monkeypatch.setattr(cli, "spline_set", counted)
    return calls


def test_verify_enumerates_equal_modules_once(capsys, monkeypatch):
    calls = _counting_spline_set(monkeypatch)
    code, out, _ = run(capsys, "verify", PATH, "--mod", "15")
    assert code == 0
    assert out == "brute force = direct = incremental: 225 splines\n"
    assert len(calls) == 1


def test_verify_enumerates_both_when_modules_differ(capsys, monkeypatch):
    calls = _counting_spline_set(monkeypatch)
    real = cli.incremental_assembled

    def with_redundant_row(g):
        m, traces = real(g)
        doubled = tuple(Residue(2 * x.value, x.modulus) for x in m.rows[0])
        return SplineModule(m.graph, m.vertex_order, m.rows + (doubled,), m.pivots + (0,)), traces

    monkeypatch.setattr(cli, "incremental_assembled", with_redundant_row)
    code, out, _ = run(capsys, "verify", PATH, "--mod", "15", "--json")
    assert code == 0
    assert json.loads(out)["agree"] is True
    assert len(calls) == 2


def _planted(real, change):
    """``real`` with its module's rows passed through ``change``."""

    def planted(g):
        out = real(g)
        m = out[0] if isinstance(out, tuple) else out
        rows, pivots = change(m.rows, m.pivots)
        planted_module = SplineModule(m.graph, m.vertex_order, rows, pivots)
        return (planted_module,) + out[1:] if isinstance(out, tuple) else planted_module

    return planted


def _missing_last_row(rows, pivots):
    return rows[:-1], pivots[:-1]


def _wrong_last_row(rows, pivots):
    # (0, 0, 1) breaks the congruence mod 5 on the edge v ~ w.
    return rows[:-1] + (tuple(Residue(x, 15) for x in (0, 0, 1)),), pivots


def test_verify_names_a_path_missing_a_row(capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_direct", _planted(cli.solve_direct, _missing_last_row))
    code, out, _ = run(capsys, "verify", PATH, "--mod", "15")
    assert code == 1
    assert out == (
        "MISMATCH: brute force 225, direct 75, incremental 225\n"
        "disagreeing with brute force: direct\n"
        "witness (u, v, w) = (0, 0, 5): in brute force; missing from direct\n"
    )


def test_verify_names_a_path_with_a_wrong_row(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "incremental_assembled", _planted(cli.incremental_assembled, _wrong_last_row)
    )
    code, out, _ = run(capsys, "verify", PATH, "--mod", "15", "--json")
    assert code == 1
    assert json.loads(out) == {
        "modulus": 15,
        "bruteForce": 225,
        "direct": 225,
        "incremental": 1125,
        "agree": False,
        "paths": ["incremental"],
        "witness": {"values": [0, 0, 1], "heldBy": ["incremental"], "missingFrom": ["bruteForce"]},
    }


def test_verify_witness_is_the_least_tuple_over_both_paths(capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_direct", _planted(cli.solve_direct, _missing_last_row))
    monkeypatch.setattr(
        cli, "incremental_assembled", _planted(cli.incremental_assembled, _wrong_last_row)
    )
    code, out, _ = run(capsys, "verify", PATH, "--mod", "15", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["paths"] == ["direct", "incremental"]
    # (0, 0, 1) precedes direct's own witness (0, 0, 5); direct agrees with
    # brute force on it, so only the incremental path holds it.
    assert payload["witness"] == {
        "values": [0, 0, 1],
        "heldBy": ["incremental"],
        "missingFrom": ["bruteForce"],
    }


def test_verify_keeps_its_keys_on_agreement(capsys):
    code, out, _ = run(capsys, "verify", TRIANGLE, "--mod", "105", "--json")
    assert code == 0
    assert out == formats.dump_json(
        {"modulus": 105, "bruteForce": 11025, "direct": 11025, "incremental": 11025, "agree": True}
    ) + "\n"


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(*_):
        raise InternalError("invariant broken")

    monkeypatch.setattr(cli, "solve_direct", broken)
    code, out, err = run(capsys, "basis", TRIANGLE)
    assert code == 3
    assert out == ""
    assert "invariant broken" in err


def _one_edge_graph(ring, text):
    return {
        "ring": ring,
        "vertices": ["u", "v"],
        "edges": [{"ends": ["u", "v"], "label": {"factors": [[text, 1]]}}],
    }


QX_RING = {"kind": "PolyQ", "variables": ["x"]}

# Inputs that a check refuses, and its message.  Each check raises an
# ``InputError`` (exit 2); the library's own checks raise ``InvalidValue``,
# which is also a ``ValueError``.  A dict or bytes argument is a file's
# content.  A factor text that fails is named by where it sat, and the test
# id is the message after that location.
REFUSED = [
    (("basis", TRIANGLE, "--vertex-order", "u,v"),
     "vertex order must be a permutation of the graph's vertices"),
    (("restrict", PATH, "--invert", "0"), "--invert: zero has no factorization"),
    (("verify", TRIANGLE, "--mod", "1"), "ModInt requires a modulus >= 2"),
    (("basis", _one_edge_graph({"kind": "Int"}, "0")), "edges[0]: zero has no factorization"),
    (("basis", _one_edge_graph(QX_RING, "0")), "edges[0]: zero is not a valid factor"),
    (("basis", _one_edge_graph(QX_RING, "2")), "edges[0]: constants are not valid polynomial factors"),
    (("basis", _one_edge_graph(QX_RING, "x^2-1")), "edges[0]: 'x^2 - 1' is reducible over the rationals"),
    (("basis", _one_edge_graph({"kind": "ModInt", "modulus": 6}, "x")),
     "edges[0]: the ring has no variables, found 'x' at position 0"),
    (("basis", {"ring": {"kind": "PolyQ", "variables": ["x", "x"]}, "vertices": ["u"]}),
     "variable names must be distinct"),
    (("basis", {"ring": {"kind": "PolyQ", "variables": ["1x"]}, "vertices": ["u"]}),
     "bad variable name '1x'"),
    (("basis", {"ring": {"kind": "Int", "inverted": ["0"]}, "vertices": ["u"]}),
     "'ring.inverted': zero has no factorization"),
    (("cover", PATH, "--opens", {"opens": [{"name": "a", "invert": ["1"]}]}),
     "open 'a' must invert at least one factor"),
    (("cover", HEXPOLY, "--opens", {"opens": [{"name": "a", "invert": ["x-3"]}, {"name": "b", "invert": ["x-"]}]}),
     "opens[1].invert: unexpected end of input at position 2 (expected a number, variable, '(' or '-')"),
    # Not UTF-8, and a JSON integer past Python's 4,300-digit limit.
    (("basis", b"\xff\xfe"), "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (("basis", b'{"ring": {"kind": "ModInt", "modulus": 1' + b"0" * 5000 + b'}, "vertices": []}'),
     "Exceeds the limit (4300 digits) for integer string conversion: value has 5001 digits; "
     "use sys.set_int_max_str_digits() to increase the limit"),
]


def _refused_id(message):
    return re.sub(r"^(edges\[\d+\]|'ring\.inverted'|opens\[\d+\]\.invert|--invert): ", "", message)[:32]


def _refused_argv(argv, tmp_path):
    """``argv`` with each document, a dict or bytes, written to a file."""
    out = []
    for i, arg in enumerate(argv):
        if not isinstance(arg, str):
            path = tmp_path / f"arg{i}.json"
            path.write_bytes(arg if isinstance(arg, bytes) else json.dumps(arg).encode())
            arg = str(path)
        out.append(arg)
    return out


@pytest.mark.parametrize("argv, message", REFUSED, ids=[_refused_id(m) for _, m in REFUSED])
def test_refused_values_exit_2(capsys, tmp_path, argv, message):
    code, out, err = run(capsys, *_refused_argv(argv, tmp_path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fault", [ValueError, ZeroDivisionError])
def test_a_value_error_no_check_raised_exits_3(capsys, monkeypatch, fault):
    # A ValueError or ZeroDivisionError that escapes the engine is a fault
    # of the program, not of its input.
    def broken(*_):
        raise fault("planted fault")

    monkeypatch.setattr(cli, "solve_direct", broken)
    code, out, err = run(capsys, "basis", TRIANGLE)
    assert (code, out, err) == (3, "", "internal error: planted fault\n")


def test_basis_incremental_residue_trace_keeps_labels(capsys, tmp_path):
    doc = {
        "ring": {"kind": "ModInt", "modulus": 12},
        "vertices": ["u", "v", "w"],
        "edges": [
            {"ends": ["u", "v"], "label": {"factors": [["6", 1]]}},
            {"ends": ["v", "w"], "label": {"factors": [["4", 1]]}},
            {"ends": ["u", "w"], "label": {"factors": [["3", 1]]}},
        ],
    }
    path = tmp_path / "z12.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "basis", str(path), "--incremental")
    assert code == 0
    assert out == (
        "vertex order: u v w\n"
        "[ 1 1 1 ]\n"
        "[ 0 6 6 ]\n"
        "start: u\n"
        "leaf-pullback: v attached to u via 6\n"
        "  [ 1 1 ]\n"
        "  [ 0 6 ]\n"
        "leaf-pullback: w attached to u via 3\n"
        "  [ 1 1 1 ]\n"
        "  [ 0 6 0 ]\n"
        "  [ 0 0 3 ]\n"
        "edge-equalizer: v ~ w via 4\n"
        "  [ 1 1 1 ]\n"
        "  [ 0 6 6 ]\n"
        "  [ 0 0 12 ]\n"
    )


def test_basis_qx_golden(capsys, tmp_path):
    # One monic label with a rational root, one irreducible quadratic and
    # one label with root 0: the basis mixes integral and rational
    # coefficients, and the text and JSON spell both as before.
    doc = {
        "ring": {"kind": "PolyQ", "variables": ["x"]},
        "vertices": ["u", "v", "w"],
        "edges": [
            {"ends": ["u", "v"], "label": {"factors": [["2*x-3", 1]]}},
            {"ends": ["v", "w"], "label": {"factors": [["x^2+1", 1]]}},
            {"ends": ["u", "w"], "label": {"factors": [["x", 1]]}},
        ],
    }
    path = tmp_path / "qx.json"
    path.write_text(json.dumps(doc))
    matrix = (
        "vertex order: u v w\n"
        "[ 1       1           1 ]\n"
        "[ 0 x - 3/2 3/2*x^2 + x ]\n"
        "[ 0       0     x^3 + x ]\n"
    )
    code, out, _ = run(capsys, "basis", str(path))
    assert (code, out) == (0, matrix)
    code, out, _ = run(capsys, "basis", str(path), "--incremental")
    assert (code, out) == (0, matrix + (
        "start: u\n"
        "leaf-pullback: v attached to u via (x - 3/2)\n"
        "  [ 1 1 ]\n"
        "  [ 0 x - 3/2 ]\n"
        "leaf-pullback: w attached to u via x\n"
        "  [ 1 1 1 ]\n"
        "  [ 0 x - 3/2 0 ]\n"
        "  [ 0 0 x ]\n"
        "edge-equalizer: v ~ w via (x^2 + 1)\n"
        "  [ 1 1 1 ]\n"
        "  [ 0 x - 3/2 3/2*x^2 + x ]\n"
        "  [ 0 0 x^3 + x ]\n"
    ))
    code, out, _ = run(capsys, "basis", str(path), "--json")
    assert code == 0
    assert out == (
        '{\n'
        '  "vertexOrder": [\n'
        '    "u",\n'
        '    "v",\n'
        '    "w"\n'
        '  ],\n'
        '  "basis": [\n'
        '    {\n'
        '      "u": "1",\n'
        '      "v": "1",\n'
        '      "w": "1"\n'
        '    },\n'
        '    {\n'
        '      "u": "0",\n'
        '      "v": "x - 3/2",\n'
        '      "w": "3/2*x^2 + x"\n'
        '    },\n'
        '    {\n'
        '      "u": "0",\n'
        '      "v": "0",\n'
        '      "w": "x^3 + x"\n'
        '    }\n'
        '  ]\n'
        '}\n'
    )


def test_restrict_text(capsys):
    code, out, _ = run(capsys, "restrict", TRIANGLE, "--invert", "3")
    assert code == 0
    assert out == (
        "ring: Int localized at {3}\n"
        "vertices: u v w\n"
        "edges:\n"
        "  u-w: 7\n"
        "  v-w: 5\n"
        "trivialized edges:\n"
        "  u-v\n"
        "classification: Other\n"
    )


def test_spectrum_text_and_json(capsys):
    code, out, _ = run(capsys, "spectrum", TRIANGLE)
    assert code == 0
    assert out == (
        "relevant factors: 3, 5, 7\n"
        "fiber at 3: {u, v} {w}\n"
        "fiber at 5: {u} {v, w}\n"
        "fiber at 7: {u, w} {v}\n"
        "generic fiber: 3 points\n"
        "components: 1\n"
        "holeCount: 1\n"
    )
    code, out, _ = run(capsys, "spectrum", TRIANGLE, "--json")
    doc = json.loads(out)
    assert doc == {
        "fibers": {"3": [["u", "v"], ["w"]], "5": [["u"], ["v", "w"]], "7": [["u", "w"], ["v"]]},
        "holeCount": 1,
        "components": 1,
    }


def test_cover_command(capsys, tmp_path):
    opens = tmp_path / "opens.json"
    opens.write_text(json.dumps({"opens": [
        {"name": "U1", "invert": ["2"]},
        {"name": "U2", "invert": ["4"]},
    ]}))
    code, out, _ = run(capsys, "cover", TRIANGLE, "--opens", str(opens))
    assert code == 0
    assert out == "cover status: FailsToCover (common factor 2)\n"


def test_certify_hexpoly(capsys):
    # the opens miss x = 505, y^2 = 1 - 495^2, so the verdict cannot be FREE
    code, out, _ = run(capsys, "certify", HEXPOLY, "--opens", HEXPOLY_OPENS)
    assert code == 0
    assert out == (
        "open U1: DeterminedByCycle(A3, B3, C3, D3, E3, F3); trivialized 12 edge(s), 6 left\n"
        "open U2: DeterminedByCycle(A2, B2, C2, D2, E2, F2); trivialized 12 edge(s), 6 left\n"
        "open U3: DeterminedByCycle(A1, B1, C1, D1, E1, F1); trivialized 12 edge(s), 6 left\n"
        "cover status: Inconclusive (the defining products use more than one variable)\n"
        "verdict: UNKNOWN\n"
    )


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("certify", HEXPOLY, "--opens", HEXPOLY_OPENS), "certificate_hexpoly_golden.json"),
        (("basis", TRIANGLE), "basis_triangle_golden.json"),
        (("basis", ZERO_CHORD, "--incremental"), "basis_zero_chord_incremental_golden.json"),
        (("verify", TRIANGLE, "--mod", "105"), "verify_triangle_105_golden.json"),
        (("cover", HEXPOLY, "--opens", HEXPOLY_OPENS), "cover_hexpoly_golden.json"),
        (("spectrum", LOCALIZED), "spectrum_localized_golden.json"),
        (("delete-edge", HEXPOLY, "--edge", "A1,B1"), "hexpoly_without_A1_B1.json"),
    ],
)
def test_json_output_matches_golden_bytes(capsys, argv, golden):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    with open(fixture_path(golden), "rb") as fh:
        assert out.encode("utf-8") == fh.read()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("spectrum", HEXPOLY), "spectrum_hexpoly_golden.txt"),
        (("restrict", HEXPOLY, "--invert", "x-3,(x-10)^2+y^2-1"), "restrict_hexpoly_golden.txt"),
        (("contract", HEXPOLY, "--edge", "A1,B1", "--emit-diff"), "contract_hexpoly_golden.txt"),
        (("delete-edge", HEXPOLY, "--edge", "A1,B1", "--emit-diff"), "delete_edge_hexpoly_golden.txt"),
        (("delete-vertex", HEXPOLY, "--vertex", "A1", "--emit-diff"), "delete_vertex_hexpoly_golden.txt"),
        (("diff", HEXPOLY, HEXPOLY_WITHOUT_A1_B1), "diff_hexpoly_golden.txt"),
    ],
)
def test_text_output_matches_golden_bytes(capsys, argv, golden):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    with open(fixture_path(golden), "rb") as fh:
        assert out.encode("utf-8") == fh.read()


def test_each_polynomial_is_spelled_once_per_command(capsys, monkeypatch):
    # hexpoly's labels hold 21 distinct polynomials, and contract --emit-diff
    # prints them 140 times: the graph after the contraction and the two
    # spectrum reports of the diff share the parsed polynomials.
    from gsplines import rings

    calls, spelled = [], []
    format_poly, speller = rings.format_poly, rings._spell_poly
    monkeypatch.setattr(rings, "format_poly", lambda p, v: calls.append(p) or format_poly(p, v))
    monkeypatch.setattr(rings, "_spell_poly", lambda p, v: spelled.append(p) or speller(p, v))
    code, _, _ = run(capsys, "contract", HEXPOLY, "--edge", "A1,B1", "--emit-diff")
    assert code == 0
    assert len(calls) == 140
    assert len(spelled) == len(set(spelled)) == len(set(calls)) == 21


def test_cover_over_a_localized_ring_drops_its_units(capsys, tmp_path):
    # Over Z[1/3] an open inverting 3 is the whole spectrum; one inverting 5
    # misses the fiber at 5.
    opens = tmp_path / "opens.json"
    opens.write_text(json.dumps({"opens": [{"name": "U", "invert": ["3"]}]}))
    code, out, _ = run(capsys, "cover", LOCALIZED, "--opens", str(opens))
    assert code == 0
    assert out == "cover status: Covers (open U inverts only units, so it is the whole spectrum)\n"
    opens.write_text(json.dumps({"opens": [{"name": "U", "invert": ["5"]}]}))
    code, out, _ = run(capsys, "cover", LOCALIZED, "--opens", str(opens))
    assert code == 0
    assert out == "cover status: FailsToCover (common factor 5)\n"


def test_spectrum_over_a_localized_ring_skips_inverted_factors(capsys):
    # Over Z[1/3] the label 3 is a unit, so u-v imposes nothing and v-w's
    # label 3*5 is 5: the only fiber is at 5, and u is its own component.
    code, out, _ = run(capsys, "spectrum", LOCALIZED)
    assert code == 0
    assert out == (
        "relevant factors: 5\n"
        "fiber at 5: {u} {v, w}\n"
        "generic fiber: 3 points\n"
        "components: 2\n"
        "holeCount: 0\n"
    )
    code, out, _ = run(capsys, "restrict", LOCALIZED, "--invert", "5")
    assert code == 0
    assert out == (
        "ring: Int localized at {3, 5}\n"
        "vertices: u v w\n"
        "edges:\n"
        "  (none)\n"
        "trivialized edges:\n"
        "  v-w\n"
        "classification: Trivial\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("restrict", "--invert", "5"), "residue rings cannot be localized"),
        (("cover", "--opens", "OPENS"), "covers are checked over integer or polynomial rings"),
        (("certify", "--opens", "OPENS"), "restrictions are not defined over residue rings"),
        # Over Z/12 a label's factor need not be prime (the fixture's 4), so
        # no fiber is reported per factor.
        (("spectrum",), "spectrum reports are not defined over residue rings"),
        (("delete-edge", "--edge", "a,b", "--emit-diff"), "spectrum reports are not defined over residue rings"),
    ],
    ids=["restrict", "cover", "certify", "spectrum", "delete-edge-diff"],
)
def test_residue_ring_refusals(capsys, tmp_path, argv, message):
    # Each operation refuses a residue ring once, with exit 1.
    opens = tmp_path / "opens.json"
    opens.write_text(json.dumps({"opens": [{"name": "U", "invert": ["2"]}, {"name": "V", "invert": ["3"]}]}))
    argv = [str(opens) if a == "OPENS" else a for a in argv]
    code, out, err = run(capsys, argv[0], ZERO_LABEL_MOD12, *argv[1:])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_diff_names_a_primed_contraction_exactly(capsys, tmp_path):
    # The graph already holds u~v, so contracting u-v names the merged
    # vertex u~v'; an after-file that names it u~v'' is not that contraction.
    doc = {
        "ring": {"kind": "Int"},
        "vertices": ["u", "v", "u~v"],
        "edges": [
            {"ends": ["u", "v"], "label": {"factors": [["3", 1]]}},
            {"ends": ["v", "u~v"], "label": {"factors": [["5", 1]]}},
        ],
    }
    before = tmp_path / "before.json"
    before.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "contract", str(before), "--edge", "u,v", "--json")
    assert code == 0
    after = json.loads(out)
    assert after["vertices"] == ["u~v'", "u~v"]
    good = tmp_path / "good.json"
    good.write_text(out)
    code, out, _ = run(capsys, "diff", str(before), str(good))
    assert code == 0
    assert "vertices identified: u, v -> u~v'" in out.splitlines()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(after).replace("u~v'", "u~v''"))
    code, out, err = run(capsys, "diff", str(before), str(bad))
    assert (code, out) == (2, "")
    assert "not related by one edge deletion" in err


def test_delete_edge_with_diff(capsys):
    code, out, _ = run(capsys, "delete-edge", TRIANGLE, "--edge", "u,v", "--emit-diff")
    assert code == 0
    assert "spectrum diff:" in out
    assert "holeCount: 1 -> 0" in out


def test_contract_outputs_merged_graph(capsys):
    code, out, _ = run(capsys, "contract", TRIANGLE, "--edge", "u,v", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == ["u~v", "w"]
    assert doc["edges"] == [
        {"ends": ["u~v", "w"], "label": {"factors": [["5", 1], ["7", 1]]}}
    ]


def test_graph_json_output_reloads(capsys, tmp_path):
    code, out, _ = run(capsys, "delete-edge", TRIANGLE, "--edge", "u,v", "--json")
    assert code == 0
    f = tmp_path / "after.json"
    f.write_text(out)
    code, out2, _ = run(capsys, "diff", TRIANGLE, str(f))
    assert code == 0
    assert out2.splitlines()[0] == "operation: delete-edge u-v"


def test_text_output_is_byte_stable(capsys):
    code1, out1, _ = run(capsys, "spectrum", HEXCHAIN)
    code2, out2, _ = run(capsys, "spectrum", HEXCHAIN)
    assert (code1, out1) == (code2, out2)


def test_exit_codes(capsys, tmp_path):
    # missing file: input error
    code, _, err = run(capsys, "basis", str(tmp_path / "nope.json"))
    assert code == 2
    # schema violation
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"ring": {"kind": "Int"}, "vertices": ["u"], "junk": 1}))
    code, _, err = run(capsys, "basis", str(bad))
    assert code == 2 and "junk" in err
    # parse error inside a label
    bad.write_text(
        json.dumps(
            {
                "ring": {"kind": "Int"},
                "vertices": ["u", "v"],
                "edges": [{"ends": ["u", "v"], "label": {"factors": [["3(", 1]]}}],
            }
        )
    )
    code, _, err = run(capsys, "basis", str(bad))
    assert code == 2
    # computational failure: multivariate basis
    code, _, err = run(capsys, "basis", HEXPOLY)
    assert code == 1
    # enumeration guard
    big = tmp_path / "big.json"
    big.write_text(
        json.dumps(
            {
                "ring": {"kind": "Int"},
                "vertices": [f"v{i}" for i in range(10)],
                "edges": [],
            }
        )
    )
    code, _, err = run(capsys, "verify", str(big), "--mod", "8")
    assert code == 1
    # graphs no single deletion or contraction relates
    for i, pair in enumerate(unrelated_pairs()):
        paths = []
        for side, g in zip(("before", "after"), pair):
            f = tmp_path / f"{side}{i}.json"
            f.write_text(formats.dump_json(formats.graph_to_json(g)))
            paths.append(str(f))
        code, out, err = run(capsys, "diff", *paths)
        assert (code, out) == (2, "")
        assert "not related by one edge deletion" in err


def test_unknown_flag_is_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basis", TRIANGLE, "--frobnicate"])
    assert exc.value.code == 2
