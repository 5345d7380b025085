"""Cover status of small families of opens over Q[x,y], from sympy.

Reads a JSON list on stdin; each item is the list of the opens' defining
products as strings in the package's grammar (``^`` for powers).  Writes a
JSON list of ``"Covers"`` / ``"NotCovers"``: the opens cover exactly when
their products generate the unit ideal, that is when the reduced Groebner
basis is ``[1]``.

It runs as its own process so that sympy's import time and memory never
reach the benchmark process that is measured.
"""

import json
import sys

import sympy


def status(products):
    x, y = sympy.symbols("x y")
    polys = [sympy.sympify(p.replace("^", "**"), locals={"x": x, "y": y}) for p in products]
    basis = sympy.groebner(polys, x, y, order="grevlex", domain="QQ")
    return "Covers" if list(basis.exprs) == [1] else "NotCovers"


def main() -> int:
    families = json.load(sys.stdin)
    json.dump([status(f) for f in families], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
