"""Regenerate the references the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Writes into perfbench/reference/:

- ``<fixture>.report.json``: the ``--out`` report of ``jetvar reproduce
  <fixture>`` from the working tree's ``src/``, byte for byte;
- ``manifest.json``: the sha256 of each fixture text those reports come from;
- ``pkdv_prolong_order8.json``: the prolongation of potential KdV to order 8,
  recomputed with sympy from the evolution form u_t = K[u] rather than from
  jetvar's rewrite rules.  On the equation, u_{t^a x^b} = D_t^a u_{x^b} with
  D_t f = sum_j (df/du_{x^j}) D_x^j K, since f depends on internal
  coordinates only.

Run it only on the commit whose outputs define correctness; a later commit
that changes these files changes what the benchmark accepts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

import sympy

from inputs import FIXTURE_DIR, PROLONG_ORDER, REFERENCE_DIR, ROOT

PKDV_EQUATION = "equation u[t] = 3*u[x]^2 + u[xxx]"


def _reports():
    sys.path.insert(0, str(ROOT / "src"))
    from jetvar.frontend import cli

    digests = {}
    for name in ("laplace", "wave", "maxwell", "pkdv"):
        out = REFERENCE_DIR / f"{name}.report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["reproduce", name, "--out", str(out)])
        if code != 0:
            raise SystemExit(f"reproduce {name} did not pass")
        text = (FIXTURE_DIR / f"{name}.jv").read_text(encoding="utf-8")
        digests[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def _pkdv_rules(order: int):
    if PKDV_EQUATION not in (FIXTURE_DIR / "pkdv.jv").read_text(encoding="utf-8"):
        raise SystemExit("pkdv.jv no longer declares " + PKDV_EQUATION)
    top = 3 * order + 1
    U = sympy.symbols(f"U0:{top + 1}")

    def dx(f):
        return sympy.expand(sum(sympy.diff(f, U[j]) * U[j + 1]
                                for j in range(top) if f.has(U[j])))

    flows = [3 * U[1] ** 2 + U[3]]  # flows[j] = D_x^j K
    while len(flows) < top - 2:
        flows.append(dx(flows[-1]))

    def dt(f):
        return sympy.expand(sum(sympy.diff(f, U[j]) * flows[j]
                                for j in range(top) if f.has(U[j])))

    rules = []
    for total in range(1, order + 1):
        for a in range(1, total + 1):
            f = U[total - a]
            for _ in range(a):
                f = dt(f)
            terms = []
            for monom, coeff in sympy.Poly(f, *U).terms():
                mono = [[j, p] for j, p in enumerate(monom) if p]
                terms.append([str(coeff), mono])
            terms.sort(key=lambda t: t[1])
            rules.append({"t": a, "x": total - a, "terms": terms})
    return rules


def main():
    digests = _reports()
    (REFERENCE_DIR / "manifest.json").write_text(
        json.dumps({"fixtures": digests}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    rules = _pkdv_rules(PROLONG_ORDER)
    doc = {"equation": PKDV_EQUATION, "order": PROLONG_ORDER,
           "sympy": sympy.__version__, "rules": rules}
    (REFERENCE_DIR / "pkdv_prolong_order8.json").write_text(
        json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote references for {len(digests)} fixtures and {len(rules)} pKdV rules")


if __name__ == "__main__":
    main()
