"""Seeded benchmark inputs and the references their outputs are checked against.

A fixture is permuted by moving declarations whose relative order the DSL
does not give meaning to: ``equation`` lines among equation lines, ``opaque``
lines among opaque lines, top-level ``expect`` lines among themselves, and
whole candidate paragraphs (comments, the ``candidate`` block and its
``expect`` lines) among candidate paragraphs.  Verdicts and printed forms do
not depend on that order, so the expected ``--out`` report of a permuted
fixture is the reference report captured from the unpermuted fixture with
its line numbers remapped and its candidate checks regrouped.

Only the standard library is used here, so this module runs in every
process of the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE_DIR = ROOT / "src" / "jetvar" / "frontend" / "fixtures"
REFERENCE_DIR = HERE / "reference"

SMALL_FIXTURES = ("laplace", "wave", "pkdv")
PROLONG_ORDER = 8
_CANDIDATE_CHECKS = ("s_symmetry", "eq_symmetry", "gauge", "candidate")


def fixture_text(name: str) -> str:
    """The bundled fixture, refused if it is not the text the reference was taken from."""
    text = (FIXTURE_DIR / f"{name}.jv").read_text(encoding="utf-8")
    manifest = json.loads((REFERENCE_DIR / "manifest.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if manifest["fixtures"][name] != digest:
        raise ValueError(
            f"fixture {name}.jv differs from the text its reference report was "
            "captured from; rerun perfbench/make_reference.py on the commit that "
            "defines the new workload")
    return text


def _paragraphs(lines):
    """Index ranges [start, end) of runs of non-blank lines."""
    out, start = [], None
    for i, line in enumerate(lines + [""]):
        if line.strip() and start is None:
            start = i
        elif not line.strip() and start is not None:
            out.append((start, i))
            start = None
    return out


def permute_fixture(text: str, rng: random.Random):
    """Return (permuted text, old line -> new line map, candidate order)."""
    lines = text.split("\n")
    order = list(range(len(lines)))  # order[new index] = old index
    paragraphs = _paragraphs(lines)
    cand_paras = [p for p in paragraphs
                  if any(lines[i].startswith("candidate ") for i in range(*p))]
    slots = {"equation ": [], "opaque ": [], "expect ": []}
    for start, end in paragraphs:
        if (start, end) in cand_paras:
            continue
        for i in range(start, end):
            for prefix, found in slots.items():
                if lines[i].startswith(prefix):
                    found.append(i)
    for found in slots.values():
        moved = found[:]
        rng.shuffle(moved)
        for slot, old in zip(found, moved):
            order[slot] = old

    moved_paras = cand_paras[:]
    rng.shuffle(moved_paras)
    # candidate paragraphs differ in length, so rebuild the tail from the
    # first candidate paragraph on; only blank lines sit between them
    if cand_paras:
        head_end = cand_paras[0][0]
        tail = []
        for k, (start, end) in enumerate(moved_paras):
            if k:
                tail.append(None)
            tail.extend(range(start, end))
        trailing = order[cand_paras[-1][1]:]
        between = [i for i in range(head_end, cand_paras[-1][1])
                   if not any(s <= i < e for s, e in cand_paras)]
        if any(lines[i].strip() for i in between):
            raise ValueError("candidate paragraphs must be separated by blank lines only")
        order = order[:head_end] + tail + trailing

    new_lines, line_map = [], {}
    for new_index, old in enumerate(order):
        if old is None:
            new_lines.append("")
            continue
        new_lines.append(lines[old])
        line_map[old + 1] = new_index + 1
    names = []
    for start, end in moved_paras:
        for i in range(start, end):
            match = re.match(r"candidate\s+(\w+)", lines[i])
            if match:
                names.append(match.group(1))
                break
    return "\n".join(new_lines), line_map, names


def _candidate_of(check_name: str):
    match = re.fullmatch(r"(\w+)\[(\w+)\]", check_name)
    if match and match.group(1) in _CANDIDATE_CHECKS:
        return match.group(2)
    return None


def expected_report(name: str, line_map: dict, candidate_order) -> bytes:
    """The ``--out`` bytes a permuted fixture must produce."""
    reference = (REFERENCE_DIR / f"{name}.report.json").read_bytes()
    doc = json.loads(reference)
    if json.dumps(doc, indent=2, sort_keys=True).encode("utf-8") + b"\n" != reference:
        raise ValueError(f"reference report for {name} does not round-trip")
    plain, groups = [], {}
    for check in doc["checks"]:
        if check["line"] is not None:
            check["line"] = line_map[check["line"]]
        owner = _candidate_of(check["name"])
        if owner is None:
            if groups:
                raise ValueError("a pipeline check follows the candidate checks")
            plain.append(check)
        else:
            groups.setdefault(owner, []).append(check)
    doc["checks"] = plain + [c for cand in candidate_order for c in groups.get(cand, [])]
    return json.dumps(doc, indent=2, sort_keys=True).encode("utf-8") + b"\n"


def report_problems(data: bytes, expected: bytes, exit_code: int):
    """Reasons a reproduce operation failed; empty when it passed."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        doc = json.loads(data)
        bad = [c["name"] for c in doc["checks"] if c["status"] != "pass"]
        if bad:
            problems.append("checks not passing: " + ", ".join(bad))
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable report: {exc}")
    if data != expected:
        problems.append("report bytes differ from the reference")
    return problems


# -- pKdV prolongation ---------------------------------------------------------

_RULE = re.compile(r"u\[([tx,]+)\] -> (.*)")
_FACTOR = re.compile(r"u(?:\[([x,]+)\])?(?:\^(\d+))?")


def _jet_order(letters: str, which: str) -> int:
    return letters.split(",").count(which)


def parse_polynomial(text: str) -> dict:
    """Printed polynomial in u, u[x], u[x,x], ... -> {((order, power), ...): Fraction}."""
    poly = {}
    text = text.strip()
    if text == "0":
        return poly
    pieces = re.split(r" ([+-]) ", text)
    signs = ["+"] + pieces[1::2]
    for sign, term in zip(signs, pieces[0::2]):
        if term.startswith("-"):
            sign, term = ("+" if sign == "-" else "-"), term[1:]
        coeff, factors = Fraction(1), []
        for part in term.split("*"):
            if re.fullmatch(r"\d+(/\d+)?", part):
                coeff *= Fraction(part)
                continue
            match = _FACTOR.fullmatch(part)
            if match is None:
                raise ValueError(f"unexpected factor {part!r}")
            order = len(match.group(1).split(",")) if match.group(1) else 0
            factors.append((order, int(match.group(2) or 1)))
        mono = tuple(sorted(factors))
        poly[mono] = poly.get(mono, Fraction(0)) + (coeff if sign == "+" else -coeff)
    return {m: c for m, c in poly.items() if c}


def load_prolong_reference() -> dict:
    """{(t order, x order): polynomial} from the committed sympy recomputation."""
    doc = json.loads((REFERENCE_DIR / "pkdv_prolong_order8.json").read_text(encoding="utf-8"))
    rules = {}
    for entry in doc["rules"]:
        rules[(entry["t"], entry["x"])] = {
            tuple(tuple(f) for f in mono): Fraction(coeff) for coeff, mono in entry["terms"]}
    return rules


def prolong_problems(stdout: str, exit_code: int, reference: dict):
    """Reasons a prolong operation failed; empty when it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    lines = stdout.rstrip("\n").split("\n")
    if lines[-1] != f"-- {len(reference)} rules to order {PROLONG_ORDER}":
        return [f"unexpected summary line {lines[-1]!r}"]
    seen = {}
    for line in lines[:-1]:
        match = _RULE.fullmatch(line)
        if match is None:
            return [f"unexpected line {line[:80]!r}"]
        key = (_jet_order(match.group(1), "t"), _jet_order(match.group(1), "x"))
        try:
            seen[key] = parse_polynomial(match.group(2))
        except ValueError as exc:
            return [str(exc)]
    if seen.keys() != reference.keys():
        return ["rule heads differ from the reference"]
    wrong = [k for k in reference if seen[k] != reference[k]]
    return [f"rule u[t^{t} x^{x}] differs from the reference" for t, x in wrong]
