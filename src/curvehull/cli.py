"""Command-line surface for every pipeline.

Verbs: schur, verify-schur, verify-diagonal, extreme, verify-extreme, lmi,
member, support, cross-validate.  Output is JSON by default (--format text
for a plain rendering); rationals are accepted as "p/q", integers, or
terminating decimals.  Exit codes: 0 success, 1 domain error, 2 usage error.
Input limits: --n of lmi, support and cross-validate is in 1..64,
--trials of cross-validate in 1..10000, --max-n of verify-schur in 0..4 and
its --max-entry in 0..8, the --seq of schur has 1..5 entries, each in 0..8,
the --basis of verify-diagonal has 1..5 polynomials, each of degree at most
10, the --basis of extreme and verify-extreme has 1..17 polynomials, each of
degree at most 32, as has the --poly of verify-extreme, the --width of
support is at least 1/10^100, and every exponent of t in a polynomial
argument is in 0..1000; a value outside them is a domain error, reported
before any work is done.  A rational is never written with an exponent, on
the command line or in a pencil file.
Each handler imports the modules its verb runs, so a verb loads no others.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from itertools import combinations

from .unipoly import _RATIONAL_RE, _UNSIGNED_RATIONAL, Interval, UniPoly


class UsageError(Exception):
    """Malformed arguments (bad rationals, bad option payloads, argparse
    errors): exit code 2.  A ValueError from a handler is a domain error:
    exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit, so parse
    errors print like any other; subparsers inherit the class."""

    def error(self, message):
        raise UsageError(message)


MAX_N = 64
MAX_TRIALS = 10000
MAX_EXPONENT = 1000
MAX_SCHUR_N = 4
MAX_SCHUR_ENTRY = 8
_MAX_DIAGONAL_DEGREE = 10
_MAX_EXTREME_BASIS = 17
_MAX_EXTREME_DEGREE = 32
_MIN_WIDTH_EXPONENT = 100


def _check_n(n: int) -> None:
    """--n is in 1..MAX_N.  Below 1 the curve and pencil builders raise their
    own domain errors before any work, so only the upper limit is checked
    here."""
    if n > MAX_N:
        raise ValueError(f"--n must be in 1..{MAX_N}, got {n}")


def _check_range(option: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise ValueError(f"{option} must be in {lo}..{hi}, got {value}")


def _check_degree(option: str, polys, most: int) -> None:
    # the zero polynomial's degree is -1
    _check_range(option, max(0, *(p.degree for p in polys)), 0, most)


def _check_basis(basis, length: int, degree: int) -> None:
    _check_range("--basis length", len(basis), 1, length)
    _check_degree("--basis degrees", basis, degree)


def parse_rational(s: str) -> Fraction:
    """Parse "p/q", an integer, or a terminating decimal, exactly."""
    s = s.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise UsageError(f"cannot parse rational: {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in rational: {s!r}") from None


_TERM_RE = re.compile(
    rf"^(?P<sign>[+-])?(?P<coef>{_UNSIGNED_RATIONAL})?\*?(?P<var>t(?:\^(?P<exp>\d+))?)?$")


def parse_poly(s: str) -> UniPoly:
    """Parse sums of rational multiples of powers of t, e.g. "t^5+t^6" or
    "2*t^2 - 1/3"."""
    text = s.replace(" ", "")
    if not text:
        raise UsageError("empty polynomial")
    chunks = re.findall(r"[+-]?[^+-]+", text)
    if "".join(chunks) != text:
        raise UsageError(f"cannot parse polynomial: {s!r}")
    coeffs: dict = {}
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise UsageError(f"cannot parse term {chunk!r} in polynomial {s!r}")
        coef = parse_rational(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("sign") == "-":
            coef = -coef
        digits = m.group("exp")
        if digits and (len(digits.lstrip("0")) > len(str(MAX_EXPONENT))
                       or int(digits) > MAX_EXPONENT):
            # checked on the digits, before the dense coefficient list exists
            raise ValueError(f"exponents of t must be in 0..{MAX_EXPONENT}, got {chunk!r}")
        if m.group("var") is None:
            exp = 0
        else:
            exp = int(digits) if digits else 1
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + coef
    deg = max(coeffs)
    return UniPoly([coeffs.get(k, 0) for k in range(deg + 1)])


def parse_basis(s: str):
    return tuple(parse_poly(part) for part in s.split(","))


def parse_interval(s: str) -> Interval:
    parts = s.split(",")
    if len(parts) != 2:
        raise UsageError(f"interval must be 'lo,hi', got {s!r}")
    return Interval(parse_rational(parts[0]), parse_rational(parts[1]))


def parse_seq(s: str):
    try:
        return tuple(int(x) for x in s.split(","))
    except ValueError:
        raise UsageError(f"cannot parse integer sequence: {s!r}") from None


def parse_point(s: str):
    return tuple(parse_rational(x) for x in s.split(","))


def parse_zeros(s: str):
    """Parse "point:mult,..." into a rays.ZeroPattern."""
    from .rays import ZeroPattern
    points, mults = [], []
    for part in s.split(","):
        bits = part.split(":")
        if len(bits) != 2:
            raise UsageError(f"zero pattern entries are 'point:mult', got {part!r}")
        points.append(parse_rational(bits[0]))
        try:
            mults.append(int(bits[1]))
        except ValueError:
            raise UsageError(f"bad multiplicity in {part!r}") from None
    return ZeroPattern(tuple(points), tuple(mults))


# -- verb handlers ---------------------------------------------------------------


def _cmd_schur(args) -> dict:
    from . import schur
    m = parse_seq(args.seq)
    _check_range("--seq length", len(m), 1, MAX_SCHUR_N + 1)
    for x in m:
        _check_range("--seq entries", x, 0, MAX_SCHUR_ENTRY)
    out = {"seq": list(m)}
    if args.method in ("tableaux", "both"):
        out["tableaux"] = schur.schur_via_tableaux(m).to_string("x")
    if args.method in ("bialternant", "both"):
        out["bialternant"] = schur.schur_via_bialternant(m).to_string("x")
    if args.method == "both":
        out["equal"] = out["tableaux"] == out["bialternant"]
    return out


def _cmd_verify_schur(args) -> dict:
    from . import schur
    max_n, max_entry = args.max_n, args.max_entry
    _check_range("--max-n", max_n, 0, MAX_SCHUR_N)
    _check_range("--max-entry", max_entry, 0, MAX_SCHUR_ENTRY)
    failures = []
    cases = 0
    for length in range(1, max_n + 2):
        seqs = [tuple(sorted(c, reverse=True))
                for c in combinations(range(max_entry + 1), length)]
        for m in seqs:
            cases += 1
            if schur.schur_via_tableaux(m) != schur.schur_via_bialternant(m):
                failures.append({"kind": "equality", "m": list(m)})
        for a in seqs:
            for b in seqs:
                if a != b and all(x <= y for x, y in zip(a, b)):
                    cases += 1
                    if not schur.proper_dominance_check(a, b).ok:
                        failures.append({"kind": "dominance", "a": list(a), "b": list(b)})
            for r in range(1, length + 1):
                for idx in combinations(range(length), r):
                    cases += 1
                    if not schur.subsequence_divisibility_check(a, idx).ok:
                        failures.append({"kind": "subsequence", "a": list(a),
                                         "indices": list(idx)})
    return {"cases": cases, "failures": failures, "ok": not failures}


def _cmd_verify_diagonal(args) -> dict:
    from . import diagonal
    basis = parse_basis(args.basis)
    _check_basis(basis, MAX_SCHUR_N + 1, _MAX_DIAGONAL_DEGREE)
    blocks = parse_seq(args.blocks)
    try:
        result = diagonal.factor_taylor_determinant(basis, blocks)
    except diagonal.DivisibilityError as exc:
        raise ValueError(str(exc)) from None
    return {
        "blocks": list(blocks),
        "det": result.det.to_string(),
        "cofactor": result.cofactor.to_string(),
        "ideal_generators": ["".join(f"t{i}^{e}" if e > 1 else (f"t{i}" if e else "")
                                     for i, e in enumerate(g)) or "1"
                             for g in result.ideal.generators],
        "in_ideal": result.membership.ok,
        "witness": {str(k): str(v) for k, v in result.membership.witness.items()},
        "reference_scale": str(result.reference_scale),
        "checked": result.checked,
    }


def _system_from_args(args) -> tuple:
    from . import rays
    basis = parse_basis(args.basis)
    _check_basis(basis, _MAX_EXTREME_BASIS, _MAX_EXTREME_DEGREE)
    s = parse_interval(args.interval)
    system = rays.profile_and_normalize(basis, s.lo)
    local = Interval(0, s.hi - s.lo)
    return system, s, local


def _cmd_extreme(args) -> dict:
    from . import rays
    system, s, local = _system_from_args(args)
    pattern = parse_zeros(args.zeros)
    local_pattern = rays.ZeroPattern(tuple(x - s.lo for x in pattern.points),
                                     pattern.mults)
    candidate = rays.extreme_candidate(system, local_pattern)
    out = {"interval": [str(s.lo), str(s.hi)],
           "zeros": [[str(x), b] for x, b in zip(pattern.points, pattern.mults)],
           "candidate": candidate.shift(-s.lo).to_string()}
    if candidate.is_zero:
        out["report"] = None
        out["note"] = "zero determinant: the zero conditions cut a space of dimension > 1"
        return out
    out["report"] = asdict(rays.verify_extreme(system, candidate, local))
    return out


def _cmd_verify_extreme(args) -> dict:
    from . import rays
    f = parse_poly(args.poly)
    _check_degree("--poly degree", (f,), _MAX_EXTREME_DEGREE)
    system, s, local = _system_from_args(args)
    return {"poly": args.poly, **asdict(rays.verify_extreme(system, f.shift(s.lo), local))}


def _cmd_lmi(args) -> dict:
    from . import lmi
    if args.objective is not None and not args.sdpa:
        raise UsageError("--objective is used only with --sdpa")
    _check_n(args.n)
    if args.kind == "hankel":
        pencil = lmi.hankel_lmi(args.n)
    else:
        if not args.interval:
            raise UsageError("--interval is required for the interval kind")
        pencil = lmi.interval_moment_lmi(args.n, parse_interval(args.interval))
    payload = lmi.lmi_to_json(pencil)
    if args.json:
        _write(args.json, json.dumps(payload, indent=2) + "\n")
        payload = dict(payload, written=args.json)
    if args.sdpa:
        objective = (parse_point(args.objective) if args.objective
                     else [Fraction(0)] * pencil.n)
        _write(args.sdpa, lmi.emit_sdpa(pencil, objective))
        payload = dict(payload, sdpa=args.sdpa)
    return payload


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _cmd_member(args) -> dict:
    from . import lmi
    point = parse_point(args.point)
    try:
        with open(args.lmi) as fh:
            pencil = lmi.lmi_from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load pencil: {exc}") from None
    return {"member": lmi.lmi_membership(pencil, point)}


def _cmd_support(args) -> dict:
    from . import hull
    _check_n(args.n)
    s = parse_interval(args.interval)
    curve = hull.moment_curve(args.n, s)
    l = parse_point(args.l)
    width = parse_rational(args.width)
    if 0 < width < Fraction(1, 10 ** _MIN_WIDTH_EXPONENT):  # support_min_exact refuses <= 0
        raise ValueError(f"--width must be at least 1/10^{_MIN_WIDTH_EXPONENT}, got {args.width}")
    enc = hull.support_min_exact(l, curve, width)
    return {"l": [str(c) for c in l], "enclosure": [str(enc.lo), str(enc.hi)],
            "width": str(enc.width)}


def _cmd_cross_validate(args) -> dict:
    from . import hull, lmi
    _check_n(args.n)
    _check_range("--trials", args.trials, 1, MAX_TRIALS)
    s = parse_interval(args.interval)
    curve = hull.moment_curve(args.n, s)
    pencil = lmi.interval_moment_lmi(args.n, s)
    report = hull.cross_validate(curve, pencil, trials=args.trials, seed=args.seed)
    return report.to_json()


BASIS_HELP = f"comma-separated polynomials in t, exponents 0..{MAX_EXPONENT}"
EXTREME_BASIS_HELP = (f"{BASIS_HELP}; 1..{_MAX_EXTREME_BASIS} of them, "
                      f"each of degree at most {_MAX_EXTREME_DEGREE}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="curvehull",
        description="Exact toolkit for semidefinite representations of curve hulls")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("schur", help="Schur polynomial of a decreasing sequence")
    p.add_argument("--seq", required=True,
                   help=f"decreasing, 1..{MAX_SCHUR_N + 1} entries in 0..{MAX_SCHUR_ENTRY}")
    p.add_argument("--method", choices=("tableaux", "bialternant", "both"),
                   default="both")
    p.set_defaults(handler=_cmd_schur)

    p = sub.add_parser("verify-schur", help="identity and divisibility suites")
    p.add_argument("--max-n", type=int, default=3,
                   help=f"sequences of length up to max-n + 1, 0..{MAX_SCHUR_N} (default 3)")
    p.add_argument("--max-entry", type=int, default=6,
                   help=f"largest sequence entry, 0..{MAX_SCHUR_ENTRY} (default 6)")
    p.set_defaults(handler=_cmd_verify_schur)

    p = sub.add_parser("verify-diagonal",
                       help="factor a Taylor-process determinant and test the cofactor")
    p.add_argument("--basis", required=True, help=f"{BASIS_HELP}; 1..{MAX_SCHUR_N + 1} "
                   f"of them, each of degree at most {_MAX_DIAGONAL_DEGREE}")
    p.add_argument("--blocks", required=True)
    p.set_defaults(handler=_cmd_verify_diagonal)

    p = sub.add_parser("extreme", help="build and verify an extreme-ray candidate")
    p.add_argument("--basis", required=True, help=EXTREME_BASIS_HELP)
    p.add_argument("--interval", required=True)
    p.add_argument("--zeros", required=True)
    p.set_defaults(handler=_cmd_extreme)

    p = sub.add_parser("verify-extreme", help="extremality report for a member")
    p.add_argument("--basis", required=True, help=EXTREME_BASIS_HELP)
    p.add_argument("--interval", required=True)
    p.add_argument("--poly", required=True, help=f"polynomial in t, exponents "
                   f"0..{MAX_EXPONENT}, of degree at most {_MAX_EXTREME_DEGREE}")
    p.set_defaults(handler=_cmd_verify_extreme)

    p = sub.add_parser("lmi", help="build a pencil; optionally write JSON/SDPA files")
    p.add_argument("--kind", choices=("hankel", "interval"), required=True)
    p.add_argument("--n", type=int, required=True, help=f"ambient dimension, 1..{MAX_N}")
    p.add_argument("--interval")
    p.add_argument("--objective", help="SDPA objective, one rational per coordinate; "
                   "needs --sdpa")
    p.add_argument("--json")
    p.add_argument("--sdpa")
    p.set_defaults(handler=_cmd_lmi)

    p = sub.add_parser("member", help="exact membership of a point in a pencil")
    p.add_argument("--lmi", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("support", help="enclose the minimum of a functional on a moment curve")
    p.add_argument("--n", type=int, required=True, help=f"ambient dimension, 1..{MAX_N}")
    p.add_argument("--interval", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--width", default="1/1000000", help=f"at least 1/10^{_MIN_WIDTH_EXPONENT}")
    p.set_defaults(handler=_cmd_support)

    p = sub.add_parser("cross-validate", help="hull oracles against the interval pencil")
    p.add_argument("--n", type=int, required=True, help=f"ambient dimension, 1..{MAX_N}")
    p.add_argument("--interval", required=True)
    p.add_argument("--trials", type=int, default=25,
                   help=f"probe count, 1..{MAX_TRIALS} (default 25)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_cross_validate)

    return parser


def _render_text(data, indent=0) -> str:
    pad = "  " * indent
    if isinstance(data, dict):
        return "\n".join(f"{pad}{k}: " + (("\n" + _render_text(v, indent + 1))
                                          if isinstance(v, (dict, list)) else str(v))
                         for k, v in data.items())
    if isinstance(data, list):
        return "\n".join(f"{pad}- " + (("\n" + _render_text(v, indent + 1))
                                       if isinstance(v, (dict, list)) else str(v))
                         for v in data)
    return f"{pad}{data}"


def run(argv) -> int:
    args = argparse.Namespace()  # argparse fills in --format before it can fail
    try:
        build_parser().parse_args(argv, args)
        result, code = args.handler(args), 0
    except UsageError as exc:
        result, code = {"error": str(exc), "usage": True}, 2
    except ValueError as exc:
        result, code = {"error": str(exc)}, 1
    if args.format == "json":
        print(json.dumps(result))
    elif code:
        print(f"{'usage error' if code == 2 else 'error'}: {result['error']}")
    else:
        print(_render_text(result))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
