"""Command-line front end.

Subcommands:
  validate   parse an instance file and report convergence status
  eval       direct evaluation of the series with tail refinement
  verify     check the parity identity: direct vs reduced side
  reduce     tabulate the reduced side (per-subset terms and coefficients)
  selftest   quick internal consistency checks, no instance needed

Exit codes: 0 success/pass, 1 fail, 2 invalid input, convergence not
established or a reduced side that cannot be assembled, 3 inconclusive.
Box sizes --M and --M-outer below 1 are invalid input, and so are a --tol
that is negative or not finite (nan, inf) and a negative --rho-variant.
So are boxes over the work budget: more than WORK_BUDGET direct terms
(M**r), direct form values (the largest row sum of A times M), or, for
some subset J, coset representatives times outer tuples (the sum of
|det B| over the bases B of Lambda_J, times M_outer**(r-|J|)).  Set
MDZETA_OUTPUT_DIR to also write the JSON report into that directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import evaluator, exact, genfun, mpseries
from .evaluator import ConvergenceNotEstablished, _cnum, _fnum
from .model import (
    WORK_BUDGET, SpecError, convergence_check, load_spec, nonempty_subsets, parse_spec,
    spec_to_dict,
)


def _box_size(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"box size must be >= 1, got {n}")
    return n


def _rho_variant(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"rho variant must be >= 0, got {n}")
    return n


def _tolerance(value: str) -> float:
    tol = float(value)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {value}")
    return tol


def _write_report(command: str, payload: dict) -> None:
    outdir = os.environ.get("MDZETA_OUTPUT_DIR")
    if not outdir:
        return
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{command}_report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(payload: dict, fmt: str, text_lines, csv_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        for line in csv_lines:
            print(line)
    else:
        for line in text_lines:
            print(line)


def _spec_line(spec) -> str:
    return (
        f"instance: h={spec.h} k={spec.k} "
        f"y=({', '.join(str(v) for v in spec.y)}) A={[list(r) for r in spec.A]}"
    )


def _within_budget(spec, M: int, M_outer: int | None = None) -> bool:
    """True when the boxes fit WORK_BUDGET; otherwise print why and return False."""
    if M**spec.r > WORK_BUDGET:
        return _refuse(
            f"--M {M} at r={spec.r} gives {M}^{spec.r} = {M**spec.r} direct terms"
        )
    # the direct side tabulates 1/f^k for every form value f up to this
    values = spec.max_row_sum * M
    if values > WORK_BUDGET:
        return _refuse(
            f"--M {M} with a largest row sum of A of {spec.max_row_sum} gives "
            f"{values} direct form values"
        )
    if M_outer is None:
        return True
    # the reduced side reads every coset representative of every basis of
    # Lambda_J at every outer tuple over Jbar; the count is known from the
    # basis determinants, before any coset is enumerated
    for J in nonempty_subsets(spec.r):
        count, outer = genfun.coset_count(spec, J), spec.r - len(J)
        if count * M_outer**outer > WORK_BUDGET:
            return _refuse(
                f"--M-outer {M_outer} at J={set(J)} gives {count} coset representatives "
                f"times {M_outer}^{outer} outer tuples = {count * M_outer**outer}"
            )
    return True


def _refuse(why: str) -> bool:
    print(f"error: {why}, over the work budget of {WORK_BUDGET}", file=sys.stderr)
    return False


def _load(path: str):
    try:
        return load_spec(path)
    except (OSError, json.JSONDecodeError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


# ----------------------------------------------------------------- validate


def cmd_validate(args) -> int:
    spec = _load(args.spec)
    if spec is None:
        return 2
    verdict = convergence_check(spec, user_asserted=args.assert_convergence)
    payload = {
        "spec": spec_to_dict(spec),
        "valid": True,
        "convergence": {"status": verdict.status, "reason": verdict.reason},
    }
    text = [
        _spec_line(spec),
        "valid: yes",
        f"convergence: {verdict.status} ({verdict.reason})",
    ]
    csv = [
        "field,value",
        "valid,yes",
        f"convergence,{verdict.status}",
    ]
    _emit(payload, args.output, text, csv)
    _write_report("validate", payload)
    return 0


# --------------------------------------------------------------------- eval


def cmd_eval(args) -> int:
    spec = _load(args.spec)
    if spec is None or not _within_budget(spec, args.M):
        return 2
    verdict = convergence_check(spec, user_asserted=args.assert_convergence)
    if not verdict.established:
        print(f"error: convergence not established: {verdict.reason}", file=sys.stderr)
        return 2
    refined = evaluator.zeta_refined(spec, args.M)
    payload = {
        "spec": spec_to_dict(spec),
        "parameters": {"M": args.M},
        "convergence": {"status": verdict.status, "reason": verdict.reason},
        "partial_sum": _cnum(refined.partial.value),
        "tail_estimate": _fnum(refined.partial.tail_estimate),
        "slow": refined.partial.slow,
        "correction": _cnum(refined.correction),
        "value": _cnum(refined.value),
        "uncertainty": _fnum(refined.uncertainty),
        "fitted": refined.fitted,
        "terms": refined.partial.terms,
    }
    v = refined.value
    text = [
        _spec_line(spec),
        f"box sum (M={args.M}, {refined.partial.terms} terms): "
        f"{refined.partial.value.real:.15g} + {refined.partial.value.imag:.15g}i",
        f"tail heuristic: {refined.partial.tail_estimate:.3g}"
        + ("  [slow decay]" if refined.partial.slow else ""),
        f"fitted correction: {refined.correction.real:.6g} + {refined.correction.imag:.6g}i"
        + ("" if refined.fitted else "  [no reliable fit]"),
        f"value: {v.real:.15g} + {v.imag:.15g}i  (+- {refined.uncertainty:.3g})",
    ]
    csv = [
        "M,value_re,value_im,uncertainty,partial_re,partial_im,tail_estimate,fitted",
        f"{args.M},{_fnum(v.real)},{_fnum(v.imag)},{_fnum(refined.uncertainty)},"
        f"{_fnum(refined.partial.value.real)},{_fnum(refined.partial.value.imag)},"
        f"{_fnum(refined.partial.tail_estimate)},{refined.fitted}",
    ]
    _emit(payload, args.output, text, csv)
    _write_report("eval", payload)
    return 0


# ------------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    spec = _load(args.spec)
    if spec is None or not _within_budget(spec, args.M, args.M_outer):
        return 2
    try:
        report = evaluator.verify_parity(
            spec,
            M=args.M,
            M_outer=args.M_outer,
            tol=args.tol,
            rho_variant=args.rho_variant,
            assume_convergence=args.assert_convergence,
        )
    except ConvergenceNotEstablished as exc:
        print(f"error: convergence not established: {exc}", file=sys.stderr)
        return 2
    payload = report.to_json_dict()
    lhs = report.lhs_value
    text = [
        _spec_line(spec),
        f"convergence: {report.convergence.status} ({report.convergence.reason})",
        f"parity case: {report.parity_case} (sign {report.parity_sign:+d})",
        f"direct side:  zeta(+y) = {report.zeta_plus.value.real:.15g} + "
        f"{report.zeta_plus.value.imag:.15g}i  (+- {report.zeta_plus.uncertainty:.3g})",
        f"              zeta(-y) = {report.zeta_minus.value.real:.15g} + "
        f"{report.zeta_minus.value.imag:.15g}i  (+- {report.zeta_minus.uncertainty:.3g})",
        f"              lhs      = {lhs.real:.15g} + {lhs.imag:.15g}i",
        "reduced side:",
    ]
    for t in report.rhs.terms:
        tv = t.value
        text.append(
            f"  J={set(t.J)} I={set(t.I)} sign={t.sign:+d} rho={t.rho}: "
            f"{tv.real:.15g} + {tv.imag:.15g}i  (+- {t.refined.uncertainty:.3g})"
        )
    text += [
        f"              total    = {report.rhs.total.real:.15g} + "
        f"{report.rhs.total.imag:.15g}i",
        f"residual = {report.residual:.6g}  tolerance = {report.tol:g}  "
        f"tails = {report.tails_total:.6g}",
        f"verdict: {report.verdict}",
    ]
    csv = ["section,J,I,sign,value_re,value_im,tail"]
    for t in report.rhs.terms:
        csv.append(
            f"term,{' '.join(map(str, t.J))},{' '.join(map(str, t.I))},{t.sign},"
            f"{_fnum(t.value.real)},{_fnum(t.value.imag)},{_fnum(t.refined.uncertainty)}"
        )
    csv.append(
        f"rhs_total,,,,{_fnum(report.rhs.total.real)},{_fnum(report.rhs.total.imag)},"
        f"{_fnum(report.rhs.tails_total)}"
    )
    csv.append(f"lhs,,,,{_fnum(lhs.real)},{_fnum(lhs.imag)},")
    csv.append(f"residual,,,,{_fnum(report.residual)},,{report.verdict}")
    _emit(payload, args.output, text, csv)
    _write_report("verify", payload)
    return {"pass": 0, "inconclusive": 3, "fail": 1}[report.verdict]


# ------------------------------------------------------------------- reduce


def cmd_reduce(args) -> int:
    spec = _load(args.spec)
    if spec is None or not _within_budget(spec, args.M, args.M_outer):
        return 2
    verdict = convergence_check(spec, user_asserted=args.assert_convergence)
    if not verdict.established:
        print(f"error: convergence not established: {verdict.reason}", file=sys.stderr)
        return 2
    rhs = evaluator.rhs_total(spec, args.M_outer, rho_variant=args.rho_variant)
    refined = evaluator.zeta_refined(spec, args.M)
    cor = evaluator.corollary(spec, refined.value, rhs.total)
    terms_payload = []
    sample_text = []
    for t in rhs.terms:
        dval = t.unit_D
        terms_payload.append(
            {
                "J": list(t.J),
                "I": list(t.I),
                "sign": t.sign,
                "rho": list(t.rho),
                "T": _cnum(t.value),
                "tail": _fnum(t.refined.uncertainty),
                "outer_sum_exact": t.exact,
                "D_at_unit_outer": _cnum(dval),
            }
        )
        label = "(no outer sum)" if t.exact else f"(outer tuple = all ones)"
        sample_text.append(
            f"  J={set(t.J)} I={set(t.I)} sign={t.sign:+d}: T = {t.value.real:.12g} + "
            f"{t.value.imag:.12g}i (+- {t.refined.uncertainty:.2g}); "
            f"D {label} = {dval.real:.12g} + {dval.imag:.12g}i"
        )
    payload = {
        "spec": spec_to_dict(spec),
        "parameters": {"M": args.M, "M_outer": args.M_outer},
        "convergence": {"status": verdict.status, "reason": verdict.reason},
        "terms": terms_payload,
        "rhs_total": _cnum(rhs.total),
        "tails_total": _fnum(rhs.tails_total),
        "corollary": evaluator.corollary_json(cor),
    }
    text = [
        _spec_line(spec),
        f"reduction over {len(rhs.terms)} nonempty subsets (M_outer={args.M_outer}):",
        *sample_text,
        f"rhs total = {rhs.total.real:.15g} + {rhs.total.imag:.15g}i  "
        f"(tails +- {rhs.tails_total:.3g})",
        f"corollary [{cor['case']}]: series side = {cor['series_side']:.15g}, "
        f"reduced side = {cor['reduced_side'].real:.15g} + "
        f"{cor['reduced_side'].imag:.15g}i, delta = {cor['delta']:.3g}",
    ]
    csv = ["J,I,sign,T_re,T_im,tail,D_ones_re,D_ones_im"]
    for t, tp in zip(rhs.terms, terms_payload):
        csv.append(
            f"{' '.join(map(str, t.J))},{' '.join(map(str, t.I))},{t.sign},"
            f"{tp['T']['re']},{tp['T']['im']},{tp['tail']},"
            f"{tp['D_at_unit_outer']['re']},{tp['D_at_unit_outer']['im']}"
        )
    _emit(payload, args.output, text, csv)
    _write_report("reduce", payload)
    return 0


# ----------------------------------------------------------------- selftest


def _selftest_bernoulli() -> bool:
    expected = [
        Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
        Fraction(-1, 30), Fraction(0), Fraction(1, 42), Fraction(0),
        Fraction(-1, 30), Fraction(0), Fraction(5, 66), Fraction(0),
        Fraction(-691, 2730),
    ]
    return all(mpseries.BERNOULLI.number(n) == e for n, e in enumerate(expected))


# Per check: an untwisted spec, J, and the raw top coefficient of G as a
# function of the one outer variable.  At outer values 1..5 every tuple
# takes the assembly path the check names.
_ZETA2 = math.pi**2 / 6
_CLOSED_FORMS = (
    ("mt_r3 J={1,2}, regular path", {"h": [1, 1, 1], "k": [2], "A": [[1, 1, 1]]}, (1, 2),
     lambda a: 10 * _ZETA2 / a**2 - 12 / a**4),
    ("root_a2 J={1}, singular path", {"h": [1, 1], "k": [1, 1, 1], "A": [[1, 0], [0, 1], [1, 1]]},
     (1,), lambda b: 2 * _ZETA2 / b - 3 / b**3),
    ("mt_r2 J={1}, regular path", {"h": [1, 1], "k": [1], "A": [[1, 1]]}, (1,),
     lambda s: 2 / s**2),
)


def _selftest_closed_form(data: dict, J: tuple, closed) -> bool:
    spec = parse_spec({**data, "y": ["0"] * len(data["h"])})
    plan = genfun.GeneratingFunctionPlan(spec, J)
    outer = range(1, 6)
    got = plan.evaluate_batch([[x] for x in outer])[:, plan.top]
    return all(abs(g - closed(x)) <= 1e-12 * abs(closed(x)) for g, x in zip(got, outer))


def _selftest_singleton() -> bool:
    # -[t^h] of the Bernoulli factor at offset 0 is 2 zeta(h), h even
    for h, expected in ((2, math.pi**2 / 3), (4, math.pi**4 / 45)):
        got = -mpseries.bernoulli_coefficients(h, 0)[h]
        if abs(got - expected) > 1e-10:
            return False
    return True


def cmd_selftest(args) -> int:
    checks = [("bernoulli table", _selftest_bernoulli)]
    checks += [
        (f"closed form, {name}", functools.partial(_selftest_closed_form, data, J, closed))
        for name, data, J, closed in _CLOSED_FORMS
    ]
    checks.append(("singleton coefficients", _selftest_singleton))
    failed = 0
    for name, fn in checks:
        ok = fn()
        print(f"selftest: {name}: {'ok' if ok else 'FAIL'}")
        failed += 0 if ok else 1
    return 1 if failed else 0


# ------------------------------------------------------------------ parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdzeta",
        description="Twisted multiple Dirichlet series: evaluation, reduction, "
        "and parity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_spec=True):
        if needs_spec:
            p.add_argument("--spec", required=True, help="instance JSON file")
        p.add_argument(
            "--output", choices=("text", "json", "csv"), default="text",
            help="output format (default text)",
        )
        p.add_argument(
            "--assert-convergence", action="store_true",
            help="proceed even when no sufficient convergence condition matches",
        )

    p = sub.add_parser("validate", help="validate an instance file")
    add_common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("eval", help="evaluate the series directly")
    add_common(p)
    p.add_argument("--M", type=_box_size, default=400, help="box size (default 400)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="verify the parity identity")
    add_common(p)
    p.add_argument("--M", type=_box_size, default=400, help="direct-side box size")
    p.add_argument("--M-outer", type=_box_size, default=400, help="reduced-side box size")
    p.add_argument("--tol", type=_tolerance, default=1e-6, help="residual tolerance, finite and >= 0")
    p.add_argument("--rho-variant", type=_rho_variant, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("reduce", help="tabulate the reduced side")
    add_common(p)
    p.add_argument("--M", type=_box_size, default=400, help="box size for the corollary check")
    p.add_argument("--M-outer", type=_box_size, default=400)
    p.add_argument("--rho-variant", type=_rho_variant, default=0)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("selftest", help="internal consistency checks")
    p.set_defaults(fn=cmd_selftest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call of main.

    It holds no results and parse_args leaves it unchanged, so calls do
    not see each other's options.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SpecError, exact.ExactError, mpseries.SingularConfiguration) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
