"""Command-line front end.

Subcommands:
  validate   parse an instance file and report convergence status
  eval       direct evaluation of the series with tail refinement
  verify     check the parity identity: direct vs reduced side
  reduce     tabulate the reduced side (per-subset terms and coefficients)
  selftest   quick internal consistency checks, no instance needed

Each subcommand but selftest runs one pre-flight, _prepare (load the spec;
for a box, the direct side's work budget; state why the series converges;
make MDZETA_OUTPUT_DIR), and one emitter, _emit (the JSON report to
MDZETA_OUTPUT_DIR/<subcommand>_report.json when that is set, then text, json
or csv on stdout).  reduce shows the reduced side that verify sums, per
term, and the corollary of its total against the direct sum, with no
verdict.  All rendering lives here: the evaluator returns numbers, and
each subcommand turns them into its JSON payload and its text and csv
lines, every float spelled by _fnum.

Exit codes: 0 success/pass, 1 fail, 2 invalid input or a reduced side
that cannot be assembled, 3 inconclusive.
A spec file that is missing, not UTF-8 or not valid JSON is invalid input,
and so is an MDZETA_OUTPUT_DIR that cannot be made a directory or a report
file in it that cannot be written.
Box sizes --M and --M-outer below 1 are invalid input, and so are a --tol
that is negative or not finite (nan, inf) and a negative --rho-variant.
So are boxes over the work budget: direct work (by the engine
evaluator.direct_cost picks) or direct form values (the largest row sum
of A times M) over WORK_BUDGET, refused by the pre-flight, or, for some
subset J, coset representatives times outer tuples (the plan's
coset_count, the sum of |det B| over the bases B of Lambda_J, times
M_outer**(r-|J|)), refused by evaluator.rhs_total as it builds its plans,
after MDZETA_OUTPUT_DIR is made but before any coset or shell.  A reduced
side cannot be assembled when a pole does not cancel, the exact layer
fails, or it needs a Bernoulli order past float
range (above 170).  Every refusal raises an exception that main turns
into one error: line and exit 2, with nothing on stdout and no traceback;
the pre-flight's refusals come before any summation and create nothing.
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
from .model import WORK_BUDGET, SpecError, convergence_check, load_spec, parse_spec, spec_to_dict


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


def _prepare(args, M: int | None = None):
    """(spec, convergence verdict); every refusal raises SpecError.

    Loads the spec; for a box M checks the direct side's work budget; then
    makes MDZETA_OUTPUT_DIR.  A refused run has summed nothing and created
    nothing.  The coset budget is rhs_total's.
    """
    try:
        spec = load_spec(args.spec)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecError(exc) from exc
    if M is not None:
        _check_budget(spec, M)
    verdict = convergence_check(spec)
    try:
        if outdir := os.environ.get("MDZETA_OUTPUT_DIR"):
            os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise SpecError(exc) from exc
    return spec, verdict


def _emit(command: str, payload: dict, fmt: str, text, csv) -> None:
    """Write the JSON report to MDZETA_OUTPUT_DIR when that is set, then print it as fmt."""
    report = json.dumps(payload, indent=2, sort_keys=True)
    if outdir := os.environ.get("MDZETA_OUTPUT_DIR"):
        try:
            with open(os.path.join(outdir, f"{command}_report.json"), "w", encoding="utf-8") as fh:
                fh.write(report + "\n")
        except OSError as exc:
            raise SpecError(exc) from exc
    for line in {"json": [report], "csv": csv}.get(fmt, text):
        print(line)


def _fnum(x: float) -> str:
    return f"{x:.17g}"


def _cnum(z: complex) -> dict:
    return {"re": _fnum(z.real), "im": _fnum(z.imag)}


def _ctext(z: complex, digits: int = 15) -> str:
    return f"{z.real:.{digits}g} + {z.imag:.{digits}g}i"


def _report_header(spec, convergence) -> dict:
    """The spec and convergence entries every JSON report opens with."""
    return {
        "spec": spec_to_dict(spec),
        "convergence": {"status": convergence.status, "reason": convergence.reason},
    }


def _corollary_json(cor: dict) -> dict:
    return {
        "case": cor["case"],
        "series_side": _fnum(cor["series_side"]),
        "reduced_side": _cnum(cor["reduced_side"]),
        "delta": _fnum(cor["delta"]),
    }


def _spec_line(spec) -> str:
    return (
        f"instance: h={spec.h} k={spec.k} "
        f"y=({', '.join(str(v) for v in spec.y)}) A={[list(r) for r in spec.A]}"
    )


def _check_budget(spec, M: int) -> None:
    """Raise SpecError when a direct box does not fit WORK_BUDGET."""
    engine, work = evaluator.direct_cost(spec, M)
    # the direct side tabulates 1/f^k for every form value f up to values
    r, row_sum, values = spec.r, spec.max_row_sum, spec.max_row_sum * M
    for work, what in (
        (work, f"at r={r} gives {M}^{r} = {M**r} direct terms, a work of {work} ({engine})"),
        (values, f"with a largest row sum of A of {row_sum} gives {values} direct form values"),
    ):
        if work > WORK_BUDGET:
            raise SpecError(f"--M {M} {what}, over the work budget of {WORK_BUDGET}")


# ----------------------------------------------------------------- validate


def cmd_validate(args) -> int:
    spec, verdict = _prepare(args)
    text = [_spec_line(spec), "valid: yes", f"convergence: {verdict.status} ({verdict.reason})"]
    csv = ["field,value", "valid,yes", f"convergence,{verdict.status}"]
    _emit("validate", {**_report_header(spec, verdict), "valid": True}, args.output, text, csv)
    return 0


# --------------------------------------------------------------------- eval


def cmd_eval(args) -> int:
    spec, verdict = _prepare(args, args.M)
    refined = evaluator.zeta_refined(spec, args.M)
    partial, v = refined.partial, refined.value
    payload = {
        **_report_header(spec, verdict),
        "parameters": {"M": args.M},
        "partial_sum": _cnum(partial.value),
        "tail_estimate": _fnum(partial.tail_estimate),
        "correction": _cnum(refined.correction),
        "value": _cnum(v),
        "uncertainty": _fnum(refined.uncertainty),
        "fitted": refined.fitted,
        "terms": partial.terms,
    }
    text = [
        _spec_line(spec),
        f"box sum (M={args.M}, {partial.terms} terms): {_ctext(partial.value)}",
        f"tail heuristic: {partial.tail_estimate:.3g}",
        f"fitted correction: {_ctext(refined.correction, 6)}"
        + ("" if refined.fitted else "  [no reliable fit]"),
        f"value: {_ctext(v)}  (+- {refined.uncertainty:.3g})",
    ]
    csv = [
        "M,value_re,value_im,uncertainty,partial_re,partial_im,tail_estimate,fitted",
        f"{args.M},{_fnum(v.real)},{_fnum(v.imag)},{_fnum(refined.uncertainty)},"
        f"{_fnum(partial.value.real)},{_fnum(partial.value.imag)},"
        f"{_fnum(partial.tail_estimate)},{refined.fitted}",
    ]
    _emit("eval", payload, args.output, text, csv)
    return 0


# ------------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    spec, verdict = _prepare(args, args.M)
    report = evaluator.verify_parity(
        spec, M=args.M, M_outer=args.M_outer, tol=args.tol, rho_variant=args.rho_variant
    )
    zp, zm, rhs = report.zeta_plus, report.zeta_minus, report.rhs
    lhs = report.lhs_value
    text = [
        _spec_line(spec),
        f"convergence: {verdict.status} ({verdict.reason})",
        f"parity case: {report.parity_case} (sign {report.parity_sign:+d})",
        f"direct side:  zeta(+y) = {_ctext(zp.value)}  (+- {zp.uncertainty:.3g})",
        f"              zeta(-y) = {_ctext(zm.value)}  (+- {zm.uncertainty:.3g})",
        f"              lhs      = {_ctext(lhs)}",
        "reduced side:",
    ]
    csv = ["section,J,I,sign,value_re,value_im,tail"]
    per_J = []
    for t in rhs.terms:
        term = {
            "J": list(t.J), "I": list(t.I), "sign": t.sign, "rho": list(t.rho),
            "value_re": _fnum(t.value.real), "value_im": _fnum(t.value.imag),
            "tail": _fnum(t.refined.uncertainty),
        }
        per_J.append(term)
        text.append(
            f"  J={set(t.J)} I={set(t.I)} sign={t.sign:+d} rho={t.rho}: "
            f"{_ctext(t.value)}  (+- {t.refined.uncertainty:.3g})"
        )
        csv.append(
            f"term,{' '.join(map(str, t.J))},{' '.join(map(str, t.I))},{t.sign},"
            f"{term['value_re']},{term['value_im']},{term['tail']}"
        )
    text += [
        f"              total    = {_ctext(rhs.total)}",
        f"residual = {report.residual:.6g}  tolerance = {args.tol:g}  "
        f"tails = {report.tails_total:.6g}",
        f"verdict: {report.verdict}",
    ]
    csv.append(
        f"rhs_total,,,,{_fnum(rhs.total.real)},{_fnum(rhs.total.imag)},{_fnum(rhs.tails_total)}"
    )
    csv.append(f"lhs,,,,{_fnum(lhs.real)},{_fnum(lhs.imag)},")
    csv.append(f"residual,,,,{_fnum(report.residual)},,{report.verdict}")
    payload = {
        **_report_header(spec, verdict),
        "parameters": {
            "M": args.M, "M_outer": args.M_outer, "tol": _fnum(args.tol),
            "rho_variant": args.rho_variant,
        },
        "lhs": {
            "parity_sign": report.parity_sign,
            "case": report.parity_case,
            "zeta_plus": _cnum(zp.value),
            "zeta_plus_tail": _fnum(zp.uncertainty),
            "zeta_minus": _cnum(zm.value),
            "zeta_minus_tail": _fnum(zm.uncertainty),
            "value": _cnum(lhs),
        },
        "rhs": {"total": _cnum(rhs.total), "per_J": per_J},
        "residual": _fnum(report.residual),
        "tails_total": _fnum(report.tails_total),
        "verdict": report.verdict,
        "corollary": _corollary_json(report.corollary()),
    }
    _emit("verify", payload, args.output, text, csv)
    return {"pass": 0, "inconclusive": 3, "fail": 1}[report.verdict]


# ------------------------------------------------------------------- reduce


def cmd_reduce(args) -> int:
    spec, verdict = _prepare(args, args.M)
    # verify's two sums in its order, the reduced side first; no verdict
    rhs = evaluator.rhs_total(spec, args.M_outer, rho_variant=args.rho_variant)
    series = evaluator.zeta_refined(spec, args.M).value
    cor = evaluator.corollary(evaluator.parity_sign(spec), series, rhs.total)
    text = [
        _spec_line(spec),
        f"reduction over {len(rhs.terms)} nonempty subsets (M_outer={args.M_outer}):",
    ]
    csv = ["J,I,sign,T_re,T_im,tail,D_ones_re,D_ones_im"]
    terms = []
    for t in rhs.terms:
        term = {
            "J": list(t.J), "I": list(t.I), "sign": t.sign, "rho": list(t.rho),
            "T": _cnum(t.value), "tail": _fnum(t.refined.uncertainty),
            "outer_sum_exact": t.exact, "D_at_unit_outer": _cnum(t.unit_D),
        }
        terms.append(term)
        label = "(no outer sum)" if t.exact else "(outer tuple = all ones)"
        text.append(
            f"  J={set(t.J)} I={set(t.I)} sign={t.sign:+d}: T = {_ctext(t.value, 12)} "
            f"(+- {t.refined.uncertainty:.2g}); D {label} = {_ctext(t.unit_D, 12)}"
        )
        csv.append(
            f"{' '.join(map(str, t.J))},{' '.join(map(str, t.I))},{t.sign},"
            f"{term['T']['re']},{term['T']['im']},{term['tail']},"
            f"{term['D_at_unit_outer']['re']},{term['D_at_unit_outer']['im']}"
        )
    text += [
        f"rhs total = {_ctext(rhs.total)}  (tails +- {rhs.tails_total:.3g})",
        f"corollary [{cor['case']}]: series side = {cor['series_side']:.15g}, "
        f"reduced side = {_ctext(cor['reduced_side'])}, delta = {cor['delta']:.3g}",
    ]
    payload = {
        **_report_header(spec, verdict),
        "parameters": {"M": args.M, "M_outer": args.M_outer},
        "terms": terms,
        "rhs_total": _cnum(rhs.total),
        "tails_total": _fnum(rhs.tails_total),
        "corollary": _corollary_json(cor),
    }
    _emit("reduce", payload, args.output, text, csv)
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
    got = plan.top_coefficients([[x] for x in outer])
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

    def add_common(p):
        p.add_argument("--spec", required=True, help="instance JSON file")
        p.add_argument(
            "--output", choices=("text", "json", "csv"), default="text",
            help="output format (default text)",
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
    except (SpecError, exact.ExactError, mpseries.SeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
