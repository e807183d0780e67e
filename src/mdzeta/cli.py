"""Command-line front end.

Subcommands:
  validate   parse an instance file and report convergence status
  eval       direct evaluation of the series with tail refinement
  verify     check the parity identity: direct vs reduced side
  reduce     tabulate the reduced side (per-subset terms and coefficients)
  selftest   quick internal consistency checks, no instance needed

Exit codes: 0 success/pass, 1 fail, 2 invalid input or convergence not
established, 3 inconclusive.  Box sizes --M and --M-outer below 1 are
invalid input.  --threads is still accepted and validated but has no
effect: the direct side runs in one thread.  Set MDZETA_OUTPUT_DIR to also
write the JSON report into that directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import evaluator, exact, genfun, mpseries, mtoracle
from .evaluator import ConvergenceNotEstablished, _cnum, _fnum
from .model import SpecError, convergence_check, load_spec, parse_spec, spec_to_dict


THREADS_HELP = "accepted and validated ('N' >= 1 or 'auto') but has no effect"


def _thread_count(value: str) -> int:
    if value == "auto":
        return max(1, os.cpu_count() or 1)
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("threads must be >= 1 or 'auto'")
    return n


def _box_size(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"box size must be >= 1, got {n}")
    return n


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
    if spec is None:
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
    if spec is None:
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
    if spec is None:
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


def _selftest_telescoping() -> bool:
    for size in (2, 3):
        variables = tuple(f"t{i}" for i in range(1, size + 1))
        caps = (4,) * size
        total = 4
        one = mpseries.constant(1.0, variables, caps, total)
        lhs = mpseries.zero(variables, caps, total)
        prefix = one
        for i in range(1, size + 1):
            ei = mpseries.exp_2pii_linear({f"t{i}": 1}, variables, caps, total)
            lhs = mpseries.series_add(
                lhs, mpseries.series_mul(mpseries.series_sub(ei, one), prefix)
            )
            prefix = mpseries.series_mul(prefix, ei)
        rhs = mpseries.series_sub(
            mpseries.exp_2pii_linear({v: 1 for v in variables}, variables, caps, total),
            one,
        )
        if mpseries.max_abs(mpseries.series_sub(lhs, rhs)) > 1e-12:
            return False
    return True


def _selftest_closed_form() -> bool:
    spec = parse_spec({"h": [1, 1], "k": [1], "y": ["0", "0"], "A": [[1, 1]]})
    for J, m_outer in (((1, 2), {}), ((1,), {2: 3})):
        got = genfun.compute_G(spec, J, m_outer).series
        want = mtoracle.mt_closed_form_G(spec, J, m_outer)
        diff = mpseries.series_sub(got, want)
        if mpseries.max_abs(diff) > 1e-10:
            return False
    return True


def _selftest_singleton() -> bool:
    rho = exact.choose_rho([(1,)])
    pairing = exact.dot(rho.coords, exact.dual_basis([(1,)])[0])
    c = exact.fractional_part(Fraction(0), pairing)
    for h, expected in ((2, math.pi**2 / 3), (4, math.pi**4 / 45)):
        # -D/h! where D = h! * [t^h] of the Bernoulli factor
        beta = mpseries.bernoulli_factor(("t1",), (h,), h, "t1", c)
        got = -mpseries.coefficient(beta, (h,))
        if abs(got - expected) > 1e-10:
            return False
    return True


def cmd_selftest(args) -> int:
    checks = [
        ("bernoulli table", _selftest_bernoulli),
        ("telescoping identity", _selftest_telescoping),
        ("closed form vs assembly", _selftest_closed_form),
        ("singleton coefficients", _selftest_singleton),
    ]
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
    p.add_argument("--threads", type=_thread_count, default=1, help=THREADS_HELP)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="verify the parity identity")
    add_common(p)
    p.add_argument("--M", type=_box_size, default=400, help="direct-side box size")
    p.add_argument("--M-outer", type=_box_size, default=400, help="reduced-side box size")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--threads", type=_thread_count, default=1, help=THREADS_HELP)
    p.add_argument("--rho-variant", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("reduce", help="tabulate the reduced side")
    add_common(p)
    p.add_argument("--M", type=_box_size, default=400, help="box size for the corollary check")
    p.add_argument("--M-outer", type=_box_size, default=400)
    p.add_argument("--threads", type=_thread_count, default=1, help=THREADS_HELP)
    p.add_argument("--rho-variant", type=int, default=0)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("selftest", help="internal consistency checks")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
