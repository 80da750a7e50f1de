"""Command-line front end: classify determinants, print Euler-factor
coefficients, and run the verification pipelines.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Identical invocations produce byte-identical output.

`main` builds its argument parser once per process, on its first call, and
reuses it on every later call; that first build binds each subcommand to the
`cmd_*` function the module held then.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Generator, Iterable, Iterator

from .arith import check_factorable, factor, is_prime, smallest_nonresidue
from .euler import (
    a_coeff,
    b_coeff,
    closed_form,
    closed_form_report,
    decomposition_check,
    genus_partition,
    sign_tuple_identity,
)
from .globalmass import (
    SCHEMA_VERSION,
    _l_terms,
    dirichlet_check,
    is_fundamental_discriminant,
    report_json_obj,
    write_report_csv,
    write_report_json,
)
from .mass import genus_mass_ratio


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


@contextlib.contextmanager
def _output(out_path: str | None):
    """The stream a command writes to: the file `out_path`, else stdout.  A
    reader that closes stdout early ends the output, not the command or its
    exit code; stdout then goes to os.devnull for the final flush."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _parse_range(args) -> range | None:
    if args.det is not None:
        if args.det < 1:
            return None
        return range(args.det, args.det + 1)
    lo, sep, hi = args.det_range.partition(":")
    if not sep:
        return None
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        return None
    if lo_i < 1 or hi_i < lo_i:
        return None
    return range(lo_i, hi_i + 1)


def cmd_classify(args) -> int:
    dets = _parse_range(args)
    if dets is None:
        return _fail_usage("classify needs --det S >= 1 or --det-range LO:HI")
    # L-value sizes grow with S: refuse the largest realizable S, and an S past
    # the factorization range, before any census
    top = max((S for S in dets[-4:] if S % 4 in (0, 3)), default=None)
    if top is not None:
        _l_terms(-top, args.prime_bound)
    check_factorable(dets[-1])
    # one report is held at a time: each is written as soon as it is built.
    # The first is built before the output opens, so an S refused there
    # writes nothing.
    objs = (report_json_obj(S, args.prime_bound) for S in dets)
    objs = itertools.chain([next(objs)], objs)
    write = write_report_json if args.format == "json" else write_report_csv
    with _output(args.out) as out:
        write(objs, out)
    return 0


# Most digits a printed Euler coefficient may have, below CPython's
# 4300-digit limit on int-to-str conversion.
EULER_DIGITS_MAX = 4000


def cmd_euler(args) -> int:
    p, u = args.p, args.unit
    if not is_prime(p):
        return _fail_usage(f"--p must be prime, got {p}")
    if u % p == 0:
        return _fail_usage(f"--unit must be a unit at {p}, got {u}")
    if args.terms < 1:
        return _fail_usage("--terms must be positive")
    # the coefficient at nu = terms - 1 has the denominator p^terms
    terms_max = int(EULER_DIGITS_MAX / math.log10(p))
    if args.terms > terms_max:
        return _fail_usage(
            f"--terms {args.terms} at p = {p} gives coefficients of more than"
            f" {EULER_DIGITS_MAX} digits; the largest accepted is {terms_max}"
        )
    coeff = a_coeff if args.which == "A" else b_coeff
    obj = {
        "schema": SCHEMA_VERSION,
        "p": p,
        "unit": u,
        "which": args.which,
        "coeffs": [str(coeff(p, u, nu)) for nu in range(args.terms)],
    }
    if args.closed_form:
        obj["closed_form_table"] = _rf_str(closed_form(p, u, args.which, "table"))
        obj["closed_form_as_printed"] = _rf_str(closed_form(p, u, args.which, "as-printed"))
        obj.update(closed_form_report(p, u, args.which, args.terms))
    with _output(args.out) as out:
        out.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return 0


def _rf_str(rf) -> str:
    def poly(cs):
        terms = (f"{c}" if i == 0 else f"{c}*X" if i == 1 else f"{c}*X^{i}" for i, c in enumerate(cs) if c)
        return " + ".join(terms) or "0"

    return f"({poly(rf.num)}) / ({poly(rf.den)})"


# Largest S the Hasse-constrained decomposition walk visits
CONSTRAINED_MAX_DET = 2000

# Most FAIL lines one verdict prints before its summary line
FAIL_LINES_MAX = 10


def _verdict(out: list[str], suite: Generator[str, None, str]) -> bool:
    """Append one verdict to `out`; return whether it passed.  The suite yields
    FAIL lines (the first FAIL_LINES_MAX are kept) and LEDGER notes (kept in
    place), then returns its title, which may count what its one pass saw."""
    failed = 0
    while True:
        try:
            line = next(suite)
        except StopIteration as end:
            out.append(f"{'FAIL' if failed else 'PASS'} {end.value}")
            return not failed
        failed += line.startswith("FAIL")
        if failed <= FAIL_LINES_MAX or line.startswith("LEDGER"):
            out.append(line)


def _decomposition(cases: Iterable[tuple[int, dict | None]], title: str) -> Generator[str, None, str]:
    """Check each case; the title may name the number of cases as `{cases}`."""
    checked = 0
    for S, cons in cases:
        checked += 1
        res = decomposition_check(S, cons)
        if not res["equal"]:
            at = f"S={S} constraints={cons}" if cons else f"S={S}"
            yield f"FAIL decomposition {at}: lhs={res['lhs']} rhs={res['rhs']}"
    return title.format(cases=checked)


def _constrained_cases(max_det: int) -> Iterator[tuple[int, dict]]:
    """Every S <= min(max_det, CONSTRAINED_MAX_DET) under every sign vector on
    every 1-, 2- and 3-subset of {2, 3, 5} u {p | S}, one case at a time."""
    for S in range(1, min(max_det, CONSTRAINED_MAX_DET) + 1):
        pool = sorted({2, 3, 5} | {p for p, _ in factor(S)})
        for k in (1, 2, 3):
            for primes in itertools.combinations(pool, k):
                for signs in itertools.product((1, -1), repeat=k):
                    yield S, dict(zip(primes, signs))


def _sign_tuples() -> Generator[str, None, str]:
    for t, c in itertools.product((1, 2, 3, 4), (1, -1)):
        if not sign_tuple_identity(t, c):
            yield f"FAIL sign-tuple |T|={t} c={c}"
    return "sign-tuple polynomial identity |T|<=4"


def _siegel(max_det: int) -> Generator[str, None, str]:
    multi = 0
    for S in range(1, max_det + 1):
        genera = genus_partition(S)
        multi += len(genera) >= 2
        for other in genera[1:]:
            local = genus_mass_ratio(other.symbols, genera[0].symbols)
            censusr = other.mass / genera[0].mass
            if local != censusr:
                yield f"FAIL siegel S={S}: census {censusr} vs local {local}"
    return f"siegel mass-ratio identity on {multi} multi-genus determinants <= {max_det}"


def _class_number(dmax: int, tol: float, prime_bound: int) -> Generator[str, None, str]:
    checked, worst = 0, 0.0
    for D in filter(is_fundamental_discriminant, range(-3, -dmax - 1, -1)):
        res = dirichlet_check(D, prime_bound)
        checked += 1
        worst = max(worst, res["rel_err"])
        if res["rel_err"] > tol:
            yield f"FAIL class-number D={D}: h={res['h']} predicted={res['predicted']:.6f}"
    return (
        f"class-number formula on {checked} fundamental discriminants"
        f" |D|<={dmax} (worst rel err {worst:.2e}, tol {tol:g})"
    )


# (u, A|B) -> the nu <= 10 at which the as-printed p = 2 closed form differs
# from the enumeration: the documented discrepancies, and the only ones.  At
# odd p both variants are the same row, so none is documented there.
TWO_ADIC_LEDGER = {
    (1, "A"): list(range(11)),
    (1, "B"): [],
    (3, "A"): list(range(1, 11)),
    (3, "B"): [2, 4, 6, 8, 10],
    (5, "A"): list(range(11)),
    (5, "B"): [],
    (7, "A"): list(range(1, 11)),
    (7, "B"): [2, 6, 8, 10],
}


def _closed_forms(units_by_prime: dict[int, Iterable[int]], title: str) -> Generator[str, None, str]:
    """Each table row matches the enumeration at nu <= 10, and each as-printed
    row misses it only where documented."""
    for p, units in units_by_prime.items():
        for u, which in itertools.product(units, ("A", "B")):
            rep = closed_form_report(p, u, which, 11)
            if not rep["table_matches"]:
                yield f"FAIL p={p} table closed form u={u} {which}"
            at, documented = rep["printed_mismatch_at"], TWO_ADIC_LEDGER[u, which] if p == 2 else []
            if at != documented:
                yield (
                    f"FAIL p={p} u={u} {which}: as-printed form disagrees with enumeration"
                    f" at nu={at}, documented nu={documented}"
                )
            elif at:
                yield (
                    f"LEDGER p={p} u={u} {which}: as-printed form disagrees with enumeration"
                    f" at nu={at} (documented discrepancy, not fatal)"
                )
    return title


def cmd_verify(args) -> int:
    if args.suite in ("decomposition", "siegel"):
        if args.max_det < 1:
            return _fail_usage("--max-det must be at least 1")
        check_factorable(args.max_det)  # a walk to 10^12 could never finish
        n = args.max_det
        constrained = f"decomposition constrained S<={min(n, CONSTRAINED_MAX_DET)} ({{cases}} cases)"
        suites = [
            _decomposition(((S, None) for S in range(1, n + 1)), f"decomposition unconstrained S<={n}"),
            _decomposition(_constrained_cases(n), constrained),
            _sign_tuples(),
        ] if args.suite == "decomposition" else [_siegel(n)]
    elif args.suite == "class-number":
        if not (math.isfinite(args.tol) and args.tol > 0):
            return _fail_usage("--tol must be a positive finite number")
        if args.dmax < 3:
            return _fail_usage("--dmax must be at least 3")
        _l_terms(-3, args.prime_bound)  # a bad --prime-bound is refused as such
        # L-value sizes grow with |D|: refuse the largest fundamental D before any check
        try:
            top = next(D for D in range(-args.dmax, 0) if is_fundamental_discriminant(D))
            _l_terms(top, args.prime_bound)
        except ValueError as exc:
            return _fail_usage(f"--dmax {args.dmax}: {exc}")
        suites = [_class_number(args.dmax, args.tol, args.prime_bound)]
    else:
        odd = {p: (1, smallest_nonresidue(p)) for p in (3, 5, 7, 11, 13)}
        odd_suite = _closed_forms(odd, "odd-p closed forms match enumeration (nu <= 10)")
        suites = [odd_suite, _closed_forms({2: (1, 3, 5, 7)}, "p=2 table closed forms match enumeration")]
    # written once every verdict is known: a closed stdout keeps the exit code
    lines: list[str] = []
    passed = [_verdict(lines, suite) for suite in suites]
    with _output(None) as out:
        out.write("\n".join(lines) + "\n")
    return 0 if all(passed) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call.  Reuse is
    safe: `parse_args` returns a fresh Namespace, every default is immutable
    and `prog` is fixed.  `set_defaults(func=...)` binds each `cmd_*`
    function at this first build, so a later rebinding of a `cmd_*` name is
    not seen."""
    ap = argparse.ArgumentParser(prog="qfmass", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="genus/class census for a determinant")
    dets = c.add_mutually_exclusive_group(required=True)
    dets.add_argument("--det", type=int)
    dets.add_argument("--det-range", type=str)
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.add_argument("--prime-bound", type=int, default=10**5)
    c.add_argument("--out", type=str, default=None)
    c.set_defaults(func=cmd_classify)

    e = sub.add_parser("euler", help="A/B Euler-factor coefficients at a prime")
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--unit", type=int, required=True)
    e.add_argument("--which", choices=("A", "B"), required=True)
    e.add_argument("--terms", type=int, default=8)
    e.add_argument("--closed-form", action="store_true")
    e.add_argument("--out", type=str, default=None)
    e.set_defaults(func=cmd_euler)

    # each suite takes only the flags it reads
    v = sub.add_parser("verify", help="run a verification suite")
    v.set_defaults(func=cmd_verify)
    suites = v.add_subparsers(dest="suite", required=True)
    for name in ("decomposition", "siegel"):
        suites.add_parser(name).add_argument("--max-det", type=int, default=500)
    cn = suites.add_parser("class-number")
    cn.add_argument("--dmax", type=int, default=200)
    cn.add_argument("--tol", type=float, default=1e-3)
    cn.add_argument("--prime-bound", type=int, default=10**5)
    suites.add_parser("euler-closed-forms")
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, ZeroDivisionError) as exc:
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
