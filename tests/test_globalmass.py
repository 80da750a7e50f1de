from __future__ import annotations

import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import digamma

from qfmass import cli, euler, forms, globalmass
from qfmass.arith import factor, is_prime, kronecker, primes_below
from qfmass.forms import QuadForm, enumerate_classes, proper_automorphism_count
from qfmass.globalmass import (
    L_TERMS_MAX,
    _char_period,
    _char_table,
    _error_bound,
    _l_terms,
    class_number,
    dirichlet_check,
    genus_census,
    is_fundamental_discriminant,
    l_value_truncated,
    mu_order,
    report_json_obj,
    total_mass_numeric,
    write_report_csv,
    write_report_json,
)


def kronecker_table(D: int) -> list[int]:
    """chi_D over one period from scalar kronecker calls, entry 0 being
    chi_D(P); the oracle for `_char_table`."""
    P = _char_period(D)
    return [kronecker(D, r) if r else kronecker(D, P) for r in range(P)]


def _l_value_reference(D: int, prime_bound: int) -> tuple[float, float, int]:
    """(value, error_estimate, prime_bound) of `l_value_truncated` by the
    M-term formulation: chi gathered as table[m % P] over all m <= M and the
    partial sums T(m) from a cumsum over all M terms.  The kernel reads
    chi and T from one period and sums chi(m)/m in another order: its bound
    and term count equal this oracle's, its value lies within the rounding
    part of the bound (`_rounding_part`)."""
    M = _l_terms(D, prime_bound)
    P = _char_period(D)
    table = _char_table(D)
    err = _error_bound(np.cumsum(np.roll(table, -1), dtype=np.int64), M)
    m = np.arange(1, M + 1)
    chi = table[m % P]
    inv = 1.0 / m
    del m
    chi_vals = chi.astype(np.float64)
    partial = float(np.dot(chi_vals, inv))
    del inv
    T = np.cumsum(chi_vals)
    T_mean = float(T[:P].mean())
    return partial + (T_mean - float(T[-1])) / (M + 1), err, M


def _rounding_part(M: int) -> float:
    """e2 = gamma_{M+2} (ln M + 2), the rounding part of `LTruncation`'s
    bound, which holds for any summation order."""
    nu = (M + 2) * 2.0**-53
    return nu / (1 - nu) * (math.log(M) + 2)


def assert_matches_reference(trunc, D: int, bound: int) -> None:
    value, err, M = _l_value_reference(D, bound)
    assert (trunc.error_estimate, trunc.prime_bound) == (err, M), (D, bound)
    assert abs(trunc.value - value) <= _rounding_part(M), (D, bound)


def l_value_by_digamma(D: int) -> float:
    """Exact L(1, chi_D) via the digamma closed form
    -(1/P) sum chi(r) psi(r/P); the independent oracle for the truncation."""
    P = _char_period(D)
    table = kronecker_table(D)
    return -sum(table[r] * digamma(r / P) for r in range(1, P)) / P


# ---------------------------------------------------------------------------
# census


def test_census_examples():
    rep = genus_census(3)
    assert len(rep.genera) == 1 and len(rep.classes) == 1
    assert rep.total_mass == Fraction(1, 12)
    assert rep.genera[0].aut_orders == [12]

    rep = genus_census(4)
    assert rep.total_mass == Fraction(1, 8)
    assert rep.genera[0].aut_orders == [8]

    rep = genus_census(23)
    assert len(rep.classes) == 3
    # a prime discriminant has a single genus holding all three classes
    assert len(rep.genera) == 1
    assert [proper_automorphism_count(f) for f in rep.genera[0].classes] == [2, 2, 2]
    assert rep.genera[0].aut_orders == [4, 2, 2]
    assert rep.total_mass == Fraction(3, 4)


def test_census_mass_convention():
    """Census total = sum over GL2(Z)-classes of 1/|Aut| = half the sum of
    1/|proper Aut| over proper classes."""
    for S in (3, 4, 12, 23, 32, 36, 48, 75):
        rep = genus_census(S)
        assert rep.total_mass == sum(
            (Fraction(1, 2 * proper_automorphism_count(f)) for f in rep.classes),
            Fraction(0),
        )
        assert rep.total_mass == sum((g.mass for g in rep.genera), Fraction(0))


def test_census_empty():
    for S in (1, 2, 9, 45):
        rep = genus_census(S)
        assert rep.genera == [] and rep.total_mass == 0


def _prime_discriminant_count(D: int) -> int:
    """Number of prime discriminants in the factorization of a fundamental D."""
    t = len([p for p, _ in factor(-D) if p != 2])
    if D % 4 == 0:
        t += 1  # the 2-part contributes exactly one prime discriminant
    return t


def test_genus_count_is_power_of_two_from_prime_discriminants():
    for D in range(-3, -501, -1):
        if not is_fundamental_discriminant(D):
            continue
        rep = genus_census(-D)
        t = _prime_discriminant_count(D)
        assert len(rep.genera) == 2 ** (t - 1), D


# ---------------------------------------------------------------------------
# L-values


@pytest.mark.parametrize(
    "Ds",
    [pytest.param([D for D in range(-3000, 0) if D % 4 != 3], id="-3000..-1")]
    + [
        pytest.param((D,), id=str(D))
        for D in (-99999, -100003, -104000, -95003, -104999, -999999, -999996,
                  -2**19, -3 * 5**8, -4 * 7**6)
    ],
)
def test_char_table_equals_kronecker(Ds):
    for D in Ds:
        table = _char_table(D)
        assert table.dtype == np.int8 and np.array_equal(table, kronecker_table(D)), D


@pytest.mark.parametrize(
    "Ds,bounds",
    [
        pytest.param([D for D in range(-3, -1001, -1) if D % 4 != 3], (100, 10**5), id="-1000..-3"),
        pytest.param((-99996, -100003, -104999, -999996), (10**5,), id="large"),
    ],
)
def test_l_value_equals_the_m_term_reference(Ds, bounds):
    for D in Ds:
        for bound in bounds:
            assert_matches_reference(l_value_truncated(D, bound), D, bound)


@pytest.mark.parametrize("D", [-3, -4, -163, -99996])
def test_l_value_is_within_rounding_of_the_correctly_rounded_sum(D):
    # bound 100 at D = -3 and -163 leaves M below one row of period-weight
    # sums, so no whole row is summed
    for bound in (100, 10**5):
        M = _l_terms(D, bound)
        P = _char_period(D)
        m = np.arange(1, M + 1)
        chi = _char_table(D)[m % P]
        T = np.cumsum(chi, dtype=np.int64)
        abel = (int(T[:P].sum()) / P - int(T[-1])) / (M + 1)
        exact = math.fsum((chi / m).tolist() + [abel])
        trunc = l_value_truncated(D, bound)
        assert trunc.prime_bound == M
        assert abs(trunc.value - exact) <= _rounding_part(M), (D, bound)


def test_l_values_reuse_the_kept_arrays_in_any_order(monkeypatch):
    # M = 999960, 10^4, 1049990, 100, 10^5, 999960, 10^5, the third past the
    # first's 16 * 2^16 kept terms: a shorter call after a longer one must
    # take the right slice of the kept 1/m, and give the value it gives with
    # a kept array of its own.  At (-3, 100), with L = 4098 > M, no full row
    # of period weights exists and all L weights but the first M must be 0
    calls = [
        (-99996, 10**5),
        (-1000, 100),
        (-104999, 10**5),
        (-3, 100),
        (-3, 10**5),
        (-99996, 10**5),
        (-23, 10**5),
    ]
    alone = {}
    for D, bound in calls:
        monkeypatch.setattr(globalmass, "_M_TERMS", globalmass._Reciprocals())
        alone[D, bound] = l_value_truncated(D, bound).value
    monkeypatch.setattr(globalmass, "_M_TERMS", globalmass._Reciprocals())
    for D, bound in calls:
        trunc = l_value_truncated(D, bound)
        assert_matches_reference(trunc, D, bound)
        assert trunc.value == alone[D, bound], (D, bound)
    assert len(globalmass._M_TERMS.inv) == 17 * globalmass._M_TERMS_STEP


def test_l_value_allocates_no_m_term_array():
    # after a warm call the kept 1/m is long enough: the P float64 period
    # weights (8 P) and the int8 table (P) are then the largest allocations,
    # beside the Legendre table and its (P - 1)/2 int64 squares at a prime P;
    # an array of M = 10 P float64 entries alone would be 80 P
    for D in (-99996, -300007):
        P = _char_period(D)
        l_value_truncated(D)
        tracemalloc.start()
        try:
            l_value_truncated(D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * P, D


@pytest.mark.parametrize(
    "Ds",
    [
        pytest.param([D for D in range(-3, -2001, -1) if D % 4 != 3], id="-2000..-3"),
        pytest.param((-7996, -99996, -104999), id="large"),
    ],
)
def test_l_value_is_bit_identical_to_the_rolled_period_kernel(Ds):
    # the kernel reads the unrolled table, whose entry 0 is chi_D(P) = 0; the
    # same sums over the period chi_D(1), ..., chi_D(P) rolled into a copy
    # must give the same value, bit for bit, and the same error bound
    for D in Ds:
        M = _l_terms(D, 10**5)
        period = np.roll(_char_table(D), -1)
        P = len(period)
        T_mean = -int(np.dot(period.astype(np.int64), np.arange(1, P + 1, dtype=np.int64))) / P
        T_M = int(period[: (M - 1) % P + 1].sum(dtype=np.int64))
        inv = 1.0 / np.arange(1, M + 1)
        L = P * -(-globalmass._ROW_TERMS_MIN // P)
        K = M // L
        wl = inv[: K * L].reshape(K, L).sum(0)
        wl[: M - K * L] += inv[K * L :]
        w = wl.reshape(-1, P).sum(0)
        value = float((w * period).sum()) + (T_mean - T_M) / (M + 1)
        trunc = l_value_truncated(D, 10**5)
        assert trunc.value.hex() == value.hex(), D
        assert trunc.error_estimate == _error_bound(np.cumsum(period, dtype=np.int64), M), D


def test_l_error_bound_is_computed_when_read(monkeypatch):
    calls = []

    def counted(T, M):
        calls.append(M)
        return _error_bound(T, M)

    monkeypatch.setattr(globalmass, "_error_bound", counted)
    trunc = l_value_truncated(-99996)
    assert calls == []
    assert trunc.error_estimate == _l_value_reference(-99996, 10**5)[1]


def test_l_truncation_is_an_immutable_triple():
    trunc = l_value_truncated(-23)
    D, M, value = trunc
    assert (D, M, value) == (trunc.D, trunc.prime_bound, trunc.value) and (D, M) == (-23, 10**5)
    for field in ("D", "prime_bound", "value"):
        with pytest.raises(AttributeError):
            setattr(trunc, field, 0)


def test_reports_never_read_the_l_error_bound(monkeypatch, capsys):
    def no_bound(T, M):
        raise AssertionError("error bound computed for a report")

    monkeypatch.setattr(globalmass, "_error_bound", no_bound)
    assert cli.main(["classify", "--det", "99996"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["det"] == 99996
    assert total_mass_numeric(99996)["census"] > 0
    assert dirichlet_check(-99995)["h"] >= 1


@pytest.mark.parametrize("D", [-3, -4, -23, -84, -163, -499])
def test_l_truncation_against_digamma_oracle(D):
    trunc = l_value_truncated(D, 10**5)
    exact = l_value_by_digamma(D)
    assert abs(trunc.value - exact) <= trunc.error_estimate


@pytest.mark.parametrize("D,bound", [(-3, 100), (-4, 100), (-8, 100), (-23, 100), (-6, 1000), (-150, 10**4)])
def test_l_error_bound_holds_at_short_truncations(D, bound):
    # M close to 10 P: the actual error is 16-50% of the proven bound here
    trunc = l_value_truncated(D, bound)
    assert abs(trunc.value - l_value_by_digamma(D)) <= trunc.error_estimate


def test_l_known_values():
    # L(1, chi_-4) = pi/4 and L(1, chi_-3) = pi/(3 sqrt 3)
    assert abs(l_value_truncated(-4).value - math.pi / 4) < 1e-8
    assert abs(l_value_truncated(-3).value - math.pi / (3 * math.sqrt(3))) < 1e-8


def test_l_truncation_validation():
    with pytest.raises(ValueError):
        l_value_truncated(5)
    with pytest.raises(ValueError):
        l_value_truncated(-3, 10)
    for D in (-1, -5, -9997):  # 3 mod 4: (D|2^k) = (D|2)^k has no period
        with pytest.raises(ValueError, match="3 mod 4"):
            l_value_truncated(D)
        with pytest.raises(ValueError, match="3 mod 4"):
            _char_table(D)


def test_l_truncation_refuses_oversized_term_counts(monkeypatch):
    def no_table(D):
        raise AssertionError("character table built for a refused L-value")

    monkeypatch.setattr(globalmass, "_char_table", no_table)
    builds = primes_below.cache_info().misses
    kept = len(globalmass._M_TERMS.inv)
    with pytest.raises(ValueError, match="terms"):
        l_value_truncated(-3, L_TERMS_MAX + 1)
    with pytest.raises(ValueError, match="terms"):
        l_value_truncated(-1_000_003)  # 10 |D| > L_TERMS_MAX
    assert primes_below.cache_info().misses == builds
    assert len(globalmass._M_TERMS.inv) == kept


def test_l_values_build_no_sieve():
    primes_below.cache_clear()
    is_prime.cache_clear()
    primes_below()  # the warm-up a benchmark round or acceptance run makes
    builds = primes_below.cache_info().misses
    # M = 10^6 + 3 terms, one past the default sieve, and M = 10^7 - 10
    assert l_value_truncated(-3, 10**6 + 3).prime_bound == 10**6 + 3
    assert l_value_truncated(-999_999).prime_bound == 9_999_990
    assert primes_below.cache_info().misses == builds


def test_l_truncation_stability_under_bound_increase():
    for D in (-20, -23):
        t1 = l_value_truncated(D, 10**5)
        t2 = l_value_truncated(D, 2 * 10**5)
        assert abs(t1.value - t2.value) <= t1.error_estimate + t2.error_estimate


# ---------------------------------------------------------------------------
# total mass vs the closed formula


@pytest.mark.parametrize(
    "S,expected",
    [(3, Fraction(1, 12)), (4, Fraction(1, 8)), (23, Fraction(3, 4))],
)
def test_total_mass_anchors(S, expected):
    res = total_mass_numeric(S, 10**5)
    assert res["census"] == expected
    assert res["rel_err"] <= 2e-3


def test_total_mass_sweep():
    for S in range(1, 121):
        res = total_mass_numeric(S, 10**5)
        if res["census"]:
            assert res["rel_err"] <= 2e-3, S
        else:
            assert res["rhs"] == 0.0


def _refuse(monkeypatch, targets):
    def refuse(*args):
        raise AssertionError(f"called with {args}")

    for mod, name in targets:
        monkeypatch.setattr(mod, name, refuse)


# everything that builds genera or forms; `class_count` reads only offsets
_GENERA_AND_FORMS = [
    (globalmass, "genus_partition"),
    (euler, "genus_partition"),
    (forms, "reduced_classes"),
    (euler, "reduced_classes"),
    (forms, "QuadForm"),
    (euler, "QuadForm"),
    (globalmass, "QuadForm"),
]


def test_total_mass_and_class_number_read_only_the_class_count(monkeypatch):
    dets = list(range(1, 301)) + list(range(99000, 99040))
    discs = [D for D in range(-3, -301, -1) if is_fundamental_discriminant(D)]
    expected_mass = {S: genus_census(S).total_mass for S in dets}
    expected_h = {D: len(enumerate_classes(-D)) for D in discs}
    _refuse(monkeypatch, _GENERA_AND_FORMS)
    for S in dets:
        res = total_mass_numeric(S)
        assert res["census"] == expected_mass[S], S
        assert (res["trunc"] is None) == (S % 4 in (1, 2)), S
    for D in discs:
        assert class_number(D) == expected_h[D], D


def test_total_mass_refuses_a_long_l_value_before_any_class_scan(monkeypatch):
    # 10^8 + 3 = 3 (mod 4) is realizable; its L-value needs 10^9 terms
    _refuse(
        monkeypatch,
        _GENERA_AND_FORMS
        + [(forms, "enumerate_classes"), (forms, "class_count"), (globalmass, "class_count"), (forms, "_window")],
    )
    with pytest.raises(ValueError, match="L-value needs"):
        total_mass_numeric(10**8 + 3)
    # an unrealizable S has no class and no L-value: census 0 with no scan
    res = total_mass_numeric(10**8 + 1)
    assert res["census"] == 0 and res["trunc"] is None and res["rhs"] == 0.0


@pytest.mark.parametrize("S", [0, -3])
def test_total_mass_refuses_a_nonpositive_determinant(S):
    with pytest.raises(ValueError, match="positive"):
        total_mass_numeric(S)


# ---------------------------------------------------------------------------
# class numbers


def test_fundamental_discriminants():
    assert is_fundamental_discriminant(-3)
    assert is_fundamental_discriminant(-4)
    assert is_fundamental_discriminant(-8)
    assert is_fundamental_discriminant(-23)
    assert not is_fundamental_discriminant(-9)
    assert not is_fundamental_discriminant(-12)
    assert not is_fundamental_discriminant(-1)
    assert not is_fundamental_discriminant(5)


def test_class_number_spot_values():
    assert class_number(-3) == 1
    assert class_number(-4) == 1
    assert class_number(-15) == 2
    assert class_number(-23) == 3
    assert class_number(-163) == 1


def test_class_number_rejects_non_fundamental():
    with pytest.raises(ValueError):
        class_number(-12)


def test_dirichlet_check_examples():
    res = dirichlet_check(-4)
    assert res["h"] == 1 and res["w"] == 4
    assert res["rel_err"] < 1e-3
    res = dirichlet_check(-3)
    assert res["h"] == 1 and res["w"] == 6 and res["rel_err"] < 1e-3
    res = dirichlet_check(-15)
    assert res["h"] == 2 and res["w"] == 2 and res["rel_err"] < 1e-3


def test_dirichlet_check_is_dirichlets_formula_to_the_bit():
    """`dirichlet_check` reads the total-mass check of S = -D scaled by 2w;
    the direct formula w sqrt(|D|)/(2 pi) L(1, chi_D) is its oracle.  The
    scale 2w is a power of two for w = 2, 4, so both floats keep every bit."""
    discs = [D for D in range(-3, -3001, -1) if is_fundamental_discriminant(D)]
    assert len(discs) == 911
    for D in discs:
        res = dirichlet_check(D)
        h, w = res["h"], res["w"]
        assert type(h) is int and h == class_number(D), D
        predicted = w * math.sqrt(-D) / (2 * math.pi) * l_value_truncated(D).value
        assert res["predicted"] == predicted, D
        assert res["rel_err"] == abs(predicted - h) / h, D


def test_mu_order():
    assert mu_order(-3) == 6 and mu_order(-4) == 4 and mu_order(-7) == 2


# ---------------------------------------------------------------------------
# serialization


def _written(write, objs) -> str:
    buf = io.StringIO()
    write(objs, buf)
    return buf.getvalue()


def test_report_json_fields_and_determinism():
    obj = report_json_obj(23, 10**5)
    assert obj["schema"] == 1
    assert obj["det"] == 23
    assert obj["classes"] == [[1, 1, 6], [2, -1, 3], [2, 1, 3]]
    assert obj["aut"] == [4, 2, 2]
    assert obj["genera"] == [[0, 1, 2]]
    assert obj["mass_exact"] == "3/4"
    assert obj["kappa"] == 1
    s1 = _written(write_report_json, [obj])
    s2 = _written(write_report_json, [report_json_obj(23, 10**5)])
    assert s1 == s2
    parsed = json.loads(s1)
    assert parsed[0]["mass_exact"] == "3/4"


def test_report_csv_round():
    objs = [report_json_obj(S, 10**5) for S in (3, 9, 23)]
    text = _written(write_report_csv, objs)
    lines = text.strip().split("\n")
    assert lines[0] == "det,classes,aut,genera,mass_exact,kappa,rhs_numeric,rel_err"
    assert len(lines) == 4
    assert lines[2].startswith("9,,,,0,1,")  # empty determinant row
    assert _written(write_report_csv, objs) == text


def test_streamed_json_equals_one_dump_of_the_list():
    objs = [report_json_obj(S, 10**5) for S in (3, 9, 23)]
    for n in range(len(objs) + 1):
        assert _written(write_report_json, objs[:n]) == json.dumps(objs[:n], indent=2, sort_keys=True) + "\n", n


def _dumped(objs: list[dict]) -> str:
    return json.dumps(objs, indent=2, sort_keys=True) + "\n"


def test_written_json_equals_the_stdlib_on_reports():
    objs = [report_json_obj(S, 10**5) for S in [*range(1, 2001), *range(99000, 99040)]]
    nulls = dict(objs[22], rhs_numeric=None, rel_err=None)
    for obj in [*objs, nulls]:
        assert _written(write_report_json, [obj]) == _dumped([obj]), obj["det"]
    for stream in ([], objs, [nulls, *objs[-3:]]):
        assert _written(write_report_json, stream) == _dumped(stream), len(stream)


_json_ints = st.integers(min_value=-(2**70), max_value=2**70)
_report_values = st.one_of(
    st.none(),
    _json_ints,
    st.text(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(_json_ints),
    st.lists(st.lists(_json_ints)),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.dictionaries(st.text(), _report_values, min_size=1), max_size=3))
@example([{"aut": [], "classes": [[], [2**64, -(2**63) - 1]], "s\u00e9\"": 'q"\\\u2028', "x": -0.0}])
def test_written_json_equals_the_stdlib_on_report_shaped_dicts(objs):
    assert _written(write_report_json, objs) == _dumped(objs)
