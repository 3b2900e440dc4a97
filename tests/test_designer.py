"""Designer contracts: closed forms, LP properties, symmetrization, validation."""

import hashlib
import itertools
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from imvu import (
    DesignError,
    DesignSpec,
    MechanismTable,
    SymmetryError,
    ValidationReport,
    design_mvu,
    design_variance_grid_min,
    enforce_anadromic,
    fisher_sup,
    moments,
    validate_table,
)
from imvu import designer
from imvu.designer import _alphabet, _solve_lp, _symmetrized
from imvu.mechanism import PROB_FLOOR, table_violations

from conftest import LN3, get_table


def rr_closed_form(eps: float):
    """Hand-solved one-bit optimum: unbiasedness system plus tight DP ratio."""
    e = np.exp(eps)
    a1, a2 = -1.0 / (e - 1.0), e / (e - 1.0)
    p = e / (1.0 + e)
    return np.array([a1, a2]), np.array([[p, 1 - p], [1 - p, p]])


def table_variance(table) -> float:
    """Designer objective evaluated from the table itself."""
    _, variances = moments(table, table.grid)
    return float(np.sum(variances))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_design_recovers_randomized_response(rr_table):
    alphabet, probs = rr_closed_form(LN3)
    np.testing.assert_allclose(rr_table.alphabet, alphabet, atol=1e-5)
    np.testing.assert_allclose(rr_table.probs, probs, atol=1e-5)


@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0, 5.0])
def test_design_matches_closed_form_across_eps(eps):
    table = get_table(2, 2, eps)
    alphabet, probs = rr_closed_form(eps)
    np.testing.assert_allclose(table.alphabet, alphabet, atol=1e-5)
    np.testing.assert_allclose(table.probs, probs, atol=1e-5)


def test_design_lp_optimal_over_scale_grid():
    # independent optimality check: no scale on a dense grid beats the
    # designed table by more than grid resolution effects
    table = get_table(2, 2, LN3)
    best = table_variance(table)
    for scale in np.linspace(0.5, 2.5, 41):
        assert _solve_lp(2, 2, LN3, scale) >= best - 1e-6


def assert_no_privacy_table(table):
    np.testing.assert_allclose(table.alphabet, [0.0, 1.0], atol=1e-4)
    assert table.probs[0, 0] >= 1.0 - 1e-6
    assert table.probs[1, 1] >= 1.0 - 1e-6
    assert table_variance(table) <= 1e-6


def test_no_privacy_limit():
    assert_no_privacy_table(design_mvu(DesignSpec(2, 2, 50.0)))


@pytest.mark.parametrize("eps", [800.0, 1e6])
def test_no_privacy_limit_at_extreme_eps(eps):
    # e^eps overflows here; the bracket must still be the eps = 50 one
    assert DesignSpec(2, 2, eps).scale_range() == DesignSpec(2, 2, 50.0).scale_range()
    assert_no_privacy_table(design_mvu(DesignSpec(2, 2, eps)))


def test_variance_non_increasing_in_eps():
    for b_in, b_out in ((2, 2), (4, 4)):
        values = [table_variance(get_table(b_in, b_out, eps)) for eps in (0.5, 1.0, 2.0, 5.0)]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("b_in,b_out", [(3, 4), (5, 8)])
def test_variance_non_increasing_in_eps_wide_range(b_in, b_out):
    # a larger eps only widens the feasible set; golden section broke this
    # on both shapes (3x4: 0.130 at eps = 5, then 0.260 at eps = 10)
    epss = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0)
    values = [table_variance(get_table(b_in, b_out, eps)) for eps in epss]
    assert all(a >= b - 1e-9 * max(1.0, a) for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "b_in,b_out,eps,bound",
    [
        (3, 4, 10.0, 0.0351),  # golden section: 0.260, a local optimum at scale 1.51
        (8, 2, 0.1, 870.0),  # golden section: 1058.7, at the bracket end
        (4, 16, 40.0, 1.1038e-6),  # refinement margin without the r_max inset: 1.1197e-6
    ],
)
def test_scale_search_finds_global_optimum(b_in, b_out, eps, bound):
    assert table_variance(get_table(b_in, b_out, eps)) <= bound


@pytest.mark.parametrize("b_out", [2, 3])
def test_two_row_design_at_eps_25(b_out):
    # HiGHS calls the LP at the largest feasible 1/scale infeasible here
    # (2x2) or fails outright at the bracket end (2x3); the design must
    # still reach the randomized-response variance 2 e^eps / (e^eps - 1)^2.
    table = design_mvu(DesignSpec(2, b_out, 25.0))
    rr = 2.0 * np.exp(25.0) / np.expm1(25.0) ** 2
    assert table_variance(table) <= 1.02 * rr
    np.testing.assert_allclose(table.alphabet[[0, -1]], [0.0, 1.0], atol=1e-9)


@pytest.mark.parametrize("b_out, eps", [(128, 25.0), (256, 25.0), (256, 27.0)])
def test_wide_two_row_design_takes_no_lp_value_on_trust(b_out, eps):
    # HiGHS calls LPs of these searches optimal while their x misses the
    # rows; a search that took those values designed tables whose rows
    # missed unbiasedness by up to 0.98.  A solve counts only at its own x.
    table = design_mvu(DesignSpec(2, b_out, eps))
    assert validate_table(table).passed


@pytest.mark.parametrize("eps", [0.1, 1.0, 5.0, 10.0])
@pytest.mark.parametrize("b_out", [2, 8, 64, 256])
def test_two_row_design_is_randomized_response(b_out, eps):
    # A two-row design puts its mass on the end letters, as randomized
    # response does, and every other letter at or near the floor; up to
    # eps = 10 the floor mass moves the summed variance by under 2e-6
    # relative.  This oracle solves no LP, so it reaches 2x256.
    table = design_mvu(DesignSpec(2, b_out, eps))
    rr = 2.0 * np.exp(eps) / np.expm1(eps) ** 2
    assert abs(table_variance(table) - rr) <= 1e-5 * rr


def test_three_row_design_at_large_eps():
    # An all-pairs LP, whose end-to-end ratio row has growth e^25.4, made
    # HiGHS fail at some scales here and the search settle on a table with
    # variance 0.17, against 4.5e-5 at eps = 20.
    values = [table_variance(design_mvu(DesignSpec(3, 5, eps))) for eps in (20.0, 25.43352729340266)]
    assert values[1] <= values[0]


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


def test_design_size_guard():
    with pytest.raises(DesignError, match="4096"):
        design_mvu(DesignSpec(b_in=70, b_out=64, eps=1.0))


def test_design_reports_solver_failure(monkeypatch):
    monkeypatch.setattr(designer._HighsLP, "solve", lambda self, b_eq: None)
    with pytest.raises(DesignError, match="solver failed at every scale"):
        design_mvu(DesignSpec(2, 2, 1.0))


def _count_solves(monkeypatch):
    """Wrap the HiGHS model's ``solve``; the returned list gets one (model,
    right-hand side) entry per LP solve, its retry without presolve included."""
    solves = []
    solve = designer._HighsLP.solve

    def counting(self, b_eq):
        solves.append((self, b_eq.tobytes()))
        return solve(self, b_eq)

    monkeypatch.setattr(designer._HighsLP, "solve", counting)
    return solves


@settings(max_examples=30, deadline=20_000)
@given(
    b_in=st.integers(2, 8),
    b_out=st.integers(2, 16),
    log_eps=st.floats(np.log(5.0), np.log(40.0)),
)
# HiGHS's boundary noise near the largest feasible 1/scale looped the search
@example(b_in=3, b_out=16, log_eps=float(np.log(38.0)))
@example(b_in=3, b_out=16, log_eps=float(np.log(39.1788)))
def test_scale_search_ends_within_lp_bound(b_in, b_out, log_eps):
    with pytest.MonkeyPatch.context() as mp:
        solves = _count_solves(mp)
        design_mvu(DesignSpec(b_in, b_out, float(np.exp(log_eps))))
    assert len(solves) <= designer._LPS_PER_CELL * b_in * b_out
    assert len(set(solves)) == len(solves)


def test_scale_search_raises_at_lp_bound(monkeypatch):
    # 2x4 at eps = 5 takes five LPs; half an LP per cell stops it at four
    monkeypatch.setattr(designer, "_LPS_PER_CELL", 0.5)
    solves = _count_solves(monkeypatch)
    with pytest.raises(DesignError, match="bound of 4 LP solves"):
        design_mvu(DesignSpec(2, 4, 5.0))
    assert len(solves) == 4


@pytest.mark.parametrize("spec, count", [
    # design-lp's tables
    (DesignSpec(2, 2, LN3), 3), (DesignSpec(4, 4, 2.0), 3), (DesignSpec(8, 8, 3.0), 6),
    (DesignSpec(16, 4, 5.0), 4),
    # certify-rdp's
    (DesignSpec(2, 2, LN3, True), 3), (DesignSpec(2, 4, 2.0, True), 4), (DesignSpec(2, 8, 5.0, True), 5),
])
def test_scale_search_lp_count_of_benchmark_tables(monkeypatch, spec, count):
    solves = _count_solves(monkeypatch)
    design_mvu(spec)
    assert len(solves) == count


def test_scale_search_lp_count_at_32_rows(monkeypatch):
    # the sandwich solved 49 LPs here before it dropped the intervals its
    # end tangents rule out
    solves = _count_solves(monkeypatch)
    design_mvu(DesignSpec(32, 16, 4.0))
    assert len(solves) == 7


# The mirror quotient designs every table anadromic, which moved the bytes of
# the tables below but the 2x2 and the 2x4 (whose symmetrized design the
# quotient reproduces): each digest a test is named by was recorded on the
# full LP and maps to the quotient's digest of the same spec.
_QUOTIENT_DIGESTS = {
    "b5dd1b38da78084fc8b0e560dc39a5d0ba80b8356b9e40127a520749523d4125":
        "8e4f85e512bd469701950b639377927d2699e2ce426059d1b94a96f114cf149e",
    "d933f0cc5e0dc2a51da1752a9387fb1a5784bd9b1135e8368b85fc499e2a3b0b":
        "cdfb7e0a505c8ef3158a9498a126109406f200a6b256152f2620808af84acb40",
    "b3b9839783294c2d6fa4dcc655276514e21aad6293319f4fa0a6369e0702c1c7":
        "1df4f545b2afa885cdea0e9dd1a71a45a4f66fab70c8c35d2ffcd7c0594ad7a8",
    "2e1ef3a3f22e96b9a0a7b3a4b527ee1fa4450c6cc72490dc184b838a0b90e3bd":
        "449fb99d994564ecdc983e6c41eb9b9fe19c291cca2735b630b8db98e283431a",
    "fec2e421c9b04bbf2e675e247b8229f941516dd9d13bc0d099d086a817cf5950":
        "3569649453e2fe9322eb1a45d7e11f76c5f8e492b70e017982ebe8511132b874",
    "a407c40c77ed6de38919829a8ecc523f0a98444e91bee51a43880683d1e84ddf":
        "2f9f999591ab80bdb2ba1927bc4c23980bc8fdcb3a0cab26ff8a93d9561523e6",
    "a8b79b2f2b2fc43e8d58834938575b47e43cf56d48d52eacc1c66e16ea9b8603":
        "3c2a4351554ba6d3df9189339a4d518fbd669d1dde65d8c6bd6bce8eed3cd0d9",
    "6c519e0af3100111e179714520700e044ef9639d1cd9a91f02ea6ae7d019b32b":
        "b8fe54b3161e1e3ac9012e7cdf5e97f5609bc6f4ae4d4beb59044857be4a73d9",
}


# sha256 of alphabet and log_probs bytes, recorded before the search dropped
# intervals: the benchmark's design-lp and certify-rdp tables, 8x8 and 32x16,
# and two tables that pruning within 1e-3 of the least variance would move
@pytest.mark.parametrize(
    "b_in,b_out,eps,symmetrize,digest",
    [
        (2, 2, LN3, False, "5d310b1ec6198f63fe43b01f9ccb724b34a77509a1d0bcf3128a436cdcf8e405"),
        (4, 4, 2.0, False, "b5dd1b38da78084fc8b0e560dc39a5d0ba80b8356b9e40127a520749523d4125"),
        (8, 8, 3.0, False, "d933f0cc5e0dc2a51da1752a9387fb1a5784bd9b1135e8368b85fc499e2a3b0b"),
        (16, 4, 5.0, False, "b3b9839783294c2d6fa4dcc655276514e21aad6293319f4fa0a6369e0702c1c7"),
        (2, 2, LN3, True, "5d310b1ec6198f63fe43b01f9ccb724b34a77509a1d0bcf3128a436cdcf8e405"),
        (2, 4, 2.0, True, "a2a78b4ced89a233cb75f59a6bb37d09cc6b225315ba0849596780282f97ecfb"),
        (2, 8, 5.0, True, "2e1ef3a3f22e96b9a0a7b3a4b527ee1fa4450c6cc72490dc184b838a0b90e3bd"),
        (8, 8, 4.0, False, "fec2e421c9b04bbf2e675e247b8229f941516dd9d13bc0d099d086a817cf5950"),
        (32, 16, 4.0, False, "a407c40c77ed6de38919829a8ecc523f0a98444e91bee51a43880683d1e84ddf"),
        (4, 16, 1.0, False, "a8b79b2f2b2fc43e8d58834938575b47e43cf56d48d52eacc1c66e16ea9b8603"),
        (8, 16, 5.0, False, "6c519e0af3100111e179714520700e044ef9639d1cd9a91f02ea6ae7d019b32b"),
    ],
)
def test_designed_table_bytes(b_in, b_out, eps, symmetrize, digest):
    # symmetrize does nothing: every design is anadromic
    table = design_mvu(DesignSpec(b_in, b_out, eps, symmetrize))
    assert table.log_probs.tobytes() == design_mvu(DesignSpec(b_in, b_out, eps)).log_probs.tobytes()
    got = hashlib.sha256(table.alphabet.tobytes() + table.log_probs.tobytes()).hexdigest()
    assert got == _QUOTIENT_DIGESTS.get(digest, digest)


@settings(max_examples=200, deadline=None)
@given(
    quads=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)), min_size=1, max_size=2),
    s_lo=st.floats(0.5, 5.0),
    width=st.floats(1e-6, 5.0),
)
@example(quads=[(1.0, -5.0)], s_lo=1.0, width=3.0)  # least at the vertex, 2.5
@example(quads=[(0.0, -2.0), (1.0, -5.0)], s_lo=1.0, width=4.0)  # at the crossing, 3
def test_least_of_max_is_the_least_of_the_larger_quadratic(quads, s_lo, width):
    s_hi = s_lo + width
    s = np.linspace(s_lo, s_hi, 10_001)
    values = np.max([alpha * s**2 + gamma * s for alpha, gamma in quads], axis=0)
    least = designer._least_of_max(s_lo, s_hi, quads)
    margin = 1e-12 * np.max(np.abs(values))
    assert least <= values.min() + margin
    # a grid point lies within half a spacing of the minimizer, where the
    # larger quadratic moves by at most its steepest slope times that distance
    slope = max(2.0 * abs(alpha) * s_hi + abs(gamma) for alpha, gamma in quads)
    assert least >= values.min() - slope * (s[1] - s[0]) / 2.0 - margin


def _dense_quotient(b_in, b_out, eps, letters):
    """The quotient's (equality, ratio) rows from the dense ones: the columns
    of each mirror orbit summed, the mirrored rows dropped."""
    a_eq, a_ub = _dense_constraints(b_in, b_out, eps, letters)
    n = b_in * b_out
    orbit = np.zeros((n, (n + 1) // 2))
    orbit[np.arange(n), np.minimum(np.arange(n), np.arange(n)[::-1])] = 1.0
    kept = np.r_[:(b_in + 1) // 2, b_in:b_in + b_in // 2]
    return a_eq[kept] @ orbit, a_ub[:len(a_ub) // 2] @ orbit


def _dense_constraints(b_in, b_out, eps, letters):
    """The design LP's equality and ratio rows as dense ``np.kron`` products."""
    rows = np.eye(b_in)
    a_eq = np.vstack([np.kron(rows, np.ones(b_out)), np.kron(rows, letters)])
    step = eps / (b_in - 1)
    if step >= np.log(1.0 / PROB_FLOOR):
        return a_eq, np.zeros((0, b_in * b_out))
    here, ahead = np.eye(b_in - 1, b_in), np.eye(b_in - 1, b_in, k=1)
    growth = np.exp(step)
    return a_eq, np.kron(np.vstack([here - growth * ahead, ahead - growth * here]), np.eye(b_out))


class _PassedMatrices:
    """A stand-in for the HiGHS binding whose models record the CSC arrays
    they are passed, before HiGHS drops zero coefficients itself."""

    def __init__(self, core):
        self._core, self.matrices = core, []

    def __getattr__(self, name):
        return getattr(self._core, name)

    def _Highs(self):
        matrices = self.matrices

        class Highs:
            def passOptions(self, options):
                pass

            def passModel(self, lp):
                a = lp.a_matrix_
                matrices.append([np.array(a.start_), np.array(a.index_), np.array(a.value_)])

        return Highs()


@pytest.mark.parametrize("b_in,b_out,eps", [(3, 3, 2.0), (5, 4, 0.5), (4, 5, 10.0), (2, 3, 40.0),
                                            (3, 4, 60.0), (2, 4, 25.0)])
def test_highs_models_are_passed_the_dense_rows(monkeypatch, b_in, b_out, eps):
    # odd sizes put a zero in the letters and in the free LP's column, a
    # middle row or a middle letter that is its own mirror (b_in even and
    # b_out odd: a ratio row whose two cells share an orbit), and 2 rows at
    # eps = 40 or 3 at eps = 60 drop every ratio row, the 3 rows' middle
    # simplex row holding both cells of an orbit; at 2x4 eps = 25 the ratio
    # rows carry e^25.  The search's model must be passed the
    # CSC arrays of the dense quotient rows, and the free LP's and the
    # oracle's those of the dense rows, zeros left out
    import scipy.optimize._highspy._core as core
    from scipy.sparse import csc_array

    letters, offsets = designer._letters(b_out), np.arange(b_in) / (b_in - 1) - 0.5
    a_eq, a_ub = _dense_constraints(b_in, b_out, eps, letters)
    free = (np.hstack([a_eq, np.concatenate([np.zeros(b_in), -offsets])[:, None]]),
            np.hstack([a_ub, np.zeros((a_ub.shape[0], 1))]))
    alphabet = _alphabet(b_out, 0.5)  # a zero letter
    cases = [_dense_quotient(b_in, b_out, eps, letters), free,
             _dense_constraints(b_in, b_out, eps, alphabet)]
    calls, solver = [], designer._lp_solver

    def recording(cost, rows, bounds=(PROB_FLOOR, 1.0)):
        calls.append((cost, rows, bounds))
        return solver(cost, rows, bounds)

    monkeypatch.setattr(designer, "_lp_solver", recording)
    design_mvu(DesignSpec(b_in, b_out, eps))
    passed = _PassedMatrices(core)
    for call in calls:
        designer._HighsLP(passed, *call)
    rows = designer._columns(*designer._rows(b_in, b_out, eps, alphabet))
    designer._HighsLP(passed, np.tile(alphabet**2, b_in), rows, (PROB_FLOOR, 1.0))
    assert len(passed.matrices) == len(cases)
    for got, (ref_eq, ref_ub) in zip(passed.matrices, cases):
        ref = csc_array(np.vstack([ref_ub, ref_eq]))
        assert all(map(np.array_equal, got, (ref.indptr, ref.indices, ref.data)))


def _design_on_both_solvers(spec):
    """Design ``spec`` with every LP of the scale search solved on its HiGHS
    model and through ``_linprog``, asserting that (failure, fun, x,
    equality duals) are equal; returns the solves ``_linprog`` retried
    without presolve."""
    import scipy.optimize._highspy._core as core

    retries = []

    def recording(*args, **kwargs):
        if not kwargs["options"]["presolve"]:
            retries.append(kwargs["b_eq"])
        return linprog(*args, **kwargs)

    def both(cost, rows, bounds=(PROB_FLOOR, 1.0)):
        model = designer._HighsLP(core, cost, rows, bounds)

        def solve(b_eq):
            got = model.solve(b_eq)
            ref = designer._linprog(cost, rows, b_eq, bounds)
            assert (got is None) == (ref is None)
            if got is not None:
                assert len(got) == len(ref) == 3
                assert all(np.array_equal(a, b) for a, b in zip(got, ref))
            return got

        return solve

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(designer, "linprog", recording)
        mp.setattr(designer, "_lp_solver", both)
        design_mvu(spec)
    return retries


@settings(max_examples=40, deadline=None)
@given(
    b_in=st.integers(2, 8),
    b_out=st.integers(2, 16),
    log_eps=st.floats(np.log(0.05), np.log(40.0)),
)
def test_highs_model_matches_linprog(b_in, b_out, log_eps):
    # the free LP and every tangent LP, r_max among them, each on its own
    # model in search order
    _design_on_both_solvers(DesignSpec(b_in, b_out, float(np.exp(log_eps))))


@pytest.mark.parametrize("b_in", [2, 3])
def test_highs_model_retries_without_presolve_as_linprog(b_in):
    # presolve fails one of the search's LPs on 2x4 at eps = 25 and 3x4 at eps = 40
    assert _design_on_both_solvers(DesignSpec(b_in, 4, {2: 25.0, 3: 40.0}[b_in]))


@pytest.mark.parametrize("spec", [DesignSpec(4, 8, 3.0), DesignSpec(2, 3, 25.0)])
def test_design_falls_back_to_linprog_without_the_highs_binding(monkeypatch, spec):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["options"]["presolve"])
        return linprog(*args, **kwargs)

    monkeypatch.setattr(designer, "linprog", counting)
    on_model = design_mvu(spec)
    assert calls == []
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    on_linprog = design_mvu(spec)
    assert calls
    assert on_linprog.log_probs.tobytes() == on_model.log_probs.tobytes()
    assert on_linprog.alphabet.tobytes() == on_model.alphabet.tobytes()


@pytest.mark.parametrize("spec", [DesignSpec(4, 8, 3.0), DesignSpec(2, 3, 40.0)])
def test_design_on_the_highs_binding_needs_no_scipy_sparse(monkeypatch, spec):
    # the model is passed the column-wise rows as built; 2 rows at eps = 40
    # drop every ratio row
    import scipy.optimize._highspy._core  # noqa: F401

    on_model = design_mvu(spec)
    monkeypatch.setitem(sys.modules, "scipy.sparse", None)
    table = design_mvu(spec)
    assert table.log_probs.tobytes() == on_model.log_probs.tobytes()
    assert table.alphabet.tobytes() == on_model.alphabet.tobytes()


@pytest.mark.parametrize("b_in", [2, 3, 4, 8, 16, 32])
def test_lp_feasible_at_bracket_upper_end(b_in):
    # the search relies on hi being feasible for every spec it may see
    for b_out in (2, 3, 4, 8, 16):
        for eps in (0.01, 0.1, 0.5, 1.0, 5.0, 20.0, 40.0):
            _, hi = DesignSpec(b_in, b_out, eps).scale_range()
            value = _solve_lp(b_in, b_out, eps, hi)
            assert np.isfinite(value), (b_in, b_out, eps)


def test_spec_validation():
    with pytest.raises(ValueError):
        DesignSpec(1, 2, 1.0)
    with pytest.raises(ValueError):
        DesignSpec(2, 2, -1.0)
    with pytest.raises(ValueError, match="eps=1e-17 is too small"):
        DesignSpec(2, 2, 1e-17)


@pytest.mark.parametrize("field,args", [
    ("b_in", (2.0, 2)), ("b_out", (2, 2.5)), ("b_in", (True, 2)), ("b_out", (2, "4")),
])
def test_spec_rejects_sizes_that_are_not_integers(field, args):
    # a float size built, and design_mvu then failed inside numpy
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        DesignSpec(*args, 1.0)


@pytest.mark.parametrize("eps", [True, "1.0", None, [1.0]])
def test_spec_rejects_an_eps_that_is_not_a_real_number(eps):
    # a bool eps designed a table whose saved file could not be loaded
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        DesignSpec(2, 2, eps)


def test_spec_takes_numpy_integer_sizes():
    table = design_mvu(DesignSpec(np.int64(2), np.int32(2), LN3))
    assert table.log_probs.tobytes() == design_mvu(DesignSpec(2, 2, LN3)).log_probs.tobytes()


def test_spec_takes_a_numpy_float32_eps():
    # a float32 eps put float32 steps into the repair, and the 4x4 design
    # then failed its metric-DP check by 6e-8
    table = design_mvu(DesignSpec(4, 4, np.float32(2.0)))
    assert type(table.design_eps) is float
    assert table.log_probs.tobytes() == design_mvu(DesignSpec(4, 4, 2.0)).log_probs.tobytes()


def _all_pairs_lp(b_in, b_out, eps, scale):
    """Reference LP with a ratio row for every ordered pair of grid points.

    Returns the variance, inf if infeasible, or None if the solver failed.
    """
    alphabet = _alphabet(b_out, scale)
    grid = np.arange(b_in, dtype=float) / (b_in - 1)
    n = b_in * b_out
    a_eq = np.zeros((2 * b_in, n))
    for i in range(b_in):
        a_eq[i, i * b_out : (i + 1) * b_out] = 1.0
        a_eq[b_in + i, i * b_out : (i + 1) * b_out] = alphabet
    rows = []
    for i in range(b_in):
        for k in range(b_in):
            gap = eps * abs(grid[i] - grid[k])
            if i == k or gap >= np.log(1.0 / PROB_FLOOR):
                continue
            for j in range(b_out):
                row = np.zeros(n)
                row[i * b_out + j] = 1.0
                row[k * b_out + j] = -np.exp(gap)
                rows.append(row)
    a_ub = np.array(rows).reshape(-1, n)
    # retried once without presolve, as the designer does: presolve can call
    # a feasible LP on the feasibility boundary infeasible
    for presolve in (True, False):
        res = linprog(
            np.tile(alphabet**2, b_in),
            A_ub=a_ub,
            b_ub=np.zeros(a_ub.shape[0]),
            A_eq=a_eq,
            b_eq=np.concatenate([np.ones(b_in), grid]),
            bounds=[(PROB_FLOOR, 1.0)] * n,
            method="highs",
            options={**designer._LP_OPTIONS, "presolve": presolve},
        )
        if res.success:
            break
    if res.status not in (0, 2):
        return None
    return float(res.fun - np.sum(grid**2)) if res.success else np.inf


@settings(max_examples=60, deadline=None)
@given(
    b_in=st.integers(2, 8),
    b_out=st.integers(2, 8),
    log_eps=st.floats(np.log(0.05), np.log(30.0)),
    frac=st.floats(0.0, 1.0),
)
# presolve called this feasible boundary LP infeasible
@example(b_in=2, b_out=2, log_eps=3.25, frac=0.0)
def test_adjacent_row_lp_matches_all_pairs_lp(b_in, b_out, log_eps, frac):
    # On a uniform grid the adjacent ratio rows telescope to every pair.
    # HiGHS can fail on the all-pairs LP once a non-adjacent growth nears
    # 1/PROB_FLOOR (it called the bounded 3x5 LP at eps = 25.4 unbounded);
    # such a draw says nothing about the reduction.
    eps = float(np.exp(log_eps))
    lo, hi = DesignSpec(b_in, b_out, eps).scale_range()
    scale = lo + frac * (hi - lo)
    reference = _all_pairs_lp(b_in, b_out, eps, scale)
    assume(reference is not None)
    adjacent = _solve_lp(b_in, b_out, eps, scale)
    assert np.isfinite(adjacent) == np.isfinite(reference)
    if np.isfinite(reference):
        assert abs(adjacent - reference) <= 1e-8


@settings(max_examples=20, deadline=None)
@given(
    b_in=st.integers(2, 8),
    b_out=st.integers(2, 8),
    log_eps=st.floats(np.log(0.05), np.log(30.0)),
)
# the scale search looped here before it kept off the largest feasible 1/scale
@example(b_in=3, b_out=16, log_eps=float(np.log(38.0)))
@example(b_in=3, b_out=16, log_eps=float(np.log(39.1788)))
# the grid sizes the branch-and-bound search reaches
@example(b_in=32, b_out=4, log_eps=float(np.log(2.0)))
@example(b_in=64, b_out=2, log_eps=0.0)
@example(b_in=128, b_out=2, log_eps=float(np.log(4.0)))
@example(b_in=16, b_out=16, log_eps=float(np.log(4.0)))
def test_design_variance_at_most_scale_grid_min(b_in, b_out, log_eps):
    # the parametric search is exact, so no scale of a dense grid over the
    # whole bracket (both ends included) may beat the designed table
    eps = float(np.exp(log_eps))
    value = table_variance(design_mvu(DesignSpec(b_in, b_out, eps)))
    oracle = design_variance_grid_min(b_in, b_out, eps, 61)
    assert value <= oracle + 1e-8 * max(1.0, abs(value))


def _search_lps(spec):
    """Design ``spec``; returns the search's LP as ``solve(b_eq)`` (a cold
    solve on its model), r_max from the free LP, and the (r, g, slope) of
    every LP the search solved."""
    models = []
    solver = designer._lp_solver

    def recording(cost, rows, bounds=(PROB_FLOOR, 1.0)):
        solve, log = solver(cost, rows, bounds), []
        models.append((solve, log))

        def logged(b_eq):
            log.append((b_eq, solve(b_eq)))
            return log[-1][1]

        return logged

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(designer, "_lp_solver", recording)
        design_mvu(spec)
    (solve, log), (_, [(_, top)]) = models
    # the quotient's equality rows: (b_in + 1) // 2 simplex rows, then the
    # mean rows of the offsets below 0
    h, kept = (spec.b_in + 1) // 2, _offsets(spec.b_in)[:spec.b_in // 2]
    points = [(b_eq[h] / kept[0], sol[0], float(sol[2][h:] @ kept))
              for b_eq, sol in log if sol is not None]
    return solve, float(top[1][-1]), points


def _offsets(b_in):
    return np.arange(b_in) / (b_in - 1) - 0.5


def _mirror_value(solve, b_in, r):
    """The quotient LP's value at -r, or None where it failed."""
    kept = _offsets(b_in)[:b_in // 2]
    sol = solve(np.concatenate([np.ones((b_in + 1) // 2), -kept * r]))
    return None if sol is None else sol[0]


@settings(max_examples=30, deadline=None)
@given(
    b_in=st.integers(2, 8),
    b_out=st.integers(2, 16),
    log_eps=st.floats(np.log(0.05), np.log(40.0)),
)
@example(b_in=3, b_out=16, log_eps=float(np.log(39.1788)))
@example(b_in=4, b_out=5, log_eps=float(np.log(10.0)))  # a ratio row within one orbit
@example(b_in=2, b_out=8, log_eps=float(np.log(5.0)))  # the quotient's LP at r_max fails
def test_quotient_value_is_the_full_lp_value(b_in, b_out, log_eps):
    # the LP over mirror-symmetric tables has the full LP's value at every r
    # the search solves; r_max is solved on the feasibility boundary, and
    # ratio rows of e^22 or more make HiGHS return suboptimal vertices
    eps = float(np.exp(log_eps))
    assume(not 22.0 <= eps / (b_in - 1) < np.log(1.0 / PROB_FLOOR))
    _, top, points = _search_lps(DesignSpec(b_in, b_out, eps))
    letters = designer._letters(b_out)
    rows = designer._columns(*designer._rows(b_in, b_out, eps, letters))
    for r, g, _ in points:
        if r != top:
            full = designer._linprog(np.tile(letters**2, b_in), rows,
                                     np.concatenate([np.ones(b_in), _offsets(b_in) * r]))
            assert full is not None and abs(full[0] - g) <= 1e-9 * abs(g)


@settings(max_examples=30, deadline=None)
@given(
    b_in=st.integers(2, 8),
    b_out=st.integers(2, 16),
    log_eps=st.floats(np.log(0.05), np.log(40.0)),
)
@example(b_in=3, b_out=16, log_eps=float(np.log(39.1788)))
@example(b_in=2, b_out=5, log_eps=float(np.log(40.0)))  # no ratio rows
def test_lp_value_is_even_and_search_slopes_are_non_negative(b_in, b_out, log_eps):
    # _best_scale takes the least variance among its solved LPs: reversing
    # the letters maps the LP at r to the LP at -r, so the convex g is even
    # and its slopes on the bracket are >= 0.  r_max is solved on the
    # feasibility boundary, where HiGHS's g is noisy; ratio rows of e^22 or
    # more make HiGHS return suboptimal vertices (the test below)
    eps = float(np.exp(log_eps))
    assume(not 22.0 <= eps / (b_in - 1) < np.log(1.0 / PROB_FLOOR))
    solve, top, points = _search_lps(DesignSpec(b_in, b_out, eps))
    for r, g, slope in points:
        assert slope >= -designer._PIECE_TOL * max(1.0, abs(g))
        if r != top:
            mirror = _mirror_value(solve, b_in, r)
            assert mirror is not None and abs(mirror - g) <= 1e-9 * abs(g)


@pytest.mark.xfail(raises=AssertionError, reason="HiGHS's dual simplex returns a "
                   "suboptimal vertex when the ratio rows carry e^25")
def test_lp_value_is_even_where_ratio_rows_carry_e25():
    # at r ~ 1/2 the middle letters alone give g = 2/9; HiGHS reports 5/18
    # with slope -1/3 at r and 11/18 at -r
    solve, _, points = _search_lps(DesignSpec(2, 4, 25.0))
    r, g, slope = min(points)
    assert slope >= 0.0
    assert abs(_mirror_value(solve, 2, r) - g) <= 1e-9 * g


@settings(max_examples=40, deadline=None)
@given(
    b_in=st.integers(2, 8),
    b_out=st.integers(2, 8),
    log_eps=st.floats(np.log(0.05), np.log(30.0)),
)
def test_repair_keeps_adjacent_ratios_and_means(b_in, b_out, log_eps):
    # _repair_probs ends with a renormalization that shifts each row's logs
    # by the log of its sum; on designed tables that must not break the
    # adjacent ratio bound beyond 1e-10, far inside METRIC_DP_TOL = 1e-9
    eps = float(np.exp(log_eps))
    table = design_mvu(DesignSpec(b_in, b_out, eps))
    excess = np.max(np.abs(np.diff(table.log_probs, axis=0))) - eps / (b_in - 1)
    assert excess <= 1e-10
    assert np.max(np.abs(table.probs @ table.alphabet - table.grid)) <= 1e-10


# ---------------------------------------------------------------------------
# anadromic symmetrization
# ---------------------------------------------------------------------------


def test_enforce_anadromic_fixed_point(rr_table):
    out = enforce_anadromic(rr_table)
    np.testing.assert_allclose(out.probs, rr_table.probs, atol=1e-15)


def test_enforce_anadromic_idempotent():
    once = get_table(2, 8, 1.0, symmetrize=True)
    twice = enforce_anadromic(once)
    np.testing.assert_allclose(twice.probs, once.probs, atol=1e-15)


def test_anadromic_average_formula():
    # the alphabet has a_0 + a_1 = 1 and makes the averaged rows unbiased
    probs = np.array([[0.8, 0.2], [0.25, 0.75]])
    table = _symmetrized(probs, [-9.0 / 22.0, 31.0 / 22.0], 1.4)
    np.testing.assert_allclose(table.probs, [[0.775, 0.225], [0.225, 0.775]], atol=1e-15)


ANADROMIC_SWEEP_EPS = (0.5, 1.0, 2.0, 5.0, 10.0)


@pytest.mark.parametrize("b_out", [2, 3, 4, 5, 8, 16])
def test_enforce_anadromic_passes_two_row_designs_bit_for_bit(b_out):
    for eps in ANADROMIC_SWEEP_EPS:
        designed = design_mvu(DesignSpec(2, b_out, eps))
        enforced = enforce_anadromic(designed)
        assert enforced.alphabet.tobytes() == designed.alphabet.tobytes()
        assert enforced.log_probs.tobytes() == designed.log_probs.tobytes()


@pytest.mark.parametrize("b_in", [3, 4, 5, 8])
def test_enforce_anadromic_moves_wider_designs_by_a_few_ulp(b_in):
    # the renormalisation sums a row and its mirror in different orders, so
    # beyond two rows the averaging is a fixed point only up to rounding;
    # each of these row counts has designs that move
    moved = 0
    for b_out, eps in itertools.product((2, 3, 4, 5, 8, 16), ANADROMIC_SWEEP_EPS):
        designed = design_mvu(DesignSpec(b_in, b_out, eps))
        enforced = enforce_anadromic(designed)
        assert enforced.alphabet.tobytes() == designed.alphabet.tobytes()
        shift = np.max(np.abs(enforced.log_probs - designed.log_probs))
        assert shift <= 4 * np.finfo(float).eps, (b_out, eps, shift)
        moved += bool(shift)
    assert moved > 0


def test_enforce_anadromic_rejects_asymmetric_alphabet():
    # with an alphabet whose endpoints do not sum to 1, averaging breaks
    # unbiasedness, which must surface as a symmetry error
    a = -4.0 / 11.0
    b = 16.0 / 11.0
    table = MechanismTable(
        alphabet=[a, b],
        log_probs=np.log([[0.8, 0.2], [0.25, 0.75]]),
        design_eps=1.4,
    )
    with pytest.raises(SymmetryError, match="unbiasedness"):
        enforce_anadromic(table)


def test_designed_two_row_tables_anadromic_and_fisher_ready():
    for b_out in (2, 4, 8):
        table = get_table(2, b_out, 1.0, symmetrize=True)
        logs = table.log_probs
        assert np.max(np.abs(logs[0] - logs[1, ::-1])) <= 1e-9
        assert table.anadromic
        m_value, _ = fisher_sup(table)
        assert m_value >= 0.0


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------


def test_validate_designed_table_passes(table_2x4):
    report = validate_table(table_2x4, tol=1e-6)
    assert report.tol == 1e-6
    assert report.passed
    assert report.failures == []


def test_validation_report_judges_at_its_tolerance():
    report = ValidationReport(checks={"simplex": 1e-3, "positivity": np.nan, "metric_dp": 0.0},
                              where={}, tol=1e-6)
    # a NaN violation fails, as the CLI's [FAIL] reads it
    assert report.failures == ["simplex", "positivity"]
    assert not report.passed
    assert replace(report, tol=1e-2).failures == ["positivity"]


def test_validate_flags_negated_probability():
    checks = table_violations(
        [-0.5, 1.5],
        LN3,
        # a file holds log probabilities only, so a lost letter reads -inf
        np.array([[np.log(0.75), -np.inf], [np.log(0.25), np.log(0.75)]]),
    )
    assert not checks["positivity"][0] <= 1e-6
    assert not checks["simplex"][0] <= 1e-6
    assert "row 0" in checks["positivity"][1]


def test_validate_flags_perturbed_alphabet(rr_table):
    checks = table_violations(rr_table.alphabet + 0.1, rr_table.design_eps, rr_table.log_probs)
    assert not checks["unbiasedness"][0] <= 1e-6


def test_validate_flags_metric_dp_break(rr_table):
    logs = np.array(rr_table.log_probs)
    logs[0, 0] += 0.5
    checks = table_violations(rr_table.alphabet, rr_table.design_eps, logs)
    assert not checks["metric_dp"][0] <= 1e-6


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, 0.0, -0.5, True, "0.5"])
def test_validate_flags_a_design_eps_that_is_not_positive_and_finite(eps):
    # a NaN eps made every metric-DP gap NaN, which never exceeded the
    # running maximum, so the check read (0.0, "") and a report passed
    alphabet, logs = [0.0, 1.0], np.log([[0.9, 0.1], [0.1, 0.9]])
    violation, where = table_violations(alphabet, eps, logs)["metric_dp"]
    assert violation == np.inf
    assert where.startswith(f"design_eps {eps!r} ")
    report = ValidationReport(checks={"metric_dp": violation}, where={}, tol=1e-6)
    assert report.failures == ["metric_dp"]
    # a valid eps keeps its value: the 2x2 table above is ln 9-private
    assert table_violations(alphabet, 0.5, logs)["metric_dp"][0] == pytest.approx(np.log(9) - 0.5)
    assert table_violations(alphabet, np.float32(5.0), logs)["metric_dp"] == (0.0, "")


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf, -np.inf, True, "1e-6"])
def test_validate_rejects_a_tolerance_that_is_not_finite_and_non_negative(rr_table, tol):
    with pytest.raises(ValueError, match="tol"):
        validate_table(rr_table, tol=tol)


def _metric_dp_pair_loop(design_eps, log_probs):
    """The metric-DP scan written as a loop over the pairs i < k: the largest
    violation and the first pair, then letter, that holds it."""
    b_in = len(log_probs)
    grid = np.arange(b_in, dtype=float) / (b_in - 1)
    dp_viol, where = 0.0, ""
    for i in range(b_in):
        for k in range(i + 1, b_in):
            gap = np.abs(log_probs[i] - log_probs[k]) - design_eps * abs(grid[i] - grid[k])
            m = float(gap.max())
            if m > dp_viol:
                dp_viol, where = m, f"rows ({i}, {k}), letter {int(gap.argmax())}"
    return dp_viol, where


@settings(max_examples=60, deadline=None)
@given(
    b_in=st.one_of(st.integers(2, 128), st.sampled_from([3, 5, 9, 17, 33, 65, 128])),
    b_out=st.integers(2, 8),
    pool=st.integers(1, 4),
    decimals=st.integers(0, 3),
    eps=st.floats(0.01, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
# rows from a pool of two on the exact grid i/32: pairs at one distance tie exactly
@example(b_in=33, b_out=4, pool=2, decimals=1, eps=0.5, seed=0)
@example(b_in=128, b_out=8, pool=4, decimals=3, eps=20.0, seed=1)
def test_metric_dp_check_matches_the_pair_loop(b_in, b_out, pool, decimals, eps, seed):
    rng = np.random.default_rng(seed)
    # rounded logits tie letters within a row; rows drawn from a small pool
    # repeat, so pairs tie exactly with each other
    logits = np.round(rng.normal(scale=2.0, size=(pool, b_out)), decimals)
    rows = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    log_probs = rows[rng.integers(pool, size=b_in)]
    checks = table_violations(np.linspace(0.0, 1.0, b_out), eps, log_probs)
    assert checks["metric_dp"] == _metric_dp_pair_loop(eps, log_probs)
