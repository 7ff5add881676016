import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triwitness import explore
from triwitness.channel import CouplingRangeError
from triwitness.explore import OptimizeConfig, Window, find_violation_window, optimize_settings
from triwitness.scenario import Scenario, build_table, canonical_w1_scenario
from triwitness.witness import QUANTUM_BOUND_W1, QUANTUM_BOUND_W2, w1, w2

TARGETS = ("w1_ab", "w1_ac", "w2_ab", "w2_ac")
BOUND = {"w1": QUANTUM_BOUND_W1, "w2": QUANTUM_BOUND_W2}
X_AXIS, Z_AXIS = [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]

coupling = st.floats(0.0, np.pi)
direction = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda v: np.linalg.norm(v) > 1e-3)
axis_pair = st.lists(direction, min_size=2, max_size=2).map(
    lambda vs: np.array(vs) / np.linalg.norm(vs, axis=1, keepdims=True)
)

# frozen analytic window endpoints
WINDOW_LO = 0.9989374565936864  # arcsin(2^(-1/4))
WINDOW_HI = 1.1437177404024205  # arccos(sqrt 2 - 1)
W1_AB_AT_1 = 2.178316411113274536
W1_AC_AT_1 = 2.0027340625567234


def small_cfg(**overrides):
    params = dict(target="w1_ab", eps=0.0, restarts=6, seed=11, tolerance=1e-9)
    params.update(overrides)
    return OptimizeConfig(**params)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizeConfig(target="w5_ab")
    with pytest.raises(ValueError):
        OptimizeConfig(target="w1_ab", restarts=0)
    with pytest.raises(ValueError):
        OptimizeConfig(target="w1_ab", tolerance=0.0)
    with pytest.raises(ValueError, match="seed"):
        OptimizeConfig(target="w1_ab", seed=-1)
    for field in ("seed", "restarts", "max_iterations"):
        for bad in (True, np.True_, 2.5, 2.0, "3"):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                OptimizeConfig(target="w1_ab", **{field: bad})
        assert getattr(OptimizeConfig(target="w1_ab", **{field: np.int64(3)}), field) == 3
    for field, message in (("eps", "eps must be a real number"), ("tolerance", "tolerance must be a finite")):
        for bad in (True, np.True_, "1.0", None):
            with pytest.raises(ValueError, match=message):
                OptimizeConfig(target="w1_ab", **{field: bad})
        for good in (1, np.int64(1), np.float64(1.0), np.float32(1.0)):
            value = getattr(OptimizeConfig(target="w1_ab", **{field: good}), field)
            assert type(value) is float and value == 1.0
    for bad in ("no", 1, None):
        with pytest.raises(ValueError, match="allow_mixed must be a bool"):
            OptimizeConfig(target="w1_ab", allow_mixed=bad)
    assert OptimizeConfig(target="w1_ab", allow_mixed=np.True_).allow_mixed is True


def _closed_form_maximum(target, eps):
    """Qubit maxima of each target at coupling eps, uniform z prior."""
    c, s = np.cos(eps), np.sin(eps)
    return {
        "w1_ab": 2.0 * np.sqrt(1.0 + c * c),
        "w2_ab": max(((1.0 + c) / 2.0) ** 2, abs(c)),
        "w1_ac": 2.0 * np.sqrt(2.0) * abs(s),
        "w2_ac": s * s,
    }[target]


ORACLE_COUPLINGS = [0.0, 0.08, 0.3, 1.0, np.pi / 2, 2.0, 3.0, 3.137, np.pi]
ORACLE_COUPLINGS += list(np.random.default_rng(5).uniform(0.0, np.pi, 20))


@pytest.mark.parametrize("target", TARGETS)
def test_search_recovers_the_closed_form_maximum_at_every_coupling(target):
    for eps in ORACLE_COUPLINGS:
        for seed in (0, 1):
            res = optimize_settings(OptimizeConfig(target=target, eps=float(eps), restarts=4, seed=seed))
            assert abs(res.value - _closed_form_maximum(target, eps)) < 1e-7, (eps, seed)
            assert res.converged and res.evaluations <= 100, (eps, seed, res.evaluations)


@pytest.mark.parametrize("eps", [float("nan"), -1.0, 4.0, float("inf")])
def test_config_rejects_couplings_outside_zero_to_pi(eps):
    with pytest.raises(CouplingRangeError):
        OptimizeConfig(target="w1_ab", eps=eps)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1e-9])
def test_config_rejects_non_finite_or_negative_tolerance(tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        OptimizeConfig(target="w1_ab", tolerance=tolerance)


def test_config_rejects_zero_iterations():
    with pytest.raises(ValueError, match="max_iterations"):
        OptimizeConfig(target="w1_ab", max_iterations=0)


def test_optimizer_is_deterministic():
    a = optimize_settings(small_cfg())
    b = optimize_settings(small_cfg())
    assert a.value == b.value
    assert a.evaluations == b.evaluations
    assert a.restart_index == b.restart_index
    assert np.array_equal(a.scenario.preparations, b.scenario.preparations)
    assert np.array_equal(a.scenario.bob_axes, b.scenario.bob_axes)
    assert np.array_equal(a.scenario.charlie_axes, b.scenario.charlie_axes)


def test_optimizer_beats_the_classical_bound_quickly():
    res = optimize_settings(small_cfg())
    assert res.value > 2.0
    assert res.max_evaluated <= QUANTUM_BOUND_W1 + 1e-9


def test_optimizer_respects_quantum_bounds():
    for target, bound in (("w1_ab", QUANTUM_BOUND_W1), ("w2_ab", QUANTUM_BOUND_W2)):
        res = optimize_settings(small_cfg(target=target, restarts=4, seed=3))
        assert res.max_evaluated <= bound + 1e-9
        assert abs(res.value) <= bound + 1e-9


def test_optimizer_does_not_beat_canonical_settings():
    res = optimize_settings(small_cfg(restarts=8, seed=5))
    canonical = w1(build_table(canonical_w1_scenario(), 0.0), "ab").value
    assert res.value <= canonical + 1e-9


def test_optimizer_ac_target_recovers_the_maximum():
    res = optimize_settings(small_cfg(target="w1_ac", eps=np.pi / 2, restarts=8, seed=21))
    assert res.value >= QUANTUM_BOUND_W1 - 1e-6
    assert res.max_evaluated <= QUANTUM_BOUND_W1 + 1e-9


def test_optimizer_w2_ac_target_recovers_the_maximum():
    res = optimize_settings(small_cfg(target="w2_ac", eps=np.pi / 2, restarts=16, seed=4))
    assert res.value >= QUANTUM_BOUND_W2 - 1e-6
    assert res.max_evaluated <= QUANTUM_BOUND_W2 + 1e-9


def test_optimizer_mixed_preparations_flag():
    res = optimize_settings(small_cfg(allow_mixed=True, restarts=4, seed=9))
    norms = np.linalg.norm(res.scenario.preparations, axis=1)
    assert np.all(norms <= 1.0 + 1e-12)
    assert res.value > 2.0


def test_w1_window_endpoints_match_analytic_values():
    window = find_violation_window("w1", tol=1e-12)
    assert abs(window.lo - WINDOW_LO) < 1e-9
    assert abs(window.hi - WINDOW_HI) < 1e-9


def test_w1_window_midpoint_values():
    t = build_table(canonical_w1_scenario(), 1.0)
    ab = w1(t, "ab").value
    ac = w1(t, "ac").value
    assert abs(ab - W1_AB_AT_1) < 1e-9
    assert abs(ac - W1_AC_AT_1) < 1e-9
    assert ab > 2.0 and ac > 2.0


def test_w1_window_endpoints_are_exact_to_rounding():
    window = find_violation_window("w1")
    assert abs(window.lo - np.arcsin(2.0 ** (-1.0 / 4.0))) < 1e-14
    assert abs(window.hi - np.arccos(np.sqrt(2.0) - 1.0)) < 1e-14


def test_window_tolerance_no_longer_changes_the_result():
    assert find_violation_window("w1", tol=1e-3) == find_violation_window("w1", tol=1e-12)


def test_w1_window_refuses_tables_off_the_curve_models(monkeypatch):
    original = explore.build_tables

    def bent(s, eps):
        probs = original(s, eps).copy()
        probs[len(probs) // 2, 0, 0, 0, :, 0] += (-1e-9, 1e-9)  # Bob's outcome at one node only
        return probs

    monkeypatch.setattr(explore, "build_tables", bent)
    with pytest.raises(RuntimeError, match="curve model"):
        find_violation_window("w1")


def test_w2_window_is_the_open_interval():
    window = find_violation_window("w2", tol=1e-9)
    assert window.lo == 0.0
    assert window.hi == np.pi


def test_window_validation():
    with pytest.raises(ValueError):
        find_violation_window("w1", tol=0.0)
    with pytest.raises(ValueError):
        find_violation_window("w7", tol=1e-9)
    with pytest.raises(ValueError):
        Window(lo=1.0, hi=0.5, kind="w1")


def test_window_rejects_non_finite_tolerance():
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            find_violation_window("w1", tol=tol)


def test_ab_pair_reaches_both_qubit_bounds_without_coupling():
    for target, bound in (("w1_ab", QUANTUM_BOUND_W1), ("w2_ab", QUANTUM_BOUND_W2)):
        res = optimize_settings(small_cfg(target=target, restarts=8, seed=2))
        assert res.converged
        assert abs(res.value - bound) < 1e-9


@pytest.mark.parametrize("target", ["w1_ac", "w2_ac"])
@pytest.mark.parametrize("eps", [0.0, np.pi])
def test_ac_pair_without_charlie_signal_gives_a_valid_scenario_worth_zero(target, eps):
    # at eps = 0 or pi the ancilla readout carries no information: m = 0 up to
    # sin(pi) ~ 1e-16, and the simulated witness sums to 0 up to rounding
    res = optimize_settings(small_cfg(target=target, eps=eps, restarts=4))
    assert isinstance(res.scenario, Scenario)
    assert np.allclose(np.linalg.norm(res.scenario.preparations, axis=1), 1.0)
    assert res.converged
    assert abs(res.value) < 1e-15
    assert res.max_evaluated < 1e-15


def test_w2_ab_finds_the_orthogonal_maximum_beside_the_parallel_one():
    # for -0.17 < cos eps < 0 parallel Charlie axes are a local maximum worth
    # |cos eps|, below ((1 + cos eps) / 2)^2 at orthogonal axes, whose basin
    # holds well under half the angles between the axes
    for eps in (1.70, 1.72, 1.74, 1.7431956357762555):
        for seed in range(25):
            res = optimize_settings(OptimizeConfig(target="w2_ab", eps=eps, restarts=4, seed=seed))
            assert abs(res.value - _closed_form_maximum("w2_ab", eps)) < 1e-7, (eps, seed)


@pytest.mark.parametrize("restarts", [1, 4, 16])
def test_restarts_stratify_the_angle_between_charlies_axes(restarts):
    om = explore._starts(7, restarts)
    assert np.array_equal(om, explore._starts(7, restarts))
    assert np.allclose(np.linalg.norm(om, axis=2), 1.0, atol=1e-15)
    edges = np.linspace(-1.0, 1.0, restarts + 1)
    cos_angle = np.sum(om[:, 0] * om[:, 1], axis=1)
    assert np.all((edges[:-1] - 1e-12 <= cos_angle) & (cos_angle <= edges[1:] + 1e-12))


def test_iteration_cap_clears_converged():
    # at eps = 0 the first point is already stationary (nothing couples to Charlie's axes)
    res = optimize_settings(small_cfg(eps=1.0, restarts=3, max_iterations=1))
    assert not res.converged
    assert res.max_evaluated <= QUANTUM_BOUND_W1 + 1e-9


def test_module_minimize_is_the_single_patchable_entry(monkeypatch):
    """Wrapping ``explore.minimize`` and its objective sees every evaluation."""
    calls, outcomes = [], []
    original = explore.minimize

    def wrapped(fun, x0, **options):
        def counted(batch):
            assert batch.ndim == 2 and batch.shape[1] == x0.shape[1]
            calls.append(len(batch))
            return fun(batch)

        res = original(counted, x0, **options)
        outcomes.append(res.success)
        return res

    monkeypatch.setattr(explore, "minimize", wrapped)
    res = optimize_settings(small_cfg(target="w2_ac", eps=1.0, restarts=5))
    assert res.evaluations == len(calls)
    assert calls[0] == 5
    assert len(outcomes) == 1 and type(outcomes[0]) is bool


def _scenario(pair, preparations, charlie, solved):
    """Scenario whose target statistics use Charlie's axes and the solved ones."""
    if pair == "ab":
        return Scenario(preparations, bob_axes=solved[0], charlie_axes=charlie, ancilla_axis=X_AXIS)
    return Scenario(preparations, bob_axes=[X_AXIS, Z_AXIS], charlie_axes=charlie, ancilla_axis=solved)


def _abs_eigenvalues(eps, charlie):
    """|eigenvalues| s1 >= s2 >= s3 of M = cos eps I + (1 - cos eps)/2 sum_z om_z om_z^T."""
    mat = np.cos(eps) * np.eye(3) + 0.5 * (1.0 - np.cos(eps)) * charlie.T @ charlie
    return np.sort(np.abs(np.linalg.eigvalsh(mat)))[::-1]


@settings(max_examples=150, deadline=None)
@given(target=st.sampled_from(TARGETS), eps=coupling, charlie=axis_pair)
def test_eliminated_objective_is_the_simulated_witness_of_the_closed_form_preparations(target, eps, charlie):
    kind, pair = target.split("_")
    m, _, solved = explore._measurement_map(kind, pair, eps)(charlie[None])
    value = explore._witness_of_m(kind, m)[0][0]
    preparations = explore._best_preparations(kind, m)[0]
    table = build_table(_scenario(pair, preparations, charlie, solved), eps)
    simulated = (w1 if kind == "w1" else w2)(table, pair=pair).value
    if pair == "ab":
        s1, s2, _ = _abs_eigenvalues(eps, charlie)
        closed = 2.0 * np.hypot(s1, s2) if kind == "w1" else s1 * s2
    else:
        (om0, om1), d = charlie, abs(np.sin(eps))
        if kind == "w1":
            closed = d * (np.linalg.norm(om0 + om1) + np.linalg.norm(om0 - om1))
        else:
            closed = d * d * np.linalg.norm(np.cross(om0, om1))
    assert abs(value - simulated) < 1e-12
    assert abs(value - closed) < 1e-12
    assert value <= BOUND[kind] + 1e-12


@settings(max_examples=100, deadline=None)
@given(target=st.sampled_from(TARGETS), eps=coupling, charlie=axis_pair, tangent=axis_pair)
def test_objective_gradient_matches_central_differences(target, eps, charlie, tangent):
    kind, pair = target.split("_")
    m_of = explore._measurement_map(kind, pair, eps)
    x, d = charlie[None], tangent[None]
    m, pull_back, _ = m_of(x)
    # keep away from the kinks of |.|, where the witness is not differentiable,
    # and from a tie between the second and third |eigenvalue|, where Bob's solved axes jump
    signed = explore._SIGNS @ m[0]
    assume(np.linalg.norm(signed, axis=1).min() > 1e-3 if kind == "w1" else np.linalg.norm(np.cross(*m[0])) > 1e-3)
    if pair == "ab":
        s = _abs_eigenvalues(eps, charlie)
        assume(s[1] - s[2] > 1e-3)
    grad = pull_back(explore._witness_of_m(kind, m)[1])

    def value(at):
        return explore._witness_of_m(kind, m_of(at)[0])[0][0]

    h = 1e-6
    numeric = (value(x + h * d) - value(x - h * d)) / (2.0 * h)
    assert abs(numeric - np.sum(grad * d)) < 1e-6


@settings(max_examples=40, deadline=None)
@given(target=st.sampled_from(TARGETS), eps=coupling, seed=st.integers(0, 2**32 - 1))
def test_search_never_evaluates_above_the_qubit_bound(target, eps, seed):
    res = optimize_settings(OptimizeConfig(target=target, eps=eps, restarts=3, seed=seed, max_iterations=200))
    bound = BOUND[target.split("_")[0]]
    assert res.max_evaluated <= bound + 1e-9
    assert abs(res.value) <= bound + 1e-9


def test_window_checks_read_each_sample_set_in_one_engine_call(monkeypatch):
    calls = []
    original = explore.build_tables

    def counted(s, eps):
        calls.append(np.size(eps))
        return original(s, eps)

    monkeypatch.setattr(explore, "build_tables", counted)
    find_violation_window("w2")
    assert calls == [3]  # the three spot checks
    calls.clear()
    find_violation_window("w1", tol=1e-12)
    assert calls == [5]  # the guard angles; both endpoints are solved in closed form
