"""Tests for the state-vector engine and its path-sum oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpwalk.scaling import site_std_dev, std_dev
from jumpwalk.walk import (
    RowError,
    SiteJumpMap,
    _evolve,
    apply_coin,
    apply_shift,
    hadamard,
    initial_block,
    initial_state,
    is_unitary,
    path_sum_oracle,
    position_distribution,
    run_dynamic,
    run_static,
    step,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


def test_hadamard_entries():
    h = hadamard()
    np.testing.assert_allclose(
        h, [[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]], atol=1e-15
    )
    assert is_unitary(h)


def test_hadamard_squares_to_identity():
    np.testing.assert_allclose(hadamard() @ hadamard(), np.eye(2), atol=1e-12)


def test_hadamard_on_coin_basis():
    np.testing.assert_allclose(hadamard() @ [1, 0], [SQRT_HALF, SQRT_HALF], atol=1e-15)


class TestInitialState:
    def test_unit_norm_at_origin(self):
        state = initial_state(4)
        assert state.norm_squared() == 1.0
        assert position_distribution(state) == {0: 1.0}

    def test_coin_marginal_is_zero_state(self):
        state = initial_state(4)
        assert state.amplitude(0, 0) == 1.0
        assert abs(state.amplitudes[1]).max() == 0.0

    def test_t_starts_at_zero(self):
        assert initial_state(2).t == 0

    def test_extent_must_be_positive(self):
        with pytest.raises(ValueError):
            initial_state(0)


class TestApplyCoin:
    def test_hadamard_splits_origin(self):
        out = apply_coin(initial_state(1), hadamard())
        assert out.amplitude(0, 0) == pytest.approx(SQRT_HALF, abs=1e-15)
        assert out.amplitude(1, 0) == pytest.approx(SQRT_HALF, abs=1e-15)
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_identity_coin_is_noop(self):
        state = step(initial_state(3), hadamard(), 2)
        out = apply_coin(state, np.eye(2))
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_hadamard_twice_restores(self):
        state = initial_state(1)
        out = apply_coin(apply_coin(state, hadamard()), hadamard())
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_non_unitary_coin_rejected(self):
        with pytest.raises(ValueError):
            apply_coin(initial_state(1), np.array([[1.0, 0.0], [0.0, 2.0]]))


class TestApplyShift:
    def test_first_iteration_shift(self):
        pre = apply_coin(initial_state(1), hadamard())
        out = apply_shift(pre, 1)
        assert out.amplitude(0, 1) == pytest.approx(SQRT_HALF, abs=1e-15)
        assert out.amplitude(1, -1) == pytest.approx(SQRT_HALF, abs=1e-15)
        assert out.amplitude(0, 0) == 0.0

    def test_zero_jump_is_identity(self):
        state = apply_coin(initial_state(2), hadamard())
        out = apply_shift(state, 0)
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_adjoint_shift_recovers(self):
        state = apply_coin(initial_state(3), hadamard())
        shifted = apply_shift(state, 2)
        # adjoint: coin-0 moves back left, coin-1 back right
        back = shifted.copy()
        back.amplitudes[0] = np.roll(shifted.amplitudes[0], -2)
        back.amplitudes[1] = np.roll(shifted.amplitudes[1], 2)
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-15)

    def test_negative_jump_rejected(self):
        with pytest.raises(ValueError):
            apply_shift(initial_state(2), -1)

    def test_overflow_rejected(self):
        state = apply_coin(initial_state(1), hadamard())
        with pytest.raises(ValueError):
            apply_shift(state, 2)

    def test_shift_permutes_coin_diagonal_pmf(self):
        # a coin-0-only state: the shift relabels sites, never reweights
        state = initial_state(6)
        rng = np.random.Generator(np.random.PCG64(5))
        amps = rng.normal(size=5) + 1j * rng.normal(size=5)
        state.amplitudes[0, 4:9] = amps
        state.amplitudes[0, 6] = 0.0
        state.amplitudes /= math.sqrt(state.norm_squared())
        before = sorted(position_distribution(state).values())
        after = sorted(position_distribution(apply_shift(state, 2)).values())
        np.testing.assert_allclose(after, before, atol=1e-15)


class TestStep:
    def test_first_step_matches_closed_form(self):
        out = step(initial_state(1), hadamard(), 1)
        assert out.t == 1
        assert out.amplitude(0, 1) == pytest.approx(SQRT_HALF, abs=1e-12)
        assert out.amplitude(1, -1) == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_second_step_amplitudes(self):
        # hand enumeration of the four coin paths with jumps (1, 1)
        out = step(step(initial_state(2), hadamard(), 1), hadamard(), 1)
        assert out.amplitude(0, 2) == pytest.approx(0.5, abs=1e-12)
        assert out.amplitude(0, 0) == pytest.approx(0.5, abs=1e-12)
        assert out.amplitude(1, 0) == pytest.approx(0.5, abs=1e-12)
        assert out.amplitude(1, -2) == pytest.approx(-0.5, abs=1e-12)

    def test_longer_first_jump_scales_support(self):
        out = step(initial_state(3), hadamard(), 3)
        assert out.amplitude(0, 3) == pytest.approx(SQRT_HALF, abs=1e-12)
        assert out.amplitude(1, -3) == pytest.approx(SQRT_HALF, abs=1e-12)


class TestRunDynamic:
    def test_two_steps_position_distribution(self):
        pmf = position_distribution(run_dynamic(2, [1, 1], hadamard()))
        assert pmf == pytest.approx({-2: 0.25, 0: 0.5, 2: 0.25}, abs=1e-12)

    def test_all_zero_jumps_stay_home(self):
        pmf = position_distribution(run_dynamic(5, [0] * 5, hadamard()))
        assert pmf == pytest.approx({0: 1.0}, abs=1e-12)

    def test_ordered_walk_peaks_right_of_center(self):
        pmf = position_distribution(run_dynamic(160, [1] * 160, hadamard()))
        peak = max(pmf, key=pmf.get)
        assert 90 <= peak <= 120
        assert pmf[peak] > 0.05
        right = sum(p for site, p in pmf.items() if site > 0)
        assert right > 0.7

    def test_input_validation(self):
        h = hadamard()
        with pytest.raises(ValueError):
            run_dynamic(0, [], h)
        with pytest.raises(ValueError):
            run_dynamic(3, [1, 1], h)
        with pytest.raises(ValueError):
            run_dynamic(2, [1, -1], h)

    def test_norm_conserved_every_iteration(self):
        rng = np.random.Generator(np.random.PCG64(11))
        jumps = rng.integers(0, 4, size=30)
        state = initial_state(max(1, int(jumps.sum())))
        for j in jumps:
            state = step(state, hadamard(), int(j))
            assert abs(state.norm_squared() - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_support_confinement_and_parity(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        jumps = [int(j) for j in rng.integers(0, 4, size=12)]
        pmf = position_distribution(run_dynamic(12, jumps, hadamard()))
        reach = sum(jumps)
        for site, p in pmf.items():
            assert abs(site) <= reach
            if p > 0.0:
                assert (site - reach) % 2 == 0

    def test_reversibility(self):
        jumps = [2, 0, 1, 3, 1, 2]
        h = hadamard()
        state = initial_state(sum(jumps))
        trace = []
        for j in jumps:
            trace.append(j)
            state = step(state, h, j)
        # undo: adjoint shift (roll back) then inverse coin, in reverse order
        h_inv = h.conj().T
        for j in reversed(trace):
            undone = state.copy()
            undone.amplitudes[0] = np.roll(state.amplitudes[0], -j)
            undone.amplitudes[1] = np.roll(state.amplitudes[1], j)
            undone.amplitudes = h_inv @ undone.amplitudes
            state = undone
        expected = initial_state(sum(jumps))
        np.testing.assert_allclose(state.amplitudes, expected.amplitudes, atol=1e-10)


class TestPathSumOracle:
    def test_single_step(self):
        assert path_sum_oracle(1, [1], hadamard()) == pytest.approx(
            {1: 0.5, -1: 0.5}, abs=1e-12
        )

    def test_two_steps_hand_enumeration(self):
        assert path_sum_oracle(2, [1, 1], hadamard()) == pytest.approx(
            {-2: 0.25, 0: 0.5, 2: 0.25}, abs=1e-12
        )

    def test_matches_engine_with_mixed_jumps(self):
        jumps = [2, 0, 1]
        oracle = path_sum_oracle(3, jumps, hadamard())
        engine = position_distribution(run_dynamic(3, jumps, hadamard()))
        for site in set(oracle) | set(engine):
            assert abs(oracle.get(site, 0.0) - engine.get(site, 0.0)) < 1e-10

    def test_exhaustive_equivalence_small_walks(self):
        h = hadamard()
        for T in range(1, 5):
            for jumps in itertools.product((0, 1, 2), repeat=T):
                oracle = path_sum_oracle(T, jumps, h)
                engine = position_distribution(run_dynamic(T, list(jumps), h))
                sites = set(oracle) | set(engine)
                for site in sites:
                    assert (
                        abs(oracle.get(site, 0.0) - engine.get(site, 0.0)) < 1e-10
                    ), f"T={T} jumps={jumps} site={site}"

    def test_rejects_large_walks(self):
        with pytest.raises(ValueError):
            path_sum_oracle(13, [1] * 13, hadamard())


class TestRunStatic:
    def test_constant_map_equals_dynamic_exactly(self):
        T = 12
        site_jumps = SiteJumpMap.constant(T, 1)
        static_state, norm_log = run_static(T, site_jumps, hadamard())
        dynamic_state = run_dynamic(T, [1] * T, hadamard())
        assert np.array_equal(static_state.amplitudes, dynamic_state.amplitudes)
        np.testing.assert_allclose(norm_log, 1.0, atol=1e-12)

    def test_all_zero_map_stays_home(self):
        state, norm_log = run_static(4, SiteJumpMap.constant(2, 0), hadamard())
        assert position_distribution(state) == pytest.approx({0: 1.0}, abs=1e-12)
        np.testing.assert_allclose(norm_log, 1.0, atol=1e-12)

    def test_colliding_targets_break_norm(self):
        # j(0)=1 moves the walker off the origin; at the second iteration
        # the coin-0 amplitudes at -1 (j=2) and +1 (j=0) both land on +1:
        # the state becomes |0,1> + (1/2)|1,1> - (1/2)|1,-3>, norm sqrt(3/2),
        # so the distribution is {1: 5/6, -3: 1/6}.
        mapping = {site: 0 for site in range(-4, 5)}
        mapping[0] = 1
        mapping[-1] = 2
        site_jumps = SiteJumpMap.from_dict(4, mapping)
        state, norm_log = run_static(2, site_jumps, hadamard())
        assert norm_log[0] == pytest.approx(1.0, abs=1e-12)
        assert norm_log[1] == pytest.approx(math.sqrt(1.5), abs=1e-12)
        assert position_distribution(state) == pytest.approx(
            {1: 5 / 6, -3: 1 / 6}, abs=1e-12
        )

    def test_missing_site_rejected(self):
        with pytest.raises(ValueError):
            SiteJumpMap.from_dict(2, {0: 1, 1: 1, -1: 1, 2: 1})

    def test_map_too_small_rejected(self):
        with pytest.raises(ValueError):
            run_static(3, SiteJumpMap.constant(1, 1), hadamard())

    def test_needs_at_least_one_iteration(self):
        with pytest.raises(ValueError):
            run_static(0, SiteJumpMap.constant(1, 1), hadamard())


# --- properties of the evolution kernel -------------------------------------

_angles = st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False)
_coins = st.tuples(_angles, _angles, _angles, _angles)
_jump_lists = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=8)


def _unitary(angles) -> np.ndarray:
    """The U(2) element e^(i a) Rz(b) Ry(c) Rz(d)."""
    a, b, c, d = angles
    cos, sin = math.cos(c / 2), math.sin(c / 2)
    return np.exp(1j * a) * np.array(
        [
            [np.exp(-0.5j * (b + d)) * cos, -np.exp(-0.5j * (b - d)) * sin],
            [np.exp(0.5j * (b - d)) * sin, np.exp(0.5j * (b + d)) * cos],
        ]
    )


@settings(deadline=None)
@given(jumps=_jump_lists, angles=_coins)
def test_kernel_matches_oracle_for_random_jumps_and_coins(jumps, angles):
    coin = _unitary(angles)
    oracle = path_sum_oracle(len(jumps), jumps, coin)
    engine = position_distribution(run_dynamic(len(jumps), jumps, coin))
    for site in set(oracle) | set(engine):
        assert abs(oracle.get(site, 0.0) - engine.get(site, 0.0)) < 1e-10


@settings(deadline=None)
@given(j=st.integers(min_value=0, max_value=4), T=st.integers(min_value=1, max_value=16),
       angles=_coins)
def test_constant_static_map_is_the_dynamic_walk_bit_for_bit(j, T, angles):
    coin = _unitary(angles)
    static_state, _ = run_static(T, SiteJumpMap.constant(max(1, T * j), j), coin)
    assert np.array_equal(static_state.amplitudes, run_dynamic(T, [j] * T, coin).amplitudes)


@settings(deadline=None)
@given(jumps=_jump_lists, angles=_coins, seed=st.integers(min_value=0, max_value=2**32))
def test_array_sigma_is_the_pmf_sigma_bit_for_bit(jumps, angles, seed):
    coin = _unitary(angles)
    T = len(jumps)
    site_jumps = SiteJumpMap(4 * T, np.random.default_rng(seed).integers(0, 4, 8 * T + 1))
    states = [run_dynamic(T, jumps, coin), run_static(T, site_jumps, coin)[0]]
    for state in states:
        sigma = site_std_dev(state.sites(), state.probabilities())
        assert sigma == std_dev(position_distribution(state))


@settings(deadline=None)
@given(jumps=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=16),
       angles=_coins)
def test_unitary_coins_keep_norm_support_and_parity(jumps, angles):
    coin = _unitary(angles)
    reach = sum(jumps)
    state = initial_state(reach + 3)  # room beyond the reach, so the support check bites
    for j in jumps:
        state = step(state, coin, j)
        assert abs(state.norm_squared() - 1.0) <= 1e-12
    occupied = state.sites()[state.probabilities() > 0.0]
    assert (np.abs(occupied) <= reach).all()
    assert ((occupied - reach) % 2 == 0).all()


@settings(deadline=None)
@given(rows=st.integers(min_value=1, max_value=4), T=st.integers(min_value=1, max_value=8),
       angles=_coins, seed=st.integers(min_value=0, max_value=2**32), static=st.booleans())
def test_block_rows_evolve_bit_for_bit_as_alone(rows, T, angles, seed, static):
    coin = _unitary(angles)
    extent = 3 * T
    rng = np.random.default_rng(seed)
    jumps = rng.integers(0, 4, size=(rows, 2 * extent + 1 if static else T))
    key = "site_jumps" if static else "step_jumps"
    block, norms = _evolve(initial_block(rows, extent), coin, T, **{key: jumps})
    for r in range(rows):
        alone, alone_norms = _evolve(initial_block(1, extent), coin, T, **{key: jumps[r : r + 1]})
        assert np.array_equal(block[r], alone[0])
        if static:
            assert np.array_equal(norms[r], alone_norms[0])


def test_a_failed_check_names_its_row():
    site_jumps = np.ones((3, 5), dtype=np.int64)
    site_jumps[2] = 9  # row 2 jumps off its table at the first iteration
    with pytest.raises(RowError, match="exceeds extent 2") as excinfo:
        _evolve(initial_block(3, 2), hadamard(), 1, site_jumps=site_jumps)
    assert excinfo.value.row == 2
    step_jumps = np.ones((3, 3), dtype=np.int64)
    step_jumps[1, 2] = 2  # row 1 needs extent 4 but has 3
    with pytest.raises(RowError, match="allocated extent 3") as excinfo:
        _evolve(initial_block(3, 3), hadamard(), 3, step_jumps=step_jumps)
    assert excinfo.value.row == 1


@settings(deadline=None)
@given(rows=st.integers(min_value=1, max_value=3), T=st.integers(min_value=1, max_value=8),
       done=st.integers(min_value=0, max_value=8), pad=st.integers(min_value=1, max_value=9),
       seed=st.integers(min_value=0, max_value=2**32), static=st.booleans())
def test_rows_evolve_bit_for_bit_in_a_wider_table(rows, T, done, pad, seed, static):
    # Rows run `done` iterations, are moved center-aligned into a table `pad`
    # columns wider on each side, and run the rest: under the Hadamard coin
    # that matches the narrow run bit for bit, norms included.
    coin = hadamard()
    done = min(done, T)
    extent, wide = 3 * T, 3 * T + pad
    rng = np.random.default_rng(seed)
    if static:
        wide_jumps = rng.integers(0, 4, size=(rows, 2 * wide + 1))
        narrow_jumps = wide_jumps[:, pad:-pad]
        first, rest = {"site_jumps": narrow_jumps}, {"site_jumps": wide_jumps}
        whole = first
    else:
        jumps = rng.integers(0, 4, size=(rows, T))
        first, rest = {"step_jumps": jumps[:, :done]}, {"step_jumps": jumps[:, done:]}
        whole = {"step_jumps": jumps}
    narrow, narrow_norms = _evolve(initial_block(rows, extent), coin, T, **whole)
    part, part_norms = _evolve(initial_block(rows, extent), coin, done, **first)
    widened = np.zeros((rows, 2, 2 * wide + 1), dtype=np.complex128)
    widened[:, :, pad:-pad] = part
    out, out_norms = _evolve(widened, coin, T - done, start=done, **rest)
    assert np.array_equal(out[:, :, pad:-pad], narrow)
    assert not out[:, :, :pad].any() and not out[:, :, -pad:].any()
    if static:
        assert np.array_equal(np.concatenate([part_norms, out_norms], axis=1), narrow_norms)
