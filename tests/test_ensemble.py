"""Tests for seeded disorder sampling and quenched averaging."""

import itertools
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jumpwalk.ensemble as ensemble
from jumpwalk.cli import CLASS_LAWS, MEANS_LAWS
from jumpwalk.distributions import DistributionSpec, sample_many, truncate
from jumpwalk.ensemble import (
    derive_seed,
    quenched_average,
    sample_dynamic_realization,
    sample_static_realization,
    sigma_of_realization,
    static_quenched_average,
)
from jumpwalk.scaling import site_std_dev, std_dev
from jumpwalk.walk import hadamard, position_distribution, run_dynamic, run_static

POISSON1 = DistributionSpec("poisson", {"lambda": 1.0}, r_max=5)
CONSTANT1 = DistributionSpec("constant", {"j": 1})


def _splitmix_oracle(masters, indices):
    """Vectorized SplitMix64 reimplementation, independent of derive_seed."""
    m = np.asarray(masters, dtype=np.uint64)
    i = np.asarray(indices, dtype=np.uint64)
    z = m + (i + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 17) == derive_seed(42, 17)

    def test_matches_vectorized_oracle(self):
        masters = [0, 1, 42, 2**63, 2**64 - 1]
        for m in masters:
            for i in (0, 1, 2, 1000, 999999):
                assert derive_seed(m, i) == int(_splitmix_oracle([m], [i])[0])

    def test_distinct_over_consecutive_indices(self):
        outs = _splitmix_oracle(np.full(10**6, 42), np.arange(10**6))
        assert np.unique(outs).size == 10**6

    def test_distinct_across_master_seed_grid(self):
        masters, indices = np.meshgrid(np.arange(10**3), np.arange(10**3))
        outs = _splitmix_oracle(masters.ravel(), indices.ravel())
        assert np.unique(outs).size == 10**6

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            derive_seed(1, -1)


class TestBlockSeeding:
    @settings(deadline=None)
    @given(seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=6))
    @example(seeds=[0])
    @example(seeds=[1])
    @example(seeds=[2**32 - 1])
    @example(seeds=[2**32])
    @example(seeds=[2**64 - 1])
    @example(seeds=[0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_rows_start_where_numpy_pcg64_starts(self, seeds):
        states = ensemble._pcg64_states(seeds)
        uniforms = ensemble._uniforms(seeds, 17)
        for seed, (state, inc), row in zip(seeds, states, uniforms):
            assert np.random.PCG64(seed).state["state"] == {"state": state, "inc": inc}
            expected = np.random.Generator(np.random.PCG64(seed)).random(17)
            np.testing.assert_array_equal(row, expected)

    def test_derived_seeds_in_one_block(self):
        seeds = [derive_seed(42, i) for i in range(1000)]
        uniforms = ensemble._uniforms(seeds, 5)
        for seed, row in zip(seeds, uniforms):
            expected = np.random.Generator(np.random.PCG64(seed)).random(5)
            np.testing.assert_array_equal(row, expected)

    # Columns are drawn in chunks of _BLOCK_BYTES // 32 over the rows.
    _CHUNK = ensemble._BLOCK_BYTES // 32

    @settings(deadline=None, max_examples=40)
    @given(
        seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=3),
        skip=st.integers(min_value=0, max_value=10**4),
        count=st.integers(min_value=0, max_value=3 * _CHUNK),
    )
    @example(seeds=[0], skip=0, count=1)
    @example(seeds=[1], skip=1, count=_CHUNK)
    @example(seeds=[2**32 - 1], skip=10**4, count=_CHUNK + 1)
    @example(seeds=[2**32], skip=0, count=2 * _CHUNK + 1)
    @example(seeds=[2**64 - 1], skip=7, count=0)
    @example(seeds=[0, 2**64 - 1, 2**32], skip=3, count=_CHUNK // 3 + 1)
    def test_draws_follow_numpy_pcg64_past_the_skip(self, seeds, skip, count):
        uniforms = ensemble._draws(ensemble._pcg64_states(seeds), skip, count)
        assert uniforms.shape == (len(seeds), count)
        for seed, row in zip(seeds, uniforms):
            bits = np.random.PCG64(seed)
            bits.advance(skip)
            np.testing.assert_array_equal(row, np.random.Generator(bits).random(count))

    def test_a_long_row_is_drawn_in_bounded_memory(self):
        ensemble._uniforms([7], 10**6)  # the chunks' step table is built once per process
        tracemalloc.start()
        try:
            ensemble._uniforms([7], 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10**6 + 3 * ensemble._BLOCK_BYTES  # the row and one chunk's arrays

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            ensemble._uniforms([5, seed], 3)


class TestRealizationSampling:
    def test_constant_jumps(self):
        r = sample_dynamic_realization(truncate(CONSTANT1), 10, seed=3)
        np.testing.assert_array_equal(r.jumps, np.ones(10, dtype=np.int64))
        assert r.mode == "dynamic"
        assert r.t_steps == 10

    def test_same_seed_same_sequence(self):
        pmf = truncate(POISSON1)
        a = sample_dynamic_realization(pmf, 50, seed=99)
        b = sample_dynamic_realization(pmf, 50, seed=99)
        np.testing.assert_array_equal(a.jumps, b.jumps)

    def test_shared_stream_prefix_across_lengths(self):
        pmf = truncate(POISSON1)
        short = sample_dynamic_realization(pmf, 10, seed=7)
        longer = sample_dynamic_realization(pmf, 30, seed=7)
        np.testing.assert_array_equal(longer.jumps[:10], short.jumps)

    def test_dynamic_empirical_frequencies(self):
        pmf = truncate(POISSON1)
        r = sample_dynamic_realization(pmf, 10**5, seed=1234)
        counts = np.bincount(r.jumps, minlength=pmf.r_max + 1)
        for j, p in enumerate(pmf.probs):
            band = 4.0 * math.sqrt(p * (1 - p) / 10**5)
            assert abs(counts[j] / 10**5 - p) < band

    def test_static_constant_map(self):
        r = sample_static_realization(truncate(CONSTANT1), 6, seed=3, t_steps=6)
        np.testing.assert_array_equal(r.jumps.jumps, np.ones(13, dtype=np.int64))
        assert r.mode == "static"

    def test_static_same_seed_same_map(self):
        pmf = truncate(POISSON1)
        a = sample_static_realization(pmf, 20, seed=5, t_steps=4)
        b = sample_static_realization(pmf, 20, seed=5, t_steps=4)
        np.testing.assert_array_equal(a.jumps.jumps, b.jumps.jumps)

    def test_static_maps_nest_center_out(self):
        pmf = truncate(POISSON1)
        small = sample_static_realization(pmf, 5, seed=5, t_steps=1)
        large = sample_static_realization(pmf, 9, seed=5, t_steps=1)
        for site in range(-5, 6):
            assert small.jumps.jump_at(site) == large.jumps.jump_at(site)

    def test_static_empirical_frequencies(self):
        pmf = truncate(POISSON1)
        r = sample_static_realization(pmf, 50_000, seed=77, t_steps=1)
        n_sites = 100_001
        counts = np.bincount(r.jumps.jumps, minlength=pmf.r_max + 1)
        for j, p in enumerate(pmf.probs):
            band = 4.0 * math.sqrt(p * (1 - p) / n_sites)
            assert abs(counts[j] / n_sites - p) < band


class TestSigmaOfRealization:
    def test_single_unit_jump(self):
        pmf = truncate(CONSTANT1)
        r = sample_dynamic_realization(pmf, 1, seed=0)
        assert sigma_of_realization(r, hadamard()) == pytest.approx(1.0, abs=1e-12)

    def test_motionless_realization(self):
        r = sample_dynamic_realization(truncate(DistributionSpec("constant", {"j": 0})), 8, seed=0)
        assert sigma_of_realization(r, hadamard()) == 0.0

    def test_two_unit_jumps(self):
        r = sample_dynamic_realization(truncate(CONSTANT1), 2, seed=0)
        assert sigma_of_realization(r, hadamard()) == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )


class TestQuenchedAverage:
    def test_constant_distribution_has_no_disorder_variance(self):
        point = quenched_average(CONSTANT1, 12, 7, master_seed=1)
        expected = std_dev(position_distribution(run_dynamic(12, [1] * 12, hadamard())))
        assert point.mean_sigma == expected
        assert point.stderr == 0.0
        assert point.n == 7

    def test_input_validation(self):
        with pytest.raises(ValueError):
            quenched_average(POISSON1, 4, 0, 1)
        with pytest.raises(ValueError):
            quenched_average(POISSON1, 4, 2, 1, mode="annealed")

    @pytest.mark.parametrize("T", [0, -3])
    def test_iteration_count_below_one_is_rejected(self, T):
        with pytest.raises(ValueError, match=f"need T >= 1, got {T}"):
            quenched_average(POISSON1, T, 5, 1)
        with pytest.raises(ValueError, match=f"need T >= 1, got {T}"):
            static_quenched_average(POISSON1, T, 5, 1)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_is_rejected(self, workers):
        with pytest.raises(ValueError, match=f"need workers >= 1, got {workers}"):
            quenched_average(POISSON1, 4, 5, 1, workers=workers)
        with pytest.raises(ValueError, match=f"need workers >= 1, got {workers}"):
            static_quenched_average(POISSON1, 4, 5, 1, workers=workers)

    def test_worker_count_does_not_change_bits(self):
        serial = quenched_average(POISSON1, 8, 40, master_seed=9, workers=1)
        parallel = quenched_average(POISSON1, 8, 40, master_seed=9, workers=2)
        assert serial == parallel

    def test_static_worker_count_does_not_change_bits(self):
        serial = static_quenched_average(POISSON1, 6, 20, master_seed=9, workers=1)
        parallel = static_quenched_average(POISSON1, 6, 20, master_seed=9, workers=2)
        assert serial == parallel

    def test_quenched_differs_from_annealed_on_toy_case(self):
        # two realizations: all jumps 1 and all jumps 2, T=2
        h = hadamard()
        pmf_a = position_distribution(run_dynamic(2, [1, 1], h))
        pmf_b = position_distribution(run_dynamic(2, [2, 2], h))
        quenched = 0.5 * (std_dev(pmf_a) + std_dev(pmf_b))
        mixed = {}
        for pmf in (pmf_a, pmf_b):
            for site, p in pmf.items():
                mixed[site] = mixed.get(site, 0.0) + 0.5 * p
        annealed = std_dev(mixed)
        assert quenched == pytest.approx(1.5 * math.sqrt(2.0), abs=1e-12)
        assert annealed == pytest.approx(math.sqrt(5.0), abs=1e-12)
        assert abs(quenched - annealed) > 0.1

    def test_annealed_averaging_is_not_provided(self):
        assert not hasattr(ensemble, "annealed_average")

    def test_stderr_shrinks_like_root_n(self):
        errs = {
            n: quenched_average(POISSON1, 12, n, master_seed=4).stderr
            for n in (250, 1000, 4000)
        }
        for small, large in ((250, 1000), (1000, 4000)):
            ratio = errs[small] / errs[large]
            assert 1.4 <= ratio <= 2.6, f"stderr ratio {ratio} for n={small}/{large}"

    def test_t24_dispersion_consistent_with_powerlaw_line(self):
        # the fitted log-log line with slope -0.8 and unit amplitude puts
        # ln(1/sigma) at -0.8 ln 24; the measured ordinate agrees within 15%
        point = quenched_average(POISSON1, 24, 4000, master_seed=42)
        ordinate = math.log(1.0 / point.mean_sigma)
        line = -0.8 * math.log(24.0)
        assert abs(ordinate - line) / abs(line) < 0.15


def _ask(worker, task, arg=None):
    """task(arg) run by a pinned worker through its pipe; what it raised is raised."""
    with worker.lock:
        worker.send(task, arg)
        assert worker.conn.poll(120), "no reply and no end of the pipe"
        ok, value = worker.receive()
    if not ok:
        raise value
    return value


def test_broken_pool_is_replaced():
    with pytest.raises(BrokenProcessPool):
        _ask(ensemble._get_pool(2)[0], os._exit, 1)
    serial = quenched_average(POISSON1, 6, 16, master_seed=3)
    for _ in range(2):
        assert quenched_average(POISSON1, 6, 16, master_seed=3, workers=2) == serial


linux_fork = pytest.mark.skipif(sys.platform != "linux", reason="workers fork only on Linux")


@linux_fork
def test_a_fork_while_the_checkpoint_lock_is_held_gets_cold_bits():
    # A forked worker inherits the lock as the parent's threads left it; one
    # inherited held would never be released in the worker.
    serial = quenched_average(POISSON1, 6, 16, master_seed=3)
    ensemble._shutdown_pool()
    results = []
    point = threading.Thread(
        target=lambda: results.append(quenched_average(POISSON1, 6, 16, 3, workers=2)), daemon=True
    )
    try:
        with ensemble._CHECKPOINT_LOCK:
            point.start()
            deadline = time.monotonic() + 120
            while not any(worker.process.pid for worker in ensemble._POOL):
                assert time.monotonic() < deadline, "the worker never forked"
                time.sleep(0.001)
        # The point's own shard takes the lock now; the worker forked while it was held.
        point.join(timeout=120)
        assert not point.is_alive(), "a forked worker waits on the inherited lock"
    finally:
        if point.is_alive():
            for child in multiprocessing.active_children():
                child.kill()  # the point's thread reads the end of the pipe and ends
    assert results == [serial]


_ORIGINS: list[range] = []


class _CountingWalkers(ensemble._Walkers):
    """Walkers that record each shard started from the origin in this process."""

    def __init__(self, indices, *args):
        super().__init__(indices, *args)
        _ORIGINS.append(indices)


def _checkpoint_probe(_):
    return ensemble._CHECKPOINT.T, _ORIGINS


@linux_fork
@pytest.mark.parametrize("static", [False, True], ids=["dynamic", "static"])
def test_pinned_workers_resume_their_shard_at_every_grid_T(monkeypatch, static):
    grid, n = [2, 4, 6, 8], 20
    cold = [_cold_point(static, POISSON1, T, n, 5) for T in grid]
    ensemble._shutdown_pool()
    _ORIGINS.clear()
    monkeypatch.setattr(ensemble, "_Walkers", _CountingWalkers)  # forked workers inherit it
    try:
        assert [_point(static, POISSON1, T, n, 5, workers=2) for T in grid] == cold
        # this process holds shard 0 and the worker shard 1, each started once
        assert _checkpoint_probe(None) == (grid[-1], [range(0, 10)])
        assert _ask(ensemble._get_pool(2)[0], _checkpoint_probe) == (grid[-1], [range(10, 20)])
    finally:
        ensemble._shutdown_pool()  # no worker keeps the patched class


@linux_fork
def test_a_raising_shard_in_this_process_leaves_no_reply_unread(monkeypatch):
    ensemble._shutdown_pool()
    ensemble._get_pool(2)  # forked before the patch: the worker keeps the real walkers

    def failing(self, T):
        raise RuntimeError("shard 0 failed")

    monkeypatch.setattr(ensemble._Walkers, "advance", failing)
    with pytest.raises(RuntimeError, match="shard 0 failed"):
        quenched_average(POISSON1, 4, 16, 3, workers=2)
    monkeypatch.undo()
    # An unread reply would hold shard 1 at T=4 and stand in for the next point's.
    serial = quenched_average(POISSON1, 6, 16, master_seed=3)
    assert quenched_average(POISSON1, 6, 16, 3, workers=2) == serial


@linux_fork
def test_a_spill_in_a_pinned_workers_shard_names_the_realization_and_seed(monkeypatch):
    draw = ensemble._site_jumps
    seed = derive_seed(5, 3)  # realization 3 is in shard 1 of four at workers=2

    def oversized(pmf, extent, seeds):
        jumps = draw(pmf, extent, seeds)
        if seed in seeds:
            jumps[seeds.index(seed)] = 2 * extent + 1
        return jumps

    ensemble._shutdown_pool()
    monkeypatch.setattr(ensemble, "_site_jumps", oversized)  # before the worker forks
    message = rf"realization 3 \(seed {seed}\): site-dependent shift at iteration 1"
    try:
        with pytest.raises(ValueError, match=message):
            static_quenched_average(POISSON1, 3, 4, 5, workers=2)
    finally:
        ensemble._shutdown_pool()  # no worker keeps the patched draw


def test_spawned_workers_give_the_serial_bits(monkeypatch):
    # The start method of platforms other than Linux.
    serial = quenched_average(POISSON1, 6, 16, master_seed=3)
    ensemble._shutdown_pool()
    monkeypatch.setattr(ensemble, "_START_METHOD", "spawn")
    try:
        assert quenched_average(POISSON1, 6, 16, 3, workers=2) == serial
        assert type(ensemble._POOL[0].process).__name__ == "SpawnProcess"
    finally:
        ensemble._shutdown_pool()


def _run_script(tmp_path, body):
    """Run ``body`` as a script, without a main guard, in a fresh interpreter."""
    script = tmp_path / "script.py"
    script.write_text(
        "from jumpwalk.distributions import DistributionSpec\n"
        "import jumpwalk.ensemble as ensemble\n"
        "POISSON1 = DistributionSpec('poisson', {'lambda': 1.0}, r_max=5)\n" + body
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ensemble.__file__).parents[1]))
    # Output is piped: a worker left running would hold the pipes open past the timeout.
    return subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120, env=env
    )


@linux_fork
def test_a_script_without_a_main_guard_gets_two_worker_points(tmp_path):
    done = _run_script(
        tmp_path, "print(ensemble.quenched_average(POISSON1, 6, 16, 3, workers=2).mean_sigma.hex())\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [quenched_average(POISSON1, 6, 16, master_seed=3).mean_sigma.hex()]


@linux_fork
def test_a_spill_in_a_forked_worker_names_the_realization_and_seed(tmp_path):
    done = _run_script(
        tmp_path,
        "draw = ensemble._site_jumps\n"
        "def oversized(pmf, extent, seeds):\n"
        "    jumps = draw(pmf, extent, seeds)\n"
        "    jumps[1] = 2 * extent + 1\n"
        "    return jumps\n"
        "ensemble._site_jumps = oversized  # before the workers fork\n"
        "ensemble.static_quenched_average(POISSON1, 3, 4, 5, workers=2)\n",
    )
    message = f"realization 1 (seed {derive_seed(5, 1)}): site-dependent shift at iteration 1"
    assert done.returncode == 1
    assert f"ValueError: {message}" in done.stderr


@linux_fork
def test_a_killed_caller_leaves_no_worker_holding_its_output(tmp_path):
    # Each worker must read the end of its pipe once the caller is gone,
    # though later workers forked while the caller held earlier workers' pipes.
    done = _run_script(
        tmp_path,
        "import os, signal\n"
        "ensemble.quenched_average(POISSON1, 6, 16, 3, workers=3)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n",
    )
    assert done.returncode == -signal.SIGKILL


class TestStaticQuenchedAverage:
    def test_reports_norm_deviation(self):
        point, mean_dev, max_dev = static_quenched_average(
            POISSON1, 6, 50, master_seed=2
        )
        assert point.mean_sigma > 0.0
        assert 0.0 < mean_dev <= max_dev < 1.0

    def test_constant_map_has_no_norm_deviation(self):
        point, mean_dev, max_dev = static_quenched_average(
            CONSTANT1, 8, 3, master_seed=2
        )
        expected = std_dev(position_distribution(run_dynamic(8, [1] * 8, hadamard())))
        assert point.mean_sigma == expected
        assert max_dev < 1e-12


@pytest.mark.parametrize("mode", ["dynamic", "static"])
def test_block_size_and_worker_count_do_not_change_bits(monkeypatch, mode):
    def point(workers=1):
        if mode == "static":
            return static_quenched_average(POISSON1, 6, 20, master_seed=9, workers=workers)
        return quenched_average(POISSON1, 8, 40, master_seed=9, workers=workers)

    # The default budget holds every realization of these points in one block.
    default = point()
    assert point(workers=2) == default
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 1)  # one realization per block
    assert point() == default


def test_static_spill_names_the_realization_and_seed(monkeypatch):
    draw = ensemble._site_jumps

    def oversized(pmf, extent, seeds):
        jumps = draw(pmf, extent, seeds)
        jumps[1] = 2 * extent + 1  # realization 1 jumps straight off its table
        return jumps

    monkeypatch.setattr(ensemble, "_site_jumps", oversized)
    # n=4 at T=3 is one block of four realizations; the second one spills.
    message = rf"realization 1 \(seed {derive_seed(5, 1)}\): site-dependent shift at iteration 1"
    with pytest.raises(ValueError, match=message):
        static_quenched_average(POISSON1, 3, 4, master_seed=5)


_LAWS = [
    POISSON1,
    CONSTANT1,
    DistributionSpec("poisson", {"lambda": 2.0}),
    DistributionSpec("binomial", {"n": 2, "p": 0.5}),
    DistributionSpec("hypergeom", {"N": 4, "K": 2, "n": 2}),
    DistributionSpec("negbinom", {"r": 9, "p": 0.1}),
    DistributionSpec("geometric", {"p": 0.5}),
]


@settings(deadline=None)
@given(
    law=st.sampled_from(_LAWS),
    T=st.integers(min_value=1, max_value=10),
    master=st.integers(min_value=0, max_value=2**64 - 1),
    sizes=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
    static=st.booleans(),
)
def test_block_rows_are_lone_realizations_bit_for_bit(law, T, master, sizes, static):
    pmf = truncate(law)
    extent = max(1, T * pmf.r_max)
    seeds = [derive_seed(master, i) for i in range(sum(sizes))]
    sigmas, devs = [], []
    for end, size in zip(itertools.accumulate(sizes), sizes):
        block = seeds[end - size : end]
        if static:
            jumps = ensemble._site_jumps(pmf, extent, block)
        else:
            jumps = ensemble._step_jumps(pmf, T, block)
        block_sigmas, block_devs = ensemble._evolve_rows(jumps, T, static, hadamard())
        sigmas += block_sigmas
        devs += block_devs
    for seed, sigma, dev in zip(seeds, sigmas, devs):
        if static:
            realization = sample_static_realization(pmf, extent, seed, T)
            state, norm_log = run_static(T, realization.jumps, hadamard())
            alone_dev = max(abs(x - 1.0) for x in norm_log)
        else:
            state = run_dynamic(T, sample_dynamic_realization(pmf, T, seed).jumps, hadamard())
            alone_dev = 0.0
        assert sigma == site_std_dev(state.sites(), state.probabilities())
        assert dev == alone_dev


# The eleven laws the acceptance suite runs: the paper's pinned Poisson cut,
# the four means and the six sub- and super-Poissonian classes.
_ACCEPTANCE_LAWS = [POISSON1, *(spec for _, spec in MEANS_LAWS + CLASS_LAWS)]


@pytest.mark.parametrize("static", [False, True], ids=["dynamic", "static"])
@pytest.mark.parametrize("T", [4, 24])
@pytest.mark.parametrize("law", _ACCEPTANCE_LAWS, ids=str)
def test_blocks_cover_the_shard_in_order_within_budget(law, T, static):
    pmf = truncate(law)
    indices = range(3, 1203)
    covered = []
    for block, seeds, jumps in ensemble._blocks(indices, static, pmf, T, master_seed=7):
        assert len(block) == len(seeds) == len(jumps) >= 1
        assert seeds == [derive_seed(7, i) for i in block]
        extent = T * pmf.r_max if static else int(jumps.sum(axis=1).max())
        table = ensemble._table_bytes(len(block), extent)
        assert len(block) == 1 or table <= ensemble._BLOCK_BYTES
        covered += block
    assert covered == list(indices)
    if not static:
        lone = sample_dynamic_realization(pmf, T, derive_seed(7, indices[-1])).jumps
        np.testing.assert_array_equal(jumps[-1], lone)


def test_dynamic_blocks_are_sized_by_reach_not_by_bound():
    pmf = truncate(DistributionSpec("geometric", {"p": 0.5}))
    T = 24
    bound_rows = ensemble._BLOCK_BYTES // ensemble._table_bytes(1, T * pmf.r_max)
    sizes = [len(block) for block, _, _ in ensemble._blocks(range(4000), False, pmf, T, 42)]
    assert sum(sizes) / len(sizes) >= 2 * bound_rows


# --- resuming the walkers of the previous point --------------------------------


def _point(static, spec, T, n, master, workers=1):
    if static:
        return static_quenched_average(spec, T, n, master, workers)
    return quenched_average(spec, T, n, master, workers=workers)


def _cold_point(static, spec, T, n, master):
    """The point at T from walkers started at the origin."""
    ensemble.release_checkpoint()
    return _point(static, spec, T, n, master)


@settings(deadline=None, max_examples=30)
@given(
    law=st.sampled_from(_LAWS),
    grid=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5).map(sorted),
    n=st.integers(min_value=1, max_value=12),
    master=st.integers(min_value=0, max_value=2**64 - 1),
    static=st.booleans(),
    # Forked pool workers see the module as it was when they were forked, so
    # a patched budget need not reach them: the one-row budget runs at
    # workers=1.
    workers_budget=st.sampled_from([(1, ensemble._BLOCK_BYTES), (1, 1), (2, ensemble._BLOCK_BYTES)]),
)
def test_resumed_points_equal_cold_points_bit_for_bit(law, grid, n, master, static, workers_budget):
    workers, budget = workers_budget
    ensemble.release_checkpoint()
    with mock.patch.object(ensemble, "_BLOCK_BYTES", budget):
        swept = [_point(static, law, T, n, master, workers) for T in grid]
        if workers == 1:
            assert ensemble._CHECKPOINT.T == grid[-1]
    assert swept == [_cold_point(static, law, T, n, master) for T in grid]


@pytest.mark.parametrize("static", [False, True], ids=["dynamic", "static"])
def test_a_smaller_T_after_a_larger_one_starts_again(static):
    late = _point(static, POISSON1, 9, 7, 3)
    early = _point(static, POISSON1, 4, 7, 3)
    assert ensemble._CHECKPOINT.T == 4
    assert early == _cold_point(static, POISSON1, 4, 7, 3)
    assert late == _cold_point(static, POISSON1, 9, 7, 3)


def test_a_spill_mid_sweep_names_the_realization_and_keeps_no_checkpoint(monkeypatch):
    draw = ensemble._site_jumps

    def oversized(pmf, extent, seeds):
        jumps = draw(pmf, extent, seeds)
        if extent > 3 * pmf.r_max:
            jumps[2] = 2 * extent + 1  # from T=4 on, realization 2 jumps off its table
        return jumps

    monkeypatch.setattr(ensemble, "_site_jumps", oversized)
    ensemble.release_checkpoint()
    for T in (1, 3):
        static_quenched_average(POISSON1, T, 4, master_seed=5)
    assert ensemble._CHECKPOINT.T == 3
    message = rf"realization 2 \(seed {derive_seed(5, 2)}\): site-dependent shift at iteration 4"
    with pytest.raises(ValueError, match=message):
        static_quenched_average(POISSON1, 5, 4, master_seed=5)
    assert ensemble._CHECKPOINT is None


@pytest.mark.parametrize("static", [False, True], ids=["dynamic", "static"])
@pytest.mark.parametrize("cap", [1, 2 * ensemble._table_bytes(1, 3 * 5)])
def test_a_shard_over_the_cap_gives_the_same_bits_and_keeps_nothing(monkeypatch, static, cap):
    cold = [_cold_point(static, POISSON1, T, 40, 11) for T in (3, 5)]
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 1)  # one realization per block
    monkeypatch.setattr(ensemble, "_CHECKPOINT_BYTES", cap)  # no or a few blocks fit
    ensemble.release_checkpoint()
    for T, expected in zip((3, 5), cold):
        assert _point(static, POISSON1, T, 40, 11) == expected
        assert ensemble._CHECKPOINT is None


@pytest.mark.parametrize("static", [False, True], ids=["dynamic", "static"])
def test_resumed_tables_fit_the_block_budget(monkeypatch, static):
    tables = []
    evolve = ensemble._evolve

    def recording(a, *args, **kwargs):
        tables.append((len(a), a.nbytes))
        return evolve(a, *args, **kwargs)

    monkeypatch.setattr(ensemble, "_evolve", recording)
    monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 16 * 1024)
    ensemble.release_checkpoint()
    for T in range(2, 25, 2):
        _point(static, POISSON1, T, 200, 7)
    assert ensemble._CHECKPOINT.T == 24
    assert len(tables) > 12
    assert all(rows == 1 or size <= 16 * 1024 for rows, size in tables)


@pytest.mark.parametrize("stretch", [1, 3, 7])
@pytest.mark.parametrize("law", [POISSON1, DistributionSpec("geometric", {"p": 0.5})], ids=str)
def test_static_stretches_in_cut_tables_give_full_table_bits(monkeypatch, stretch, law):
    pmf, T = truncate(law), 9
    seeds = [derive_seed(13, i) for i in range(6)]
    maps = ensemble._site_jumps(pmf, T * pmf.r_max, seeds)
    monkeypatch.setattr(ensemble, "_STATIC_STRETCH", stretch)
    sigmas, devs = ensemble._evolve_rows(maps, T, True, hadamard())
    for seed, sigma, dev in zip(seeds, sigmas, devs):
        site_map = sample_static_realization(pmf, T * pmf.r_max, seed, T).jumps
        state, norm_log = run_static(T, site_map, hadamard())
        assert sigma == site_std_dev(state.sites(), state.probabilities())
        assert dev == max(abs(x - 1.0) for x in norm_log)


def test_static_checkpoint_keeps_only_the_span_its_walkers_reach():
    ensemble.release_checkpoint()
    for T in (10, 20):
        _point(True, POISSON1, T, 50, 2)
    tables = ensemble._CHECKPOINT.tables
    assert sum(len(a) for a in tables) == 50
    for a in tables:
        assert a.shape[-1] < 2 * 20 * 5 + 1
        assert a[..., [0, -1]].any()  # no wider than the amplitude
    ensemble.release_checkpoint()
    assert ensemble._CHECKPOINT is None


@pytest.mark.parametrize("static", [False, True], ids=["dynamic", "static"])
def test_threads_sharing_the_checkpoint_get_cold_bits(static):
    # Four threads run one sweep at once, more threads than cores, with a
    # short switch interval: a thread that advanced walkers another thread
    # holds would fail or give other bits than cold points.
    grid = list(range(1, 9))
    cold = [_cold_point(static, POISSON1, T, 9, 1) for T in grid]
    results = {}

    def run(slot):
        results[slot] = [_point(static, POISSON1, T, 9, 1) for T in grid]

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {slot: cold for slot in range(4)}


@pytest.mark.parametrize("static", [False, True], ids=["dynamic", "static"])
def test_threads_sharing_the_pinned_workers_get_cold_bits(static):
    # As above at workers=2: the threads share this process's checkpoint and
    # the worker, and each must read its own replies from the worker's pipe.
    grid = list(range(1, 9))
    cold = [_cold_point(static, POISSON1, T, 9, 1) for T in grid]
    results = {}

    def run(slot):
        results[slot] = [_point(static, POISSON1, T, 9, 1, workers=2) for T in grid]

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {slot: cold for slot in range(4)}
