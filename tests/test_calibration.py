"""Multi-power OTA calibration: basis, training, estimation, SLP, phases."""

import dataclasses
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimo_recal as mr
from mimo_recal.calibration import (
    CalibrationError,
    TrainingSet,
    _phi_all,
    _phi_grid,
    _psi_coeff_table,
    estimate_poly_coeffs_anchored,
    measured_level_shapes,
    psi_vector,
)
from tests.conftest import (
    LAW_SEEDS,
    LAW_Z,
    FixedPilots,
    TrainingRecord,
    assemble_psi_matrix,
    estimate_poly_coeffs,
    gauge_fit_error,
    ota_link_moments,
    ref_linear_calibration,
    ref_measured_level_shapes,
    ref_pair_statistics,
    ref_pilot_samples,
    ref_simulate_ota_training,
    same_law,
    slp_bisection_oracle,
    synth_poly_training,
    training_from_samples,
)


def _setup(m, k, seed, ibo=10.0, rho=1.0, delta2=0.05, n_levels=7, n_symbols=10,
           ibo_min=0.0):
    rng = np.random.default_rng(seed)
    mis = mr.HardwareMismatch.uniform(delta2, math.pi / 6)
    hw = mr.draw_system_hardware(rng, m, k, mis, mr.a_sat_for_ibo(ibo, rho, m))
    omega = mr.draw_inter_antenna_channel(rng, m)
    # the amplitude cap sits ibo_min dB below the geometric-mean saturation level
    base = float(np.exp(np.mean(np.log(hw.a_sat))))
    plan = mr.PilotPlan(n_levels, n_symbols, base * 10.0 ** (-ibo_min / 10.0))
    return hw, omega, plan, rng


class TestOrthPoly:
    def test_order_zero_constant(self):
        assert psi_vector(0, 0.0)[0] == 2.0
        assert psi_vector(0, 7.3)[0] == 2.0

    def test_order_one_linear(self):
        for s in (0.0, 0.5, 2.0):
            assert psi_vector(1, s)[1] == pytest.approx(12.0 * s - 6.0, rel=1e-14)

    def test_order_two_constant_term(self):
        assert psi_vector(2, 0.0)[2] == pytest.approx(12.0, rel=1e-14)

    def test_exact_rational_coefficients(self):
        # integer-factorial oracle at exactly representable dyadic nodes
        for order in range(9):
            for j in range(17):
                z = j / 16.0
                ref = float(sum(
                    Fraction((-1) ** (l + order))
                    * Fraction(math.factorial(order + l + 2),
                               math.factorial(l) * math.factorial(l + 1)
                               * math.factorial(order - l))
                    * Fraction(z) ** l
                    for l in range(order + 1)))
                if ref == 0.0:
                    assert abs(psi_vector(order, z)[order]) < 1e-9
                else:
                    assert psi_vector(order, z)[order] == pytest.approx(ref, rel=1e-10)

    def test_coefficient_table_cached_read_only(self):
        table = _psi_coeff_table(5)
        assert _psi_coeff_table(5) is table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            psi_vector(21, 0.5)
        with pytest.raises(ValueError):
            psi_vector(-1, 0.5)


class TestPilotPlan:
    def test_levels_increasing_and_counts(self):
        plan = mr.PilotPlan(5, 10, 1.0)
        assert plan.n_levels == 5 and plan.n_symbols == 10
        assert np.all(np.diff(plan.levels) > 0)
        assert np.array_equal(plan.levels, (np.arange(1, 6) / 5) ** 2)
        assert plan.amplitudes.shape == (5,)
        assert plan.amplitudes[4] == pytest.approx(1.0)
        assert plan.amplitudes[0] == pytest.approx(0.2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            mr.PilotPlan(0, 10, 1.0)
        with pytest.raises(ValueError):
            mr.PilotPlan(3, 0, 1.0)
        with pytest.raises(ValueError):
            mr.PilotPlan(3, 5, 0.0)
        # the cap is one amplitude for every antenna
        with pytest.raises(ValueError, match="sigma_max must be one number"):
            mr.PilotPlan(3, 5, np.ones(2))

    @pytest.mark.parametrize("n_levels, n_symbols, name", [
        (3.5, 5, "n_levels"), (True, 5, "n_levels"), (3, 2.0, "n_symbols"),
        (3, False, "n_symbols")])
    def test_counts_must_be_integers(self, n_levels, n_symbols, name):
        # PilotPlan(3.5, ...) built 4 levels, the top one 1.31x above the cap
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            mr.PilotPlan(n_levels, n_symbols, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_sigma_max_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="sigma_max"):
            mr.PilotPlan(3, 5, bad)


class TestSimulateOta:
    def test_noiseless_unit_system(self):
        hw, omega, plan, rng = _setup(4, 2, 0)
        hw_id = mr.draw_system_hardware(np.random.default_rng(1), 4, 2,
                                        mr.HardwareMismatch.none(), 1e9,
                                        ue_pilot_amp=1e-9)
        recs = mr.simulate_ota_training(hw_id, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(2))
        # y = r_i * omega * sqrt(a0) g x with g = 1 in the linear regime
        link = math.sqrt(hw_id.a0) * omega[:, :, None]
        assert np.allclose(recs.ratio, np.broadcast_to(link, recs.ratio.shape), rtol=1e-6)
        assert np.allclose(recs.xcorr, link * np.einsum("rnq,tnq->trn", recs.x, recs.x),
                           rtol=1e-6)

    @pytest.mark.parametrize("mode", ["surrogate", "physical"])
    def test_pilot_carries_the_data_chain_gain(self, mode):
        # one small pilot from antenna tx reaches antenna rx with the gain
        # sqrt(a0) t_tx r_rx omega, the gain transmit_block gives data that
        # antenna tx alone sends through the same amplifier
        hw, omega, _, _ = _setup(4, 1, 51)
        plan = mr.PilotPlan(1, 3, 1e-4 * float(np.min(hw.a_sat)))
        ts = mr.simulate_ota_training(hw, plan, omega, 0.0, mode, np.random.default_rng(52))
        tx, rx = 1, 2
        x = ts.x[tx, 0]
        w = np.zeros((4, 1), complex)
        w[tx] = 1.0
        data = mr.transmit_block(hw, np.ones((1, 4), complex), w, x[:, None])[:, 0]
        gain = math.sqrt(hw.a0) * hw.t[tx]
        assert np.allclose(data / (hw.ue_rx[0] * x), gain, rtol=1e-7)
        link = hw.bs_rx[rx] * omega[tx, rx]
        assert ts.ratio[tx, rx, 0] / link == pytest.approx(gain, rel=1e-7)
        assert ts.xcorr[tx, rx, 0] / (link * np.sum(ts.x[rx, 0] * x)) == pytest.approx(
            gain, rel=1e-7)

    def test_reciprocity_of_propagation(self):
        hw, omega, plan, _ = _setup(4, 2, 3)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(4))
        for m in range(4):
            for i in range(4):
                if i == m:
                    continue
                for n in range(plan.n_levels):
                    g = mr.bussgang_decompose(hw, plan.amplitudes[n]).g
                    # y_{m,i}/(g_m x_m) = sqrt(a0) r_i w_{mi}; the symmetric pair
                    # shares w, and x_i . y_{m->i} shares the pilot product too
                    for stat in (recs.ratio, recs.xcorr):
                        assert stat[m, i, n] / (g[m] * hw.bs_rx[i]) == pytest.approx(
                            stat[i, m, n] / (g[i] * hw.bs_rx[m]), rel=1e-9)

    def test_constant_modulus_pilots(self):
        hw, omega, plan, _ = _setup(4, 2, 5, n_symbols=1000)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(6))
        for tx in range(4):
            for n in range(plan.n_levels):
                amp = plan.amplitudes[n]
                assert np.allclose(np.abs(recs.x[tx, n]), amp, rtol=1e-12)
                rms = math.sqrt(float(np.mean(np.abs(recs.x[tx, n]) ** 2)))
                assert rms == pytest.approx(amp, rel=1e-3)

    def test_symmetry_validation(self):
        hw, omega, plan, _ = _setup(4, 2, 7)
        bad = omega.copy()
        bad[0, 1] = bad[0, 1] + 1.0
        with pytest.raises(ValueError):
            mr.simulate_ota_training(hw, plan, bad, 0.0, "surrogate",
                                     np.random.default_rng(8))

    @pytest.mark.parametrize("noise_var", [-1.0, math.nan, math.inf])
    def test_bad_noise_var_rejected(self, noise_var):
        hw, omega, plan, rng = _setup(4, 2, 7)
        with pytest.raises(ValueError, match="noise_var"):
            mr.simulate_ota_training(hw, plan, omega, noise_var, "surrogate", rng)

    @pytest.mark.parametrize("mode", ["surrogate", "physical"])
    def test_noise_leaves_the_pilots(self, mode):
        # one draw order: every pilot phase comes first, whatever noise_var is
        hw, omega, plan, _ = _setup(6, 2, 29)
        quiet = mr.simulate_ota_training(hw, plan, omega, 0.0, mode, np.random.default_rng(3))
        noisy = mr.simulate_ota_training(hw, plan, omega, 0.5, mode, np.random.default_rng(3))
        assert np.array_equal(quiet.x, noisy.x)
        assert not np.array_equal(quiet.ratio, noisy.ratio)
        assert not np.array_equal(quiet.xcorr, noisy.xcorr)

    def test_record_count(self):
        hw, omega, plan, _ = _setup(5, 2, 9)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(10))
        assert recs.x.shape == (5, plan.n_levels, plan.n_symbols)
        for stat in (recs.ratio, recs.xcorr):
            assert stat.shape == (5, 5, plan.n_levels)
            assert np.all(stat[np.arange(5), np.arange(5)] == 0)
            assert np.count_nonzero(stat) == 5 * 4 * plan.n_levels
        assert recs.plan is plan


def _close(a, b, rel=1e-12):
    return np.max(np.abs(a - b), initial=0.0) <= rel * np.max(np.abs(b), initial=0.0)


class TestTensorMatchesRecordReference:
    """The TrainingSet path against the record-based loop implementation."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 6), n_levels=st.integers(1, 4), q=st.integers(1, 5),
           mode=st.sampled_from(["surrogate", "physical"]),
           seed=st.integers(0, 2**32 - 1))
    def test_same_draws_same_outputs(self, m, n_levels, q, mode, seed):
        rng = np.random.default_rng(seed)
        hw = mr.draw_system_hardware(rng, m, 1, mr.HardwareMismatch.uniform(0.05, 0.5),
                                     mr.a_sat_for_ibo(10.0, 1.0, m))
        omega = mr.draw_inter_antenna_channel(rng, m)
        plan = mr.PilotPlan.for_hardware(hw, n_levels, q)
        rng_ts, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        ts = mr.simulate_ota_training(hw, plan, omega, 0.0, mode, rng_ts)
        recs = ref_simulate_ota_training(hw, plan, omega, 0.0, mode, rng_ref)

        assert len(recs) == m * (m - 1) * n_levels
        _assert_pair_statistics(ts, recs, plan)
        # without noise the round draws the pilot phases and nothing else
        assert rng_ts.bit_generator.state == rng_ref.bit_generator.state
        _assert_pilot_consumers(ts, recs, plan)


def _assert_pilot_consumers(ts, recs, plan):
    # the level shapes against the oracle's records; the calibration against
    # the oracle's solve on the xcorr that _assert_pair_statistics pinned,
    # as the normal equations amplify its rounding by their condition number
    assert _close(measured_level_shapes(ts), ref_measured_level_shapes(recs, plan))
    unit = np.ones(1, dtype=np.complex128)
    for n in range(plan.n_levels):
        same_xcorr = [TrainingRecord(t, r, n, x=unit, y=ts.xcorr[t, r, n:n + 1])
                      for t in range(ts.m) for r in range(ts.m) if r != t]
        assert _close(mr.linear_calibration(ts, n), ref_linear_calibration(same_xcorr))


def _assert_pair_statistics(ts, recs, plan):
    # the pilots bit for bit; ratio and xcorr, which the round forms from the
    # pilots' complex gain and the level-batched pilot products, to rounding
    # of the per-pair mean of y/x and sum of x_r y
    for rec in recs:
        assert np.array_equal(ts.x[rec.tx_antenna, rec.level], rec.x)
    ratio, xcorr = ref_pair_statistics(recs, plan)
    assert _close(ts.ratio, ratio)
    assert _close(ts.xcorr, xcorr)
    diag = np.arange(ts.m)
    assert not np.any(ts.ratio[diag, diag]) and not np.any(ts.xcorr[diag, diag])


@pytest.mark.parametrize("mode", ["surrogate", "physical"])
@pytest.mark.parametrize("noise_var", [0.0, 0.5])
def test_training_at_benchmark_size(noise_var, mode):
    # M=64, N=7, Q=10, the calibration benchmark's round: the noiseless
    # statistics of the per-pair loop, and with noise the draw order one
    # (M, N, Q) uniform block, then one (2, 2, M, M, N) normal block holding
    # the real and imaginary parts of a, then of e
    hw, omega, plan, _ = _setup(64, 8, 23)
    rng_ts, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    ts = mr.simulate_ota_training(hw, plan, omega, noise_var, mode, rng_ts)
    recs = ref_simulate_ota_training(hw, plan, omega, 0.0, mode, rng_ref)
    if noise_var == 0:
        _assert_pair_statistics(ts, recs, plan)
        _assert_pilot_consumers(ts, recs, plan)
        assert rng_ts.bit_generator.state == rng_ref.bit_generator.state
        return
    z = rng_ref.standard_normal((2, 2, 64, 64, plan.n_levels))
    assert rng_ts.bit_generator.state == rng_ref.bit_generator.state
    ratio, xcorr = ref_pair_statistics(recs, plan)
    s = np.einsum("tnq,rnq->trn", ts.x, ts.x)
    energy = plan.n_symbols * plan.amplitudes ** 2
    ratio += np.sqrt(noise_var / 2 / energy) * (z[0, 0] + 1j * z[0, 1])
    e_var = np.maximum(energy - np.abs(s) ** 2 / energy, 0.0) * noise_var / 2
    xcorr = s * ratio + np.sqrt(e_var) * (z[1, 0] + 1j * z[1, 1])
    off = ~np.eye(64, dtype=bool)
    assert _close(ts.ratio[off], ratio[off]) and _close(ts.xcorr[off], xcorr[off])
    diag = np.arange(64)
    assert not np.any(ts.ratio[diag, diag]) and not np.any(ts.xcorr[diag, diag])


def _law_round(mode):
    """A 3-antenna, 2-level round of 5 pilots at fixed pilots: the plan, the
    noiseless (ratio, xcorr), the library's sampler at noise variance 0.5
    and the sample-level oracle's at a given noise variance."""
    hw, omega, plan, _ = _setup(3, 1, 41, n_levels=2, n_symbols=5)

    def oracle(noise_var):
        return lambda rng: ref_pair_statistics(ref_simulate_ota_training(
            hw, plan, omega, noise_var, mode, FixedPilots(43, rng)), plan)

    def library(rng):
        ts = mr.simulate_ota_training(hw, plan, omega, 0.5, mode, FixedPilots(43, rng))
        return ts.ratio, ts.xcorr

    return plan, oracle(0.0)(np.random.default_rng(0)), library, oracle


@pytest.mark.parametrize("mode", ["surrogate", "physical"])
def test_noisy_statistics_follow_the_sample_law(mode):
    # given the pilots, the drawn (ratio, xcorr) of every link has the means,
    # variances, covariance and pseudo-covariances of the per-sample
    # exchange; the same call detects the oracle at 1.1 times the noise
    # variance (its power)
    plan, quiet, library, oracle = _law_round(mode)
    stats = ota_link_moments(plan, 0.5, quiet)
    same_law(library, oracle(0.5), stats, LAW_SEEDS, LAW_Z)
    with pytest.raises(AssertionError, match=r"\|z\| = "):
        same_law(library, oracle(0.55), stats, LAW_SEEDS, LAW_Z)


class TestSameLaw:
    def test_oracle_against_itself(self):
        plan, quiet, _, oracle = _law_round("surrogate")
        same_law(oracle(0.5), oracle(0.5), ota_link_moments(plan, 0.5, quiet),
                 LAW_SEEDS, LAW_Z)

    def test_tenth_more_noise_variance_detected(self):
        plan, quiet, _, oracle = _law_round("surrogate")
        with pytest.raises(AssertionError, match=r"\|z\| = "):
            same_law(oracle(0.5), oracle(0.55), ota_link_moments(plan, 0.5, quiet),
                     LAW_SEEDS, LAW_Z)


@pytest.mark.parametrize("mode", ["surrogate", "physical"])
def test_single_pilot_leaves_no_xcorr_noise(mode):
    # at Q = 1 the pilots of t and r are collinear, |S| = Q amp^2 and e's
    # variance is 0, up to rounding on either side of it
    hw, omega, plan, rng = _setup(6, 2, 47, n_symbols=1)
    ts = mr.simulate_ota_training(hw, plan, omega, 0.5, mode, rng)
    assert np.all(np.isfinite(ts.ratio)) and np.all(np.isfinite(ts.xcorr))
    pilot_product = np.einsum("tnq,rnq->trn", ts.x, ts.x)
    assert np.allclose(ts.xcorr, pilot_product * ts.ratio, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("mode", ["surrogate", "physical"])
def test_training_memory_does_not_grow_with_the_pilot_count(mode):
    # M=96, N=7, Q=40: the received samples alone would take 41 MB; the round
    # keeps two (M, M, N) statistics, 2 MB, and draws its noise into two
    # real temporaries of that shape, 1 MB
    hw, omega, plan, rng = _setup(96, 2, 31, n_symbols=40)
    tracemalloc.start()
    try:
        ts = mr.simulate_ota_training(hw, plan, omega, 0.5, mode, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert all(np.ndim(getattr(ts, f.name)) < 4 for f in dataclasses.fields(ts))


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 12), n_levels=st.integers(1, 7), q=st.integers(1, 12),
       noisy=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_level_shapes_match_one_shot_profile(m, n_levels, q, noisy, seed):
    # the profiles of one contraction over ratio against the per-antenna
    # loop: without noise on the sample-level oracle's records, with noise on
    # records whose mean y/x is the drawn ratio
    rng = np.random.default_rng(seed)
    hw = mr.draw_system_hardware(rng, m, 1, mr.HardwareMismatch.uniform(0.05, 0.5),
                                 mr.a_sat_for_ibo(10.0, 1.0, m))
    plan = mr.PilotPlan.for_hardware(hw, n_levels, q)
    omega = mr.draw_inter_antenna_channel(rng, m)
    noise_var = 1.0 if noisy else 0.0
    rng_ts, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    ts = mr.simulate_ota_training(hw, plan, omega, noise_var, "surrogate", rng_ts)
    if noisy:
        recs = [TrainingRecord(t, r, n, x=ts.x[t, n], y=ts.ratio[t, r, n] * ts.x[t, n])
                for t in range(m) for r in range(m) if r != t for n in range(n_levels)]
    else:
        recs = ref_simulate_ota_training(hw, plan, omega, 0.0, "surrogate", rng_ref)
    assert _close(measured_level_shapes(ts), ref_measured_level_shapes(recs, plan))


@pytest.mark.parametrize("n_levels, n_symbols", [(4, 10), (3, 9)])
def test_training_set_rejects_pilots_off_its_plan(n_levels, n_symbols):
    # a round holds N levels of Q pilots, as its plan says, or none is built
    hw, omega, plan, rng = _setup(4, 2, 7, n_levels=3)
    ts = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate", rng)
    other = mr.PilotPlan(n_levels, n_symbols, plan.sigma_max)
    with pytest.raises(ValueError, match=f"x holds 3 levels of 10 pilots, the pilot plan "
                                         f"{n_levels} of {n_symbols}"):
        TrainingSet(plan=other, x=ts.x, ratio=ts.ratio, xcorr=ts.xcorr)


class TestAssembleAndEstimate:
    def test_smallest_instance_structure(self):
        # M=2, N=1, Q=1, order 1: one row [ybar@1 psi0, ybar@1 psi1,
        # -ybar@2 psi0, -ybar@2 psi1]
        x1 = np.array([1.0 + 0.5j])
        x2 = np.array([0.3 - 1.0j])
        y21 = np.array([0.7 + 0.2j])   # received at antenna 1 (tx 2)
        y12 = np.array([-0.4 + 0.9j])  # received at antenna 2 (tx 1)
        # the fit reads only the plan's level grid
        plan = mr.PilotPlan(1, 1, 1.0)
        y = np.zeros((2, 2, 1, 1), dtype=complex)
        y[0, 1, 0] = y12
        y[1, 0, 0] = y21
        psi = assemble_psi_matrix(plan, np.array([x1, x2])[:, None], y, order=1)
        assert psi.shape == (1, 4)
        psi_vals = psi_vector(1, float(plan.levels[0]))
        ybar_1 = y21[0] * x1[0]
        ybar_2 = y12[0] * x2[0]
        assert psi[0, 0] == pytest.approx(ybar_1 * psi_vals[0])
        assert psi[0, 1] == pytest.approx(ybar_1 * psi_vals[1])
        assert psi[0, 2] == pytest.approx(-ybar_2 * psi_vals[0])
        assert psi[0, 3] == pytest.approx(-ybar_2 * psi_vals[1])

    def test_row_count(self):
        hw, omega, plan, _ = _setup(6, 2, 11, n_levels=4, n_symbols=3)
        x, y = ref_pilot_samples(ref_simulate_ota_training(
            hw, plan, omega, 0.0, "surrogate", np.random.default_rng(12)), plan)
        psi = assemble_psi_matrix(plan, x, y, order=2)
        assert psi.shape == (6 * 5 // 2 * 4 * 3, 6 * 3)

    def test_ground_truth_in_null_space(self):
        hw, omega, plan, rng = _setup(6, 2, 13, n_levels=8, n_symbols=3)
        order = 4
        tau = (rng.standard_normal((6, order + 1))
               + 1j * rng.standard_normal((6, order + 1)))
        tau /= tau[0, 0]
        x, y = synth_poly_training(hw, plan, omega, tau, order, rng)
        psi = assemble_psi_matrix(plan, x, y, order)
        resid = np.linalg.norm(psi @ tau.ravel())
        assert resid <= 1e-10 * np.linalg.norm(psi) * np.linalg.norm(tau)

    def test_noiseless_synthetic_recovery(self):
        hw, omega, plan, rng = _setup(8, 2, 14, n_levels=10, n_symbols=3)
        order = 5
        tau = (rng.standard_normal((8, order + 1))
               + 1j * rng.standard_normal((8, order + 1)))
        tau /= tau[0, 0]
        x, y = synth_poly_training(hw, plan, omega, tau, order, rng)
        psi = assemble_psi_matrix(plan, x, y, order)
        est = estimate_poly_coeffs(psi, order, sigma_ref=plan.sigma_max)
        assert np.max(np.abs(est.tau - tau)) <= 1e-8 * np.max(np.abs(tau))

    def test_identical_antennas_equal_blocks(self):
        # all mu_m equal: the pair-ratio system is exactly degenerate along
        # the per-level scale family, which the paper's LS reports; the
        # gauge-anchored estimator is well posed and returns equal blocks
        hw, omega, plan, rng = _setup(6, 2, 15, n_levels=8, n_symbols=2)
        order = 3
        tau_row = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
        tau = np.tile(tau_row, (6, 1))
        tau /= tau[0, 0]
        x, y = synth_poly_training(hw, plan, omega, tau, order, rng)
        with pytest.raises(CalibrationError):
            estimate_poly_coeffs(assemble_psi_matrix(plan, x, y, order), order)
        est = estimate_poly_coeffs_anchored(training_from_samples(plan, x, y), order)
        for m in range(1, 6):
            assert np.allclose(est.tau[m], est.tau[0], atol=1e-8)

    def test_rank_deficiency_detected(self):
        # N = order + 1 leaves the per-level scale family unresolved
        hw, omega, plan, rng = _setup(6, 2, 16, n_levels=4, n_symbols=2)
        x, y = ref_pilot_samples(
            ref_simulate_ota_training(hw, plan, omega, 0.0, "surrogate", rng), plan)
        with pytest.raises(CalibrationError):
            estimate_poly_coeffs(assemble_psi_matrix(plan, x, y, 3), 3)

    def test_snr_trend(self):
        # coefficient error decreases monotonically with training SNR
        order = 3
        errs = []
        for noise_var in (1e-1, 1e-3, 1e-5):
            acc = 0.0
            for trial in range(40):
                hw, omega, plan, rng = _setup(5, 2, (17, trial), n_levels=6,
                                              n_symbols=4)
                tau = (rng.standard_normal((5, order + 1))
                       + 1j * rng.standard_normal((5, order + 1)))
                tau /= tau[0, 0]
                x, y = synth_poly_training(hw, plan, omega, tau, order, rng)
                for tx in range(5):
                    for n in range(plan.n_levels):
                        for rx in range(5):
                            if rx != tx:
                                y[tx, rx, n] += math.sqrt(noise_var / 2) * (
                                    rng.standard_normal(plan.n_symbols)
                                    + 1j * rng.standard_normal(plan.n_symbols))
                est = estimate_poly_coeffs(assemble_psi_matrix(plan, x, y, order), order)
                acc += float(np.linalg.norm(est.tau - tau) / np.linalg.norm(tau))
            errs.append(acc / 40)
        assert errs[0] > errs[1] > errs[2]


class TestMuHatFit:
    def test_fit_quality_noiseless(self):
        # anchored estimate within 1% of the true mismatch functions
        # (up to the global scale), 5 dB training back-off
        hw, omega, plan, _ = _setup(16, 2, 18, ibo=10.0, n_levels=7, n_symbols=10,
                                    ibo_min=5.0)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(19))
        poly = estimate_poly_coeffs_anchored(recs, 5)
        assert gauge_fit_error(poly, mr.TrueMismatch(hw), plan) <= 0.01

    def test_phase_continuity(self):
        hw, omega, plan, _ = _setup(8, 2, 20, n_levels=7, ibo_min=5.0)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(21))
        poly = estimate_poly_coeffs_anchored(recs, 5)
        grid = np.linspace(1e-3, 1.0, 50)[:, None] * plan.sigma_max
        phases = np.unwrap(np.angle(poly.mu_all(grid)), axis=0)
        assert np.max(np.abs(np.diff(phases, axis=0))) < math.pi / 2

    def test_real_coefficients_zero_phase(self):
        tau = np.zeros((2, 3), dtype=complex)
        tau[:, 0] = 1.0
        tau[0, 0] = 1.0
        poly = mr.PolyMismatch(tau=tau, sigma_ref=1.0)
        assert poly.order == 2  # read from the width of tau
        sigma = np.full(2, 0.5)
        val = poly.mu_all(sigma)[0]
        assert np.angle(val) == pytest.approx(0.0, abs=1e-15)


class TestLinearCalibration:
    def test_identical_hardware(self):
        hw = mr.draw_system_hardware(np.random.default_rng(0), 4, 2,
                                     mr.HardwareMismatch.none(), 1e9, ue_pilot_amp=1e-9)
        omega = mr.draw_inter_antenna_channel(np.random.default_rng(1), 4)
        plan = mr.PilotPlan(1, 8, 0.01)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(2))
        c = mr.linear_calibration(recs, 0)
        assert np.allclose(c, 1.0, rtol=1e-9)

    def test_two_antenna_ratio(self):
        hw, omega, plan0, _ = _setup(2, 1, 3, ibo=60.0)
        plan = mr.PilotPlan(1, 6, plan0.sigma_max * 1e-3)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(4))
        c = mr.linear_calibration(recs, 0)
        g = mr.bussgang_decompose(hw, plan.amplitudes[0]).g
        f_ratio = (g[1] / hw.bs_rx[1]) / (g[0] / hw.bs_rx[0])
        assert c[0] / c[1] == pytest.approx(f_ratio, rel=1e-10)

    def test_equalisation_linear_regime(self):
        # deep back-off: c_m t_m / r_m is a common constant after calibration
        hw, omega, plan0, _ = _setup(8, 2, 5, ibo=60.0)
        plan = mr.PilotPlan(1, 6, plan0.sigma_max * 1e-6)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(6))
        c = mr.linear_calibration(recs, 0)
        products = c * hw.t / hw.bs_rx
        assert np.max(np.abs(products - products[0])) <= 1e-8 * np.abs(products[0])

    def test_validation(self):
        # a negative level indexed another power level from the end
        hw, omega, plan, rng = _setup(4, 2, 7, n_levels=2)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate", rng)
        for level in (-1, 2):
            with pytest.raises(ValueError, match=rf"level must lie in \[0, 2\), got {level}"):
                mr.linear_calibration(recs, level)


class TestSlpSolve:
    def test_equal_antennas_binding_power(self):
        hw = mr.draw_system_hardware(np.random.default_rng(0), 8, 2,
                                     mr.HardwareMismatch.none(), 2.0, ue_pilot_amp=1e-9)
        model = mr.TrueMismatch(hw)
        sigma_x = hw.sigma_x(1.0)
        c_max = np.full(8, 4.0)
        res = mr.slp_solve(model, sigma_x, 1.0, c_max)
        assert res.converged
        assert np.allclose(np.abs(res.c), np.abs(res.c[0]), rtol=1e-6)
        power = float(np.sum(np.abs(res.c) ** 2 * sigma_x**2))
        assert power == pytest.approx(1.0, abs=1e-9)

    def test_linear_model_closed_form(self):
        # constant mu per antenna: |c_m| proportional to 1/mu_m, capped
        class LinearModel:
            def __init__(self, gains):
                self.gains = np.asarray(gains, dtype=np.float64)

            def mu_all(self, sigma):
                return self.gains.astype(complex)

        gains = np.array([1.0, 0.5, 2.0, 1.5])
        sigma_x = np.full(4, 0.5)
        c_max = np.full(4, 10.0)
        res = mr.slp_solve(LinearModel(gains), sigma_x, 1.0, c_max)
        expect = 1.0 / gains
        expect *= math.sqrt(1.0 / float(np.sum(expect**2 * sigma_x**2)))
        assert np.allclose(np.abs(res.c), expect, rtol=1e-5)

    def test_matches_bisection_oracle(self, default_mismatch):
        instances, g0 = [], []
        for seed in range(10):
            rng = np.random.default_rng((1, seed))
            m = int(rng.choice([8, 64]))
            hw = mr.draw_system_hardware(rng, m, 2, default_mismatch,
                                         mr.a_sat_for_ibo(rng.uniform(3, 15), 1.0, m))
            model = mr.TrueMismatch(hw)
            sigma_x = hw.sigma_x(1.0)
            c_max = float(np.exp(np.mean(np.log(hw.a_sat)))) / sigma_x
            instances.append((model, sigma_x, 1.0, c_max))
            g0.append(mr.slp_solve(model, sigma_x, 1.0, c_max, strict=False).g0)
        assert g0 == pytest.approx(list(slp_bisection_oracle(instances)), rel=1e-4)

    def test_min_phi_monotone(self, default_mismatch):
        hw = mr.draw_system_hardware(np.random.default_rng(2), 16, 2,
                                     default_mismatch, mr.a_sat_for_ibo(8.0, 1.0, 16))
        history = []
        res = mr.slp_solve(mr.TrueMismatch(hw), hw.sigma_x(1.0), 1.0,
                           2.0 * np.ones(16), strict=False,
                           monitor=lambda it, c, g: history.append(g))
        assert len(history) >= 2
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
        assert res.g0 == pytest.approx(history[-1])

    def test_never_returns_zero(self, default_mismatch):
        hw = mr.draw_system_hardware(np.random.default_rng(3), 8, 2,
                                     default_mismatch, mr.a_sat_for_ibo(10.0, 1.0, 8))
        res = mr.slp_solve(mr.TrueMismatch(hw), hw.sigma_x(1.0), 1.0, np.ones(8),
                           strict=False)
        assert res.g0 > 0
        assert np.all(np.abs(res.c) > 0)

    def test_phi_grid_matches_column_by_column(self):
        # the concavity grid is one model call over (65, M) amplitudes
        hw, omega, plan, _ = _setup(16, 2, 18, ibo_min=5.0)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(19))
        sigma_x = hw.sigma_x(1.0)
        c_max = plan.sigma_max / sigma_x
        for model in (mr.TrueMismatch(hw), estimate_poly_coeffs_anchored(recs, 5)):
            columns = np.stack([_phi_all(model, frac * c_max, sigma_x)
                                for frac in np.linspace(0.0, 1.0, 65)], axis=1)
            assert np.array_equal(_phi_grid(model, sigma_x, c_max), columns)

    @pytest.mark.parametrize("name", ["sigma_x", "c_max", "rho_t"])
    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf])
    def test_non_positive_or_non_finite_input_rejected(self, name, bad):
        # a NaN cap returned a NaN c, rho_t = NaN a made-up c, and a zero cap
        # c ~ 1e-3 c_max with g0 = 0 and only a non-convergence warning
        hw = mr.draw_system_hardware(np.random.default_rng(3), 8, 2,
                                     mr.HardwareMismatch.none(), 2.0)
        args = {"sigma_x": hw.sigma_x(1.0), "c_max": np.full(8, 4.0), "rho_t": 1.0}
        if name == "rho_t":
            args[name] = bad
        else:
            args[name] = args[name].copy()
            args[name][3] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            mr.slp_solve(mr.TrueMismatch(hw), args["sigma_x"], args["rho_t"], args["c_max"])

    def test_concavity_gate(self):
        class BadModel:
            def mu_all(self, sigma):
                return (1.0 + np.cos(8.0 * np.asarray(sigma)) ** 2).astype(complex)

        with pytest.raises(CalibrationError):
            mr.slp_solve(BadModel(), np.ones(4), 1.0, np.ones(4), strict=True)


class TestPhases:
    def test_pure_rotation(self):
        tau = np.zeros((2, 2), dtype=complex)
        tau[0, 0] = 1.0
        tau[1, 0] = np.exp(1j * math.pi / 7)
        poly = mr.PolyMismatch(tau=tau, sigma_ref=1.0)
        phases = mr.calibration_phases(poly, np.array([0.1, 0.1]), np.ones(2))
        assert phases[0] == pytest.approx(0.0, abs=1e-12)
        assert phases[1] == pytest.approx(-math.pi / 7, rel=1e-9)

    def test_residual_phase_zero(self, default_mismatch):
        hw = mr.draw_system_hardware(np.random.default_rng(4), 8, 2,
                                     default_mismatch, mr.a_sat_for_ibo(10.0, 1.0, 8))
        model = mr.TrueMismatch(hw)
        sigma_x = hw.sigma_x(1.0)
        c_abs = np.full(8, 0.7)
        phases = mr.calibration_phases(model, c_abs, sigma_x)
        c = c_abs * np.exp(1j * phases)
        rotated = c * model.mu_all(c_abs * sigma_x)
        assert np.max(np.abs(np.angle(rotated))) <= 1e-10

    def test_amplitude_decoupling(self, default_mismatch):
        # the phase step does not alter |c| or g0
        hw = mr.draw_system_hardware(np.random.default_rng(5), 8, 2,
                                     default_mismatch, mr.a_sat_for_ibo(10.0, 1.0, 8))
        plan = mr.PilotPlan.for_hardware(hw, 7, 5)
        omega = mr.draw_inter_antenna_channel(np.random.default_rng(6), 8)
        res = mr.calibrate(hw, mr.simulate_ota_training(
            hw, plan, omega, 0.0, "surrogate", np.random.default_rng(7)), 5, 1.0)
        model = mr.TrueMismatch(hw)
        sigma_x = hw.sigma_x(1.0)
        res_amp = mr.slp_solve(
            mr.estimate_poly_coeffs_anchored(
                mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                         np.random.default_rng(7)),
                5),
            sigma_x, 1.0, plan.sigma_max / sigma_x, strict=False)
        assert np.allclose(np.abs(res.c), np.abs(res_amp.c), rtol=1e-9)
        assert res.g0 == pytest.approx(res_amp.g0, rel=1e-9)


class TestCalibrate:
    def test_end_to_end_residual(self, default_mismatch):
        hw, omega, plan, _ = _setup(8, 2, 30, ibo=10.0, n_levels=7, n_symbols=10,
                                    ibo_min=5.0)
        res = mr.calibrate(hw, mr.simulate_ota_training(
            hw, plan, omega, 0.0, "surrogate", np.random.default_rng(31)), 5, 1.0)
        assert res.converged
        model = mr.TrueMismatch(hw)
        sigma_x = hw.sigma_x(1.0)
        vals = res.c * model.mu_all(np.abs(res.c) * sigma_x)
        spread = (np.abs(vals).max() - np.abs(vals).min()) / res.g0
        assert spread <= 1e-3

    def test_overhead_counter(self, default_mismatch):
        hw, omega, plan, _ = _setup(8, 2, 32, n_levels=7, n_symbols=10)
        res = mr.calibrate(hw, mr.simulate_ota_training(
            hw, plan, omega, 0.0, "surrogate", np.random.default_rng(33)), 5, 1.0)
        assert res.overhead == 8 * 7 * 10

    def test_constraints_satisfied(self, default_mismatch):
        hw, omega, plan, _ = _setup(8, 2, 34, n_levels=7)
        res = mr.calibrate(hw, mr.simulate_ota_training(
            hw, plan, omega, 0.0, "surrogate", np.random.default_rng(35)), 5, 2.0)
        sigma_x = hw.sigma_x(2.0)
        c_max = plan.sigma_max / sigma_x
        assert float(np.sum(np.abs(res.c) ** 2 * sigma_x**2)) <= 2.0 + 1e-9
        assert np.all(np.abs(res.c) <= c_max + 1e-9)

    def test_measured_level_shapes_match_truth(self, default_mismatch):
        hw, omega, plan, _ = _setup(6, 2, 36, n_levels=6)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(37))
        shapes = measured_level_shapes(recs)
        for m in range(6):
            g = np.array([mr.bussgang_decompose(hw, plan.amplitudes[n]).g[m]
                          for n in range(6)])
            assert np.allclose(shapes[m], g / g[-1], rtol=1e-9)


class TestCalibrationStack:
    @staticmethod
    def _stack(order, rho, seed):
        hw, omega, plan, _ = _setup(8, 2, seed, rho=rho, n_levels=7, n_symbols=10)
        training = mr.simulate_ota_training(hw, plan, omega, 0.1, "surrogate",
                                            np.random.default_rng(seed + 1))
        return hw, plan, training, mr.calibration_stack(hw, training, order, rho)

    @pytest.mark.parametrize("rho, seed", [(1.0, 40), (3.0, 42)])
    def test_rows(self, rho, seed):
        hw, plan, training, stack = self._stack(5, rho, seed)
        assert mr.CALIBRATION_METHODS == ("none", "linear_rc", "poly_nrc", "perfect_nrc")
        assert stack.shape == (len(mr.CALIBRATION_METHODS), 8)
        assert np.array_equal(stack[0], np.ones(8))

        sigma_x = hw.sigma_x(rho)
        c_max = plan.sigma_max / sigma_x
        for row in stack[1:]:
            assert np.all(np.isfinite(row))
            assert float(np.sum(np.abs(row) ** 2 * sigma_x**2)) <= rho + 1e-9
            assert np.all(np.abs(row) <= c_max + 1e-9)

        # linear_rc: the phases of the single-level calibration at the pilot
        # level nearest the mean operating amplitude
        op = float(np.mean(sigma_x))
        level = min(range(plan.n_levels),
                    key=lambda n: abs(math.sqrt(plan.levels[n]) * plan.sigma_max - op))
        c_lin = mr.linear_calibration(training, level)
        assert np.allclose(np.angle(stack[1] / c_lin), 0.0, atol=1e-12)

        assert np.array_equal(stack[2], mr.calibrate(hw, training, 5, rho).c)

        true_model = mr.TrueMismatch(hw)
        res = mr.slp_solve(true_model, sigma_x, rho, c_max, strict=False)
        assert np.allclose(np.abs(stack[3]), np.abs(res.c), rtol=1e-14, atol=0.0)
        assert np.allclose(
            np.angle(stack[3]),
            mr.calibration_phases(true_model, np.abs(res.c), sigma_x), atol=1e-12)

    def test_order_zero_is_linear(self):
        hw, plan, training, stack = self._stack(0, 1.0, 44)
        assert np.array_equal(stack[2], stack[1])
        # the order-0 rule lives only here: calibrate refuses order 0
        for order in (0, -1):
            with pytest.raises(ValueError, match="calibration_stack"):
                mr.calibrate(hw, training, order, 1.0)

    def test_antenna_count_checked(self):
        hw, plan, training, _ = self._stack(0, 1.0, 46)
        other, _, _, _ = _setup(6, 2, 47)
        with pytest.raises(ValueError, match="antennas"):
            mr.calibration_stack(other, training, 0, 1.0)


def _noiseless_training(hw, omega, plan, rng):
    return mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate", rng)


@pytest.mark.parametrize("call, error, message", [
    (lambda hw, omega, plan, rng: TrainingSet(plan=plan, x=np.ones((4, 7)),
                                              ratio=np.ones((4, 4, 7)),
                                              xcorr=np.ones((4, 4, 7))),
     ValueError, "x must have shape (M, N, Q)"),
    (lambda hw, omega, plan, rng: TrainingSet(plan=mr.PilotPlan(7, 2, 1.0),
                                              x=np.ones((4, 7, 2)),
                                              ratio=np.ones((4, 4, 7, 2)),
                                              xcorr=np.ones((4, 4, 7))),
     ValueError, "ratio must have shape (4, 4, 7), got (4, 4, 7, 2)"),
    (lambda hw, omega, plan, rng: TrainingSet(plan=mr.PilotPlan(7, 2, 1.0),
                                              x=np.ones((4, 7, 2)),
                                              ratio=np.ones((4, 4, 7)),
                                              xcorr=np.ones((4, 4, 6))),
     ValueError, "xcorr must have shape (4, 4, 7), got (4, 4, 6)"),
    (lambda hw, omega, plan, rng: mr.simulate_ota_training(hw, plan, omega[:3, :3], 0.0,
                                                           "surrogate", rng),
     ValueError, "omega must be M x M"),
    (lambda hw, omega, plan, rng: mr.simulate_ota_training(hw, plan, omega + np.eye(4), 0.0,
                                                           "surrogate", rng),
     ValueError, "omega must have zero diagonal"),
    (lambda hw, omega, plan, rng: mr.simulate_ota_training(hw, plan, omega, 0.0, "bogus", rng),
     ValueError, "unknown mode 'bogus'"),
    (lambda hw, omega, plan, rng: mr.PolyMismatch(tau=np.full((4, 4), 2.0 + 0j),
                                                  sigma_ref=1.0),
     ValueError, "normalisation requires tau[0, 0] == 1"),
    (lambda hw, omega, plan, rng: mr.PolyMismatch(tau=np.ones((4, 4), complex),
                                                  sigma_ref=0.0),
     ValueError, "sigma_ref must be finite and positive"),
    (lambda hw, omega, plan, rng: estimate_poly_coeffs_anchored(
        _noiseless_training(hw, omega, plan, rng), plan.n_levels - 1),
     CalibrationError, "need at least order+2 = 8 power levels"),
    (lambda hw, omega, plan, rng: mr.slp_solve(mr.TrueMismatch(hw), np.ones(4), 1.0,
                                               np.ones(3)),
     ValueError, "sigma_x and c_max must have equal length"),
    (lambda hw, omega, plan, rng: mr.calibrate(_setup(6, 2, 61)[0],
                                               _noiseless_training(hw, omega, plan, rng), 3,
                                               1.0),
     ValueError, "training set has 4 antennas, the hardware 6"),
], ids=["x-ndim", "ratio-shape", "xcorr-shape", "omega-shape", "omega-diagonal", "mode", "tau00",
        "sigma-ref", "too-few-levels", "slp-lengths", "calibrate-antennas"])
def test_bad_input_rejected(call, error, message):
    hw, omega, plan, rng = _setup(4, 2, 60)
    with pytest.raises(error, match=re.escape(message)) as info:
        call(hw, omega, plan, rng)
    assert info.type is error
