"""Multi-power OTA calibration: basis, training, estimation, SLP, phases."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimo_recal as mr
from mimo_recal.calibration import (
    CalibrationError,
    _pair_ratio_gram,
    _phi_all,
    _phi_grid,
    _psi_coeff_table,
    estimate_poly_coeffs_anchored,
    measured_level_shapes,
    psi_vector,
)
from tests.conftest import (
    gauge_fit_error,
    ref_assemble_psi_matrix,
    ref_linear_calibration,
    ref_measured_level_shapes,
    ref_simulate_ota_training,
    scale_to_power,
    slp_bisection_oracle,
    synth_poly_training,
)


def _setup(m, k, seed, ibo=10.0, rho=1.0, delta2=0.05, n_levels=7, n_symbols=10,
           ibo_min=0.0):
    rng = np.random.default_rng(seed)
    mis = mr.HardwareMismatch.uniform(delta2, math.pi / 6)
    hw = mr.draw_system_hardware(rng, m, k, mis, mr.a_sat_for_ibo(ibo, rho, m))
    omega = mr.draw_inter_antenna_channel(rng, m)
    plan = mr.PilotPlan.for_hardware(hw, n_levels, n_symbols, ibo_min_db=ibo_min)
    return hw, omega, plan, rng


class TestOrthPoly:
    def test_order_zero_constant(self):
        assert mr.orth_poly_psi(0, 0.0) == 2.0
        assert mr.orth_poly_psi(0, 7.3) == 2.0

    def test_order_one_linear(self):
        for s in (0.0, 0.5, 2.0):
            assert mr.orth_poly_psi(1, s) == pytest.approx(12.0 * s - 6.0, rel=1e-14)

    def test_order_two_constant_term(self):
        assert mr.orth_poly_psi(2, 0.0) == pytest.approx(12.0, rel=1e-14)

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
                    assert abs(mr.orth_poly_psi(order, z)) < 1e-9
                else:
                    assert mr.orth_poly_psi(order, z) == pytest.approx(ref, rel=1e-10)

    def test_coefficient_table_cached_read_only(self):
        table = _psi_coeff_table(5)
        assert _psi_coeff_table(5) is table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            mr.orth_poly_psi(21, 0.5)
        with pytest.raises(ValueError):
            mr.orth_poly_psi(-1, 0.5)


class TestPilotPlan:
    def test_levels_increasing_and_counts(self):
        plan = mr.PilotPlan.make(5, 10, np.ones(4))
        assert plan.n_levels == 5 and plan.n_symbols == 10
        assert np.all(np.diff(plan.levels) > 0)
        assert plan.amplitude(0, 4) == pytest.approx(1.0)
        assert plan.amplitude(0, 0) == pytest.approx(0.2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            mr.PilotPlan.make(0, 10, np.ones(2))
        with pytest.raises(ValueError):
            mr.PilotPlan.make(3, 0, np.ones(2))
        with pytest.raises(ValueError):
            mr.PilotPlan.make(3, 5, np.zeros(2))

    def test_overhead(self):
        plan = mr.PilotPlan.make(5, 10, np.ones(16))
        assert mr.training_overhead(16, plan) == 16 * 5 * 10


class TestSimulateOta:
    def test_noiseless_unit_system(self):
        hw, omega, plan, rng = _setup(4, 2, 0)
        hw_id = mr.draw_system_hardware(np.random.default_rng(1), 4, 2,
                                        mr.HardwareMismatch.none(), 1e9,
                                        ue_pilot_amp=1e-9)
        recs = mr.simulate_ota_training(hw_id, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(2))
        # y = a0 * r_i * omega * g * x with g = 1 in the linear regime
        expected = hw_id.a0 * omega[:, :, None, None] * recs.x[:, None]
        assert np.allclose(recs.y, expected, rtol=1e-6)

    def test_reciprocity_of_propagation(self):
        hw, omega, plan, _ = _setup(4, 2, 3)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(4))
        for m in range(4):
            for i in range(4):
                if i == m:
                    continue
                for n in range(plan.n_levels):
                    g_m = mr.bussgang_decompose(hw.bs_hpas[m], plan.amplitude(m, n)).g
                    ratio = recs.y[m, i, n] / (g_m * recs.x[m, n])
                    g_i = mr.bussgang_decompose(hw.bs_hpas[i], plan.amplitude(i, n)).g
                    ratio_sym = recs.y[i, m, n] / (g_i * recs.x[i, n])
                    # y_{m,i}/(g_m x_m) = a0 r_i w_{mi}; the symmetric pair shares w
                    assert np.allclose(ratio / hw.bs_rx[i], ratio_sym / hw.bs_rx[m],
                                       rtol=1e-9)

    def test_constant_modulus_pilots(self):
        hw, omega, plan, _ = _setup(4, 2, 5, n_symbols=1000)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(6))
        for tx in range(4):
            for n in range(plan.n_levels):
                amp = plan.amplitude(tx, n)
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

    def test_record_count(self):
        hw, omega, plan, _ = _setup(5, 2, 9)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(10))
        assert recs.x.shape == (5, plan.n_levels, plan.n_symbols)
        assert recs.y.shape == (5, 5, plan.n_levels, plan.n_symbols)
        assert np.all(recs.y[np.arange(5), np.arange(5)] == 0)
        assert np.count_nonzero(recs.y) == 5 * 4 * plan.n_levels * plan.n_symbols
        single = recs.level(2)
        assert single.x.shape == (5, 1, plan.n_symbols)
        assert np.shares_memory(single.y, recs.y)
        assert np.array_equal(single.y[:, :, 0], recs.y[:, :, 2])


def _close(a, b, rel=1e-12):
    return np.max(np.abs(a - b), initial=0.0) <= rel * np.max(np.abs(b), initial=0.0)


class TestTensorMatchesRecordReference:
    """The TrainingSet path against the record-based loop implementation."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 6), n_levels=st.integers(1, 4), q=st.integers(1, 5),
           noisy=st.booleans(), mode=st.sampled_from(["surrogate", "physical"]),
           seed=st.integers(0, 2**32 - 1))
    def test_same_draws_same_outputs(self, m, n_levels, q, noisy, mode, seed):
        rng = np.random.default_rng(seed)
        hw = mr.draw_system_hardware(rng, m, 1, mr.HardwareMismatch.uniform(0.05, 0.5),
                                     mr.a_sat_for_ibo(10.0, 1.0, m))
        omega = mr.draw_inter_antenna_channel(rng, m)
        plan = mr.PilotPlan.for_hardware(hw, n_levels, q)
        noise_var = 1.0 if noisy else 0.0
        ts = mr.simulate_ota_training(hw, plan, omega, noise_var, mode,
                                      np.random.default_rng(seed))
        recs = ref_simulate_ota_training(hw, plan, omega, noise_var, mode,
                                         np.random.default_rng(seed))

        assert len(recs) == m * (m - 1) * n_levels
        for rec in recs:
            assert np.array_equal(ts.x[rec.tx_antenna, rec.level], rec.x)
            assert np.array_equal(ts.y[rec.tx_antenna, rec.rx_antenna, rec.level], rec.y)
        assert not np.any(ts.y[np.arange(m), np.arange(m)])

        for n in range(n_levels):
            assert _close(mr.linear_calibration(ts.level(n), 1.0),
                          ref_linear_calibration([r for r in recs if r.level == n], 1.0))
        assert _close(measured_level_shapes(ts, plan), ref_measured_level_shapes(recs, plan))
        for order in (0, 1, 3):
            psi = ref_assemble_psi_matrix(recs, plan, order)
            assert _close(mr.assemble_psi_matrix(ts, plan, order), psi)
            # the Gram matrix the pair-ratio LS solves, from the row-equilibrated Psi
            norms = np.linalg.norm(psi, axis=1)
            norms[norms == 0] = 1.0
            scaled = psi / norms[:, None]
            assert _close(_pair_ratio_gram(ts, plan, order), np.conj(scaled).T @ scaled)


class TestAssembleAndEstimate:
    def test_smallest_instance_structure(self):
        # M=2, N=1, Q=1, order 1: one row [ybar@1 psi0, ybar@1 psi1,
        # -ybar@2 psi0, -ybar@2 psi1]
        x1 = np.array([1.0 + 0.5j])
        x2 = np.array([0.3 - 1.0j])
        y21 = np.array([0.7 + 0.2j])   # received at antenna 1 (tx 2)
        y12 = np.array([-0.4 + 0.9j])  # received at antenna 2 (tx 1)
        plan = mr.PilotPlan.make(1, 1, np.array([abs(x1[0]), abs(x2[0])]))
        y = np.zeros((2, 2, 1, 1), dtype=complex)
        y[0, 1, 0] = y12
        y[1, 0, 0] = y21
        recs = mr.TrainingSet(x=np.array([x1, x2])[:, None], y=y)
        psi = mr.assemble_psi_matrix(recs, plan, order=1)
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
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(12))
        psi = mr.assemble_psi_matrix(recs, plan, order=2)
        assert psi.shape == (6 * 5 // 2 * 4 * 3, 6 * 3)

    def test_ground_truth_in_null_space(self):
        hw, omega, plan, rng = _setup(6, 2, 13, n_levels=8, n_symbols=3)
        order = 4
        tau = (rng.standard_normal((6, order + 1))
               + 1j * rng.standard_normal((6, order + 1)))
        tau /= tau[0, 0]
        recs = synth_poly_training(hw, plan, omega, tau, order, rng)
        psi = mr.assemble_psi_matrix(recs, plan, order)
        resid = np.linalg.norm(psi @ tau.ravel())
        assert resid <= 1e-10 * np.linalg.norm(psi) * np.linalg.norm(tau)

    def test_noiseless_synthetic_recovery(self):
        hw, omega, plan, rng = _setup(8, 2, 14, n_levels=10, n_symbols=3)
        order = 5
        tau = (rng.standard_normal((8, order + 1))
               + 1j * rng.standard_normal((8, order + 1)))
        tau /= tau[0, 0]
        recs = synth_poly_training(hw, plan, omega, tau, order, rng)
        psi = mr.assemble_psi_matrix(recs, plan, order)
        est = mr.estimate_poly_coeffs(psi, order, sigma_ref=plan.sigma_max)
        assert np.max(np.abs(est.tau - tau)) <= 1e-8 * np.max(np.abs(tau))
        est2 = mr.estimate_poly_coeffs_from_records(recs, plan, order)
        assert np.max(np.abs(est2.tau - tau)) <= 1e-8 * np.max(np.abs(tau))

    def test_identical_antennas_equal_blocks(self):
        # all mu_m equal: the pair-ratio system is exactly degenerate along
        # the per-level scale family, which the plain LS reports; the
        # gauge-anchored estimator is well posed and returns equal blocks
        hw, omega, plan, rng = _setup(6, 2, 15, n_levels=8, n_symbols=2)
        order = 3
        tau_row = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
        tau = np.tile(tau_row, (6, 1))
        tau /= tau[0, 0]
        recs = synth_poly_training(hw, plan, omega, tau, order, rng)
        with pytest.raises(CalibrationError):
            mr.estimate_poly_coeffs_from_records(recs, plan, order)
        est = estimate_poly_coeffs_anchored(recs, plan, order)
        for m in range(1, 6):
            assert np.allclose(est.tau[m], est.tau[0], atol=1e-8)

    def test_rank_deficiency_detected(self):
        # N = order + 1 leaves the per-level scale family unresolved
        hw, omega, plan, rng = _setup(6, 2, 16, n_levels=4, n_symbols=2)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate", rng)
        with pytest.raises(CalibrationError):
            mr.estimate_poly_coeffs_from_records(recs, plan, order=3)

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
                recs = synth_poly_training(hw, plan, omega, tau, order, rng)
                y = recs.y.copy()
                for tx in range(5):
                    for n in range(plan.n_levels):
                        for rx in range(5):
                            if rx != tx:
                                y[tx, rx, n] += math.sqrt(noise_var / 2) * (
                                    rng.standard_normal(plan.n_symbols)
                                    + 1j * rng.standard_normal(plan.n_symbols))
                noisy = mr.TrainingSet(x=recs.x, y=y)
                est = mr.estimate_poly_coeffs_from_records(noisy, plan, order)
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
        poly = estimate_poly_coeffs_anchored(recs, plan, 5)
        assert gauge_fit_error(poly, mr.TrueMismatch(hw), plan) <= 0.01

    def test_phase_continuity(self):
        hw, omega, plan, _ = _setup(8, 2, 20, n_levels=7, ibo_min=5.0)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(21))
        poly = estimate_poly_coeffs_anchored(recs, plan, 5)
        for m in range(8):
            grid = np.linspace(1e-3, 1.0, 50) * plan.sigma_max[m]
            phases = np.unwrap(np.angle(poly.mu(m, grid)))
            assert np.max(np.abs(np.diff(phases))) < math.pi / 2

    def test_real_coefficients_zero_phase(self):
        tau = np.zeros((2, 3), dtype=complex)
        tau[:, 0] = 1.0
        tau[0, 0] = 1.0
        poly = mr.PolyMismatch(tau=tau, order=2, sigma_ref=np.ones(2))
        val = poly.mu(0, 0.5)
        assert poly.mu_abs(0, 0.5) == pytest.approx(abs(val))
        assert np.angle(val) == pytest.approx(0.0, abs=1e-15)


class TestLinearCalibration:
    def test_identical_hardware(self):
        hw = mr.draw_system_hardware(np.random.default_rng(0), 4, 2,
                                     mr.HardwareMismatch.none(), 1e9, ue_pilot_amp=1e-9)
        omega = mr.draw_inter_antenna_channel(np.random.default_rng(1), 4)
        plan = mr.PilotPlan.make(1, 8, np.full(4, 0.01))
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(2))
        c = mr.linear_calibration(recs, c0=2.0)
        assert np.allclose(c, 2.0, rtol=1e-9)

    def test_two_antenna_ratio(self):
        hw, omega, plan0, _ = _setup(2, 1, 3, ibo=60.0)
        plan = mr.PilotPlan.make(1, 6, plan0.sigma_max * 1e-3)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(4))
        c = mr.linear_calibration(recs, c0=1.0)
        g = [mr.bussgang_decompose(hw.bs_hpas[m], plan.amplitude(m, 0)).g
             for m in range(2)]
        f_ratio = (g[1] / hw.bs_rx[1]) / (g[0] / hw.bs_rx[0])
        assert c[0] / c[1] == pytest.approx(f_ratio, rel=1e-10)

    def test_equalisation_linear_regime(self):
        # deep back-off: c_m t_m / r_m is a common constant after calibration
        hw, omega, plan0, _ = _setup(8, 2, 5, ibo=60.0)
        plan = mr.PilotPlan.make(1, 6, plan0.sigma_max * 1e-6)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(6))
        c = mr.linear_calibration(recs, c0=1.0)
        products = c * hw.t / hw.bs_rx
        assert np.max(np.abs(products - products[0])) <= 1e-8 * np.abs(products[0])

    def test_validation(self):
        hw, omega, plan, rng = _setup(4, 2, 7, n_levels=2)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate", rng)
        with pytest.raises(ValueError):
            mr.linear_calibration(recs, 1.0)  # two levels mixed
        single = recs.level(0)
        with pytest.raises(ValueError):
            mr.linear_calibration(single, 0.0)


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

            def mu_abs_all(self, sigma):
                return self.gains

            def mu(self, m, sigma):
                return complex(self.gains[m])

            def mu_abs(self, m, sigma):
                return self.gains[m]

        gains = np.array([1.0, 0.5, 2.0, 1.5])
        sigma_x = np.full(4, 0.5)
        c_max = np.full(4, 10.0)
        res = mr.slp_solve(LinearModel(gains), sigma_x, 1.0, c_max)
        expect = 1.0 / gains
        expect *= math.sqrt(1.0 / float(np.sum(expect**2 * sigma_x**2)))
        assert np.allclose(np.abs(res.c), expect, rtol=1e-5)

    def test_matches_bisection_oracle(self, default_mismatch):
        for seed in range(10):
            rng = np.random.default_rng((1, seed))
            m = int(rng.choice([8, 64]))
            hw = mr.draw_system_hardware(rng, m, 2, default_mismatch,
                                         mr.a_sat_for_ibo(rng.uniform(3, 15), 1.0, m))
            model = mr.TrueMismatch(hw)
            sigma_x = hw.sigma_x(1.0)
            c_max = float(np.exp(np.mean(np.log(hw.a_sat)))) / sigma_x
            res = mr.slp_solve(model, sigma_x, 1.0, c_max, strict=False)
            oracle = slp_bisection_oracle(model, sigma_x, 1.0, c_max)
            assert res.g0 == pytest.approx(oracle, rel=1e-4)

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
        for model in (mr.TrueMismatch(hw), estimate_poly_coeffs_anchored(recs, plan, 5)):
            columns = np.stack([_phi_all(model, frac * c_max, sigma_x)
                                for frac in np.linspace(0.0, 1.0, 65)], axis=1)
            assert np.array_equal(_phi_grid(model, sigma_x, c_max), columns)

    def test_concavity_gate(self):
        class BadModel:
            def mu_abs_all(self, sigma):
                return 1.0 + np.cos(8.0 * np.asarray(sigma)) ** 2

            def mu_all(self, sigma):
                return self.mu_abs_all(sigma).astype(complex)

        with pytest.raises(CalibrationError):
            mr.slp_solve(BadModel(), np.ones(4), 1.0, np.ones(4), strict=True)


class TestPhases:
    def test_pure_rotation(self):
        tau = np.zeros((2, 2), dtype=complex)
        tau[0, 0] = 1.0
        tau[1, 0] = np.exp(1j * math.pi / 7)
        poly = mr.PolyMismatch(tau=tau, order=1, sigma_ref=np.ones(2))
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
        rotated = np.array([c[m] * model.mu(m, c_abs[m] * sigma_x[m]) for m in range(8)])
        assert np.max(np.abs(np.angle(rotated))) <= 1e-10

    def test_amplitude_decoupling(self, default_mismatch):
        # the phase step does not alter |c| or g0
        hw = mr.draw_system_hardware(np.random.default_rng(5), 8, 2,
                                     default_mismatch, mr.a_sat_for_ibo(10.0, 1.0, 8))
        plan = mr.PilotPlan.for_hardware(hw, 7, 5)
        omega = mr.draw_inter_antenna_channel(np.random.default_rng(6), 8)
        res = mr.calibrate(hw, plan, mr.simulate_ota_training(
            hw, plan, omega, 0.0, "surrogate", np.random.default_rng(7)), 5, 1.0)
        model = mr.TrueMismatch(hw)
        sigma_x = hw.sigma_x(1.0)
        res_amp = mr.slp_solve(
            mr.estimate_poly_coeffs_anchored(
                mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                         np.random.default_rng(7)),
                plan, 5),
            sigma_x, 1.0, plan.sigma_max / sigma_x, strict=False)
        assert np.allclose(np.abs(res.c), np.abs(res_amp.c), rtol=1e-9)
        assert res.g0 == pytest.approx(res_amp.g0, rel=1e-9)


class TestCalibrate:
    def test_end_to_end_residual(self, default_mismatch):
        hw, omega, plan, _ = _setup(8, 2, 30, ibo=10.0, n_levels=7, n_symbols=10,
                                    ibo_min=5.0)
        res = mr.calibrate(hw, plan, mr.simulate_ota_training(
            hw, plan, omega, 0.0, "surrogate", np.random.default_rng(31)), 5, 1.0)
        assert res.converged
        model = mr.TrueMismatch(hw)
        sigma_x = hw.sigma_x(1.0)
        vals = np.array([res.c[m] * model.mu(m, abs(res.c[m]) * sigma_x[m])
                         for m in range(8)])
        spread = (np.abs(vals).max() - np.abs(vals).min()) / res.g0
        assert spread <= 1e-3

    def test_overhead_counter(self, default_mismatch):
        hw, omega, plan, _ = _setup(8, 2, 32, n_levels=7, n_symbols=10)
        res = mr.calibrate(hw, plan, mr.simulate_ota_training(
            hw, plan, omega, 0.0, "surrogate", np.random.default_rng(33)), 5, 1.0)
        assert res.overhead == 8 * 7 * 10

    def test_constraints_satisfied(self, default_mismatch):
        hw, omega, plan, _ = _setup(8, 2, 34, n_levels=7)
        res = mr.calibrate(hw, plan, mr.simulate_ota_training(
            hw, plan, omega, 0.0, "surrogate", np.random.default_rng(35)), 5, 2.0)
        sigma_x = hw.sigma_x(2.0)
        c_max = plan.sigma_max / sigma_x
        assert float(np.sum(np.abs(res.c) ** 2 * sigma_x**2)) <= 2.0 + 1e-9
        assert np.all(np.abs(res.c) <= c_max + 1e-9)

    def test_measured_level_shapes_match_truth(self, default_mismatch):
        hw, omega, plan, _ = _setup(6, 2, 36, n_levels=6)
        recs = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                        np.random.default_rng(37))
        shapes = measured_level_shapes(recs, plan)
        for m in range(6):
            g = np.array([mr.bussgang_decompose(hw.bs_hpas[m], plan.amplitude(m, n)).g
                          for n in range(6)])
            assert np.allclose(shapes[m], g / g[-1], rtol=1e-9)
