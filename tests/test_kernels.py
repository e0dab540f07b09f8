"""Kernel checks: the library's import footprint, and the batched
zero-forcing core against the textbook precoder of one draw and the
lhs-based effective-channel kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimo_recal as mr
from mimo_recal import _kernels

from tests.conftest import package_env, ref_effective_channels


def test_cli_import_loads_neither_scipy_nor_numba():
    # every CLI run pays this import; scipy alone would add about 0.3 s and
    # 23 MB to it
    import subprocess
    import sys

    code = ("import sys, mimo_recal.cli;"
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'numba'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # a single-worker run never starts a pool, so it should not pay for importing one
    import subprocess
    import sys

    code = ("import sys, mimo_recal.cli;"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _gram_of_cond(cond, d, rng):
    """A 4 x 4 Gram matrix D E D whose equilibrated E has condition number
    ``cond``: a 2 x 2 unit-diagonal block with eigenvalues 1 +- rho, next to
    a well-conditioned one, and the diagonal scale D = diag(d)."""
    rho = (cond - 1.0) / (cond + 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    e = np.eye(4, dtype=np.complex128)
    e[0, 1], e[1, 0] = rho, np.conj(rho)
    e[2, 3], e[3, 2] = 0.3 + 0.2j, 0.3 - 0.2j
    return d[:, None] * e * d[None, :]


def _eigvalsh_rule(gram, first, total):
    """The message of the first draw whose exact equilibrated cond exceeds
    ``ZF_COND_MAX``, or None."""
    cond = _kernels._cond(_kernels._equilibrate(gram)[0])
    bad = np.flatnonzero(~(cond <= _kernels.ZF_COND_MAX))
    if not bad.size:
        return None
    i = int(bad[0])
    return (f"rank-deficient uplink Gram matrix in draw {first + i} of {total} "
            f"(cond={cond[i]:.3g})")


CONDS = (1.0, 10.0, 1e3, 1e6, 1e9, 1e10, 1e11, 0.99e12, 1e12, 1.01e12, 1e13, 1e14, 1e16)


def test_rank_test_decides_as_eigvalsh():
    # the Cholesky certificate may only skip eigenvalues: every batch passes
    # or raises as the exact rule does, with its message, from cond 1 to 1e16
    rng = np.random.default_rng(17)
    d = np.array([1e-3, 1.0, 30.0, 2e2])
    single = [_gram_of_cond(c, d, rng)[None] for c in CONDS]
    conds = [_kernels._cond(_kernels._equilibrate(g)[0])[0] for g in single]
    # the draws next to the threshold are built on the side they test
    assert conds[CONDS.index(0.99e12)] <= _kernels.ZF_COND_MAX < conds[CONDS.index(1.01e12)]
    assert 0.9e11 < conds[CONDS.index(1e11)] < 1.1e11 and conds[CONDS.index(1e13)] > 9e12
    nan = _gram_of_cond(10.0, d, rng)
    nan[2, 1] = np.nan
    # random channels with one column drifting onto another
    h = rng.standard_normal((9, 12, 4)) + 1j * rng.standard_normal((9, 12, 4))
    h[:, :, 3] = h[:, :, 0] + np.logspace(0, -8, 9)[:, None] * h[:, :, 3]
    drift = np.swapaxes(h.conj(), -1, -2) @ h
    batches = single + [nan[None], drift, drift[:4]]
    # a batch of good draws with one bad draw late in it, and the same draws
    # as a later batch of a longer run
    good = np.stack([_gram_of_cond(c, d, rng) for c in (1.0, 1e3, 1e6, 1e9, 1e11)])
    for bad in (1.01e12, 1e16):
        batches.append(np.concatenate([good, _gram_of_cond(bad, d, rng)[None], good]))
    batches.append(np.concatenate([good, nan[None]]))
    decided = set()
    for gram in batches:
        for first, total in ((0, len(gram)), (12, 36)):
            want = _eigvalsh_rule(gram, first, total)
            decided.add(want is None)
            if want is None:
                scaled, s = _kernels._full_rank_gram(gram, first, total)
                ref_scaled, ref_s = _kernels._equilibrate(gram)
                assert np.array_equal(scaled, ref_scaled) and np.array_equal(s, ref_s)
            else:
                with pytest.raises(np.linalg.LinAlgError) as err:
                    _kernels._full_rank_gram(gram, first, total)
                assert str(err.value) == want
    assert decided == {True, False}


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 8), log_cond=st.floats(0.0, 16.0), seed=st.integers(0, 2**32 - 1))
def test_certificate_bounds_exact_cond(k, log_cond, seed):
    # a certified batch has exact cond <= ZF_COND_MAX / 100: equilibrated
    # Gram matrices with eigenvalues spread over 10^log_cond
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((3, k, k)) + 1j * rng.standard_normal((3, k, k)))
    lam = 10.0 ** -(log_cond * rng.uniform(0.0, 1.0, (3, k)))
    gram = (q * lam[:, None, :]) @ np.swapaxes(q.conj(), -1, -2)
    scaled = _kernels._equilibrate(gram)[0]
    cond = _kernels._cond(scaled)
    if _kernels._well_conditioned(scaled):
        assert np.all(cond <= _kernels.ZF_COND_MAX / 100)


def test_well_conditioned_batch_skips_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    rng = np.random.default_rng(3)
    hw = mr.draw_system_hardware(rng, 64, 8, mr.HardwareMismatch.uniform(0.05, np.pi / 6), 1.0)
    h = rng.standard_normal((12, 8, 64)) + 1j * rng.standard_normal((12, 8, 64))
    _kernels.effective_channels(h, hw.bs_rx, hw.ue_tx_gain, hw.ue_rx, np.ones((1, 64)), 1.0)
    _kernels.zf_apply(_kernels.uplink(h, hw.bs_rx, hw.ue_tx_gain), 1.0)
    assert calls == []
    # a batch the certificate cannot clear takes the exact rule once
    d = np.ones(4)
    gram = np.stack([_gram_of_cond(1.0, d, rng), _gram_of_cond(1e11, d, rng)])
    _kernels._full_rank_gram(gram, 0, None)
    assert calls == [(2, 4, 4)]


@settings(max_examples=60, deadline=None)
@given(n_draws=st.integers(1, 8), k=st.integers(1, 6), m=st.integers(3, 40),
       seed=st.integers(0, 2**32 - 1))
def test_effective_channels_match_single_draw_precoder(n_draws, k, m, seed):
    m = max(m, k + 2)
    rng = np.random.default_rng(seed)
    hw = mr.draw_system_hardware(rng, m, k, mr.HardwareMismatch.uniform(0.05, np.pi / 6), 1.0)
    phi = rng.uniform(0.3, 2.0, k)
    h = np.sqrt(phi)[:, None] * (rng.standard_normal((n_draws, k, m))
                                 + 1j * rng.standard_normal((n_draws, k, m)))
    g = rng.lognormal(0.0, 0.2, m) * np.exp(1j * rng.uniform(-0.5, 0.5, m))
    beta = mr.beta_zf_closed(hw, phi)
    h_eq = _kernels.effective_channels(h, hw.bs_rx, hw.ue_tx_gain, hw.ue_rx, g[None], beta)[0]
    assert h_eq.shape == (n_draws, k, k)
    for t in range(n_draws):
        h_ul = _kernels.uplink(h[t], hw.bs_rx, hw.ue_tx_gain)
        w = _kernels.zf_apply(h_ul[None], beta)[0]
        # the textbook formula, with an explicit inverse, as an independent oracle
        w_ref = np.conj(h_ul) @ np.linalg.inv(h_ul.T @ np.conj(h_ul)) / math.sqrt(beta)
        assert np.max(np.abs(w - w_ref)) <= 1e-12 * np.max(np.abs(w_ref))
        ref = hw.ue_rx[:, None] * (h[t] * g) @ w
        assert np.max(np.abs(h_eq[t] - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=80, deadline=None)
@given(n_draws=st.integers(1, 8), k=st.integers(1, 6), m=st.integers(3, 40),
       seed=st.integers(0, 2**32 - 1))
def test_effective_channels_match_lhs_reference(n_draws, k, m, seed):
    # the K x K-product kernel against H G H_UL^* solved through the Gram
    # matrix, with UE path loss spanning 1e7
    m = max(m, k + 2)
    rng = np.random.default_rng(seed)
    hw = mr.draw_system_hardware(rng, m, k, mr.HardwareMismatch.uniform(0.05, np.pi / 6), 1.0)
    phi = 10.0 ** rng.uniform(-3.5, 3.5, k)
    phi[[0, -1]] = 10.0 ** -3.5, 10.0 ** 3.5
    h = phi[:, None] * (rng.standard_normal((n_draws, k, m))
                        + 1j * rng.standard_normal((n_draws, k, m)))
    g = rng.lognormal(0.0, 0.2, m) * np.exp(1j * rng.uniform(-0.5, 0.5, m))
    beta = mr.beta_zf_closed(hw, phi)
    h_eq = _kernels.effective_channels(h, hw.bs_rx, hw.ue_tx_gain, hw.ue_rx, g[None], beta)[0]
    ref = ref_effective_channels(h, hw.bs_rx, hw.ue_tx_gain, hw.ue_rx, g, beta)
    assert h_eq.shape == ref.shape == (n_draws, k, k)
    for t in range(n_draws):
        assert np.max(np.abs(h_eq[t] - ref[t])) <= 1e-12 * np.max(np.abs(ref[t]))


def test_effective_channels_names_the_singular_draw():
    rng = np.random.default_rng(6)
    hw = mr.draw_system_hardware(rng, 10, 4, mr.HardwareMismatch.uniform(0.05, np.pi / 6), 1.0)
    h = rng.standard_normal((3, 4, 10)) + 1j * rng.standard_normal((3, 4, 10))
    h[1, 3] = (0.3 - 2.0j) * h[1, 0]
    args = (hw.bs_rx, hw.ue_tx_gain, hw.ue_rx, np.ones((1, 10)), 1.0)
    with pytest.raises(np.linalg.LinAlgError, match=r"draw 1 of 3 \(cond="):
        _kernels.effective_channels(h, *args)
    with pytest.raises(np.linalg.LinAlgError, match=r"draw 41 of 90 \(cond="):
        _kernels.effective_channels(h, *args, first=40, total=90)


def test_zf_core_names_the_singular_draw():
    rng = np.random.default_rng(4)
    h_ul = rng.standard_normal((3, 10, 4)) + 1j * rng.standard_normal((3, 10, 4))
    h_ul[2, :, 3] = 2.0 * h_ul[2, :, 0]
    with pytest.raises(np.linalg.LinAlgError, match=r"draw 2 of 3 \(cond="):
        _kernels.zf_apply(h_ul, 1.0)
    h_ul[2, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match=r"draw 2 of 3 \(cond=inf\)"):
        _kernels.zf_apply(h_ul, 1.0)
    with pytest.raises(np.linalg.LinAlgError, match=r"draw 7 of 9 \(cond=inf\)"):
        _kernels.zf_apply(h_ul, 1.0, first=5, total=9)


def test_zf_core_ignores_column_scale():
    # scaling UE k's uplink column by d_k scales W's column k by 1/d_k; a
    # path-loss spread of 1e7 must neither trip the rank test nor cost accuracy
    rng = np.random.default_rng(5)
    h_ul = rng.standard_normal((4, 12, 3)) + 1j * rng.standard_normal((4, 12, 3))
    d = np.array([1e-4, 1.0, 1e3])
    w = _kernels.zf_apply(h_ul, 2.0)
    w_scaled = _kernels.zf_apply(h_ul * d, 2.0)
    assert np.max(np.abs(w_scaled * d - w)) <= 1e-12 * np.max(np.abs(w))


def test_effective_channels_stack_matches_rows():
    # a (C, M) stack of gain vectors shares one Gram matrix per draw and
    # gives each row's channels as its one-row stack
    rng = np.random.default_rng(8)
    hw = mr.draw_system_hardware(rng, 20, 4, mr.HardwareMismatch.uniform(0.05, np.pi / 6), 1.0)
    h = rng.standard_normal((5, 4, 20)) + 1j * rng.standard_normal((5, 4, 20))
    g = rng.lognormal(0.0, 0.2, (3, 20)) * np.exp(1j * rng.uniform(-0.5, 0.5, (3, 20)))
    args = (hw.bs_rx, hw.ue_tx_gain, hw.ue_rx)
    h_eq = _kernels.effective_channels(h, *args, g, 0.7)
    assert h_eq.shape == (3, 5, 4, 4)
    for row, got in zip(g, h_eq):
        want = _kernels.effective_channels(h, *args, row[None], 0.7)[0]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
