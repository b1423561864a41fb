import math

import numpy as np
import pytest

from zenoband._phi import kernel_antiderivatives, phi_functions


def phi_where(z, nmax):
    """Frozen copy of the formula that ran the Taylor series over every element."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 0.5
    zb = np.where(small, 1.0, z)
    ez = np.exp(np.where(small, 0.0, z))
    closed = []
    partial = np.ones_like(z)
    zpow = np.ones_like(z)
    for j in range(1, nmax + 1):
        closed.append((ez - partial) / zb ** j)
        zpow = zpow * z
        partial = partial + zpow / math.factorial(j)
    zs = np.where(small, z, 0.0)
    taylor = [np.zeros_like(z) for _ in range(nmax)]
    term = np.ones_like(z)
    for m in range(20):
        for j in range(1, nmax + 1):
            taylor[j - 1] = taylor[j - 1] + term / math.factorial(m + j)
        term = term * zs
    return [np.where(small, taylor[j], closed[j]) for j in range(nmax)]


def sample_points():
    radii = np.array([1e-12, 1e-3, 0.2, 0.4999999, 0.5, 0.5000001, 0.8, 3.0, 40.0])
    angles = np.linspace(0.0, 2.0 * math.pi, 13)  # includes +-pure imaginary and negative real
    z = (radii[:, None] * np.exp(1j * angles[None, :])).ravel()
    extra = [0.0, 0.3j, -0.3j, 2.0j, -0.49, -0.51, -30.0, -700.0, -1e5, -1e5 + 1e3j]
    return np.concatenate([extra, z])


@pytest.mark.parametrize("nmax", [1, 2, 3])
def test_bitwise_equal_to_where_formula(nmax):
    z = sample_points()
    assert (np.abs(z) < 0.5).any() and (np.abs(z) >= 0.5).any()
    for new, old in zip(phi_functions(z, nmax)[1:], phi_where(z, nmax)):
        assert new.tobytes() == old.tobytes()


def test_scalar_argument():
    for new, old in zip(phi_functions(0.25j, 3)[1:], phi_where(0.25j, 3)):
        assert np.ndim(new) == 0 and complex(new) == complex(old)


def test_phi0_is_exp():
    z = sample_points()
    assert phi_functions(z, 2)[0].tobytes() == np.exp(z).tobytes()


@pytest.mark.parametrize("t", [0.3, 3.0, 700.0])
def test_kernel_antiderivatives_differentiate_to_kernel(t):
    y = np.array([-40.0, -3.0, -0.7, -1e-3, 2e-3, 0.4, 1.3, 9.0, 250.0])
    x = y / t
    h = 1e-5 * np.abs(x)
    up, dn = kernel_antiderivatives(x + h, t), kernel_antiderivatives(x - h, t)
    one_minus_cos = 2.0 * np.sin(y / 2.0) ** 2
    for j in range(4):  # x^j (1 - cos)/x^2; the closed forms for j >= 2 cancel at small |y|
        got = (up[j] - dn[j]) / (2.0 * h) / x ** (j - 2.0)
        np.testing.assert_allclose(got, one_minus_cos, rtol=1e-6, atol=1e-10 if j >= 2 else 0.0)


def test_kernel_antiderivatives_vanish_and_are_continuous_at_zero():
    t = 4.0
    assert all(np.all(f == 0.0) for f in kernel_antiderivatives(np.array([0.0, 0.0]), t))
    f0, f1, f2, f3 = kernel_antiderivatives(np.array([-1e-8, -0.3e-8, 0.3e-8, 1e-8]) / t, t)
    assert all(np.all(np.isfinite(f)) for f in (f0, f1, f2, f3))
    assert np.abs(f0).max() < 1e-8 * t and np.abs(f1).max() < 1e-14
    assert np.abs(f2).max() < 1e-22 and np.abs(f3).max() < 1e-30
    assert all(np.all(f == 0.0) for f in kernel_antiderivatives(np.array([-2.0, 0.0, 5.0]), 0.0))
