import cmath
import math
import warnings

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from zenoband import detector_response, free_value, self_energy
from zenoband._phi import free_tail_moments
from zenoband.dynamics import _step_schedule

# One line per acceptance criterion, printed in the terminal summary so the
# pass/fail table is visible regardless of output capture.
ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def read_csv(path):
    """Read back a CSV written by ``scenario.write_csv`` as (header, columns)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, [data[:, i] for i in range(data.shape[1])]


def g2_oracle(band, gamma, mu, n_base=200001, n_ladder=4000):
    """Independent brute-force evaluation of the renormalized form factor.

    Plain trapezoid on a dense grid: a wide base covering the band plus
    logarithmic ladders into the local peak at k = mu.  Deliberately shares
    no code with the adaptive production quadrature.  Accuracy ~1e-6
    relative at the default sampling.
    """
    c, delta = band.center, band.delta
    X = max(80.0 * delta, 2.0 * abs(mu - c) + 20.0 * delta)
    parts = [np.linspace(c - X, c + X, n_base)]
    w = math.pi * float(detector_response(band, mu))
    if w > 0.0:
        d = np.geomspace(1e-3 * w, X, n_ladder)
        parts += [mu + d, mu - d, np.linspace(mu - 2.0 * w, mu + 2.0 * w, 2001)]
    k = np.unique(np.concatenate(parts))
    k = k[(k >= c - X) & (k <= c + X)]
    e = np.asarray(detector_response(band, k))
    f = e / ((mu - k) ** 2 + (math.pi * e) ** 2)
    out = gamma / (2.0 * math.pi) * float(np.trapezoid(f, k))
    if w == 0.0:
        out += gamma / (2.0 * math.pi)  # unresolvable peak degenerates to a delta
    return out


def g2_quad_oracle(band, gamma, mu):
    """g2(mu) by adaptive scalar ``quad`` of its defining integral, at epsrel 1e-12.

    (gamma/2pi) Int dk eta_k / ((mu - k)^2 + (pi eta_k)^2) has a peak of
    half-width pi*eta_mu at k = mu carrying unit weight.  The line is split
    there and at the band edges; the peak and its 1/u^2 shoulder are
    integrated in u = (mu - k)/(pi eta_mu) on a decade ladder.  Where eta_mu
    vanishes (outside a flat band, or a peak below 1e-12 of the local scale,
    narrower than the float spacing of mu can hold) the peak is a delta
    function of weight gamma/2pi.  Shares no code with the band-edge integral.
    """
    pref = gamma / (2.0 * math.pi)
    if band.eta == 0.0:
        return pref
    c, delta = band.center, band.delta

    def f(k):
        e = detector_response(band, k)
        return pref * e / ((mu - k) ** 2 + (math.pi * e) ** 2)

    def piece(g, a, b, points=None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # pieces far below the total stop at roundoff
            return quad(g, a, b, points=points, limit=400, epsabs=1e-14 * pref,
                        epsrel=1e-12)[0]

    if band.is_flat:
        total = piece(f, c - delta, c + delta, [mu] if abs(mu - c) < delta else None)
        return total + (pref if abs(mu - c) >= delta else 0.0)
    # decades into both edges, where a steep band's eta_k turns over on delta/n, and
    # doublings out from them: a piece past 2 delta spanning the falloff of eta_k
    # (a peak of half-width > delta puts one there) would have quad sample beyond it
    edges = {c + s * delta + d * delta * 10.0 ** -m for s in (-1.0, 1.0)
             for d in (-1.0, 0.0, 1.0) for m in range(7)}
    edges |= {c + s * delta * 2.0 ** j for s in (-1.0, 1.0) for j in range(2, 12)}
    w = math.pi * detector_response(band, mu)
    total, lo, hi = 0.0, mu, mu
    if w < 1e-12 * max(abs(mu - c), delta):
        total += pref
    else:
        span = max(50.0, 2.0 * (abs(mu - c) + delta) / w)
        lo, hi = mu - span * w, mu + span * w

        def fu(u):  # mu - k = w*u exactly, with no cancellation against mu
            e = detector_response(band, mu + w * u)
            return pref * w * e / ((w * u) ** 2 + (math.pi * e) ** 2)

        upts = {0.0} | {s * 10.0 ** m for m in range(16) for s in (-1.0, 1.0)
                        if 10.0 ** m < span}
        upts |= {(e - mu) / w for e in edges if abs(e - mu) < span * w}
        total += piece(fu, -span, span, sorted(upts))
    br = sorted(edges | {lo, hi})
    for a, b in zip([-np.inf] + br, br + [np.inf]):
        if a < b and not (lo <= a and b <= hi):  # not empty, not inside the peak
            total += piece(f, a, b)
    return total


def sigma_quad_oracle(band, gamma, omega, eps):
    """Sigma(omega + eps) for Im eps > 0 by adaptive scalar ``quad`` of its defining integral.

    (gamma/2pi) Int dk / (eps - k + i pi eta_{omega+k}), the two sides folded
    onto k >= 0, where their sum falls off as 1/k^2.  Split at the line, at
    the band edges and on a decade ladder from Im eps; real and imaginary
    parts are separate quadratures.  Shares no code with the photon grid,
    the contour poles or the window rule.
    """
    def f(k, part):  # 1/(eps - k + i pi eta_+) + 1/(eps + k + i pi eta_-), without cancellation
        up, down = (1j * math.pi * detector_response(band, omega + s * k) for s in (1.0, -1.0))
        z = (2.0 * eps + up + down) / ((eps - k + up) * (eps + k + down))
        return z.imag if part else z.real

    def beyond(u, part):  # k = top/u maps the last piece onto (0, 1]
        return f(top / u, part) * top / u ** 2

    d = abs(band.center - omega)
    br = sorted({0.0, abs(eps.real), d, d + band.delta, abs(d - band.delta)}
                | {eps.imag * 10.0 ** m for m in range(9)})
    top = br[-1]
    total = 0.0
    for part, unit in ((0, 1.0), (1, 1j)):
        pieces = [(f, a, b) for a, b in zip(br, br[1:])] + [(beyond, 0.0, 1.0)]
        for g, a, b in pieces:
            total += unit * quad(g, a, b, args=(part,), limit=400, epsabs=1e-14,
                                 epsrel=1e-13)[0]
    return gamma / (2.0 * math.pi) * total


def flat_sigma_oracle(gamma, eta, delta, E, center=0.0):
    """Sigma(E + i0) of the flat band from its two edge jumps, in closed form.

    (gamma/2pi) [ln((E-a+i eta/2)/(E-b+i eta/2)) - (ln(E-a+i0) - ln(E-b+i0)) - i pi]
    with a, b the band edges; the +0.0 imaginary parts place E - a + i0 on
    the upper side of the cut.  Scalar E, not exactly at an edge.
    """
    a, b = center - delta, center + delta
    edges = cmath.log(complex(E - a, eta / 2.0) / complex(E - b, eta / 2.0))
    bare = cmath.log(complex(E - a, 0.0)) - cmath.log(complex(E - b, 0.0))
    return gamma / (2.0 * math.pi) * (edges - bare - 1j * math.pi)


def re_sigma_oracle(band, gamma, E):
    """Re Sigma(E) = (gamma/2) Int pi eta_k eta'_k / ((E-k)^2 + (pi eta_k)^2) dk by quad.

    Writes the power-law eta_k and eta'_k out itself, and splits the line at
    the band edges and on a decade ladder into the peak of width pi*eta_E
    at k = E, at epsrel 1e-12.
    """
    c, delta, n = band.center, band.delta, band.n

    def eta_k(k):
        return band.eta / (2.0 * math.pi) / (1.0 + ((k - c) / delta) ** n)

    def f(k):
        x = (k - c) / delta
        deta = -band.eta / (2.0 * math.pi) * n * x ** (n - 1) / delta / (1.0 + x ** n) ** 2
        w = math.pi * eta_k(k)
        return math.pi * eta_k(k) * deta / ((E - k) ** 2 + w * w)

    w = math.pi * eta_k(E)
    pts = {c - delta, c, c + delta, E}
    pts |= {E + s * w * 10.0 ** m for m in range(17) for s in (-1.0, 1.0)
            if w * 10.0 ** m < 10.0 * (abs(E - c) + delta)}
    pts = sorted(pts)
    total = 0.0
    with warnings.catch_warnings():
        # pieces far below the total may stop at roundoff short of epsrel
        warnings.simplefilter("ignore")
        for a, b in zip([-np.inf] + pts, pts + [np.inf]):
            total += quad(f, a, b, epsabs=1e-18, epsrel=1e-12, limit=400)[0]
    return gamma / 2.0 * total


def phi_reference(z, nmax):
    """[phi_1(z) .. phi_nmax(z)] by a frozen formula, independent of production phi.

    The closed form (e^z - sum_{m<j} z^m/m!)/z^j off the disc |z| < 0.5, a
    20-term Taylor series on it, both over every element.  Its relative
    error against 200-bit arithmetic, over ``test_phi.sample_points`` and
    3,000 random points with |z| < 3 and Re z <= 0: 4.4e-16, 1.5e-15,
    1.1e-14 and 8.7e-14 for phi_1..phi_4.
    """
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


class _Krogstad:
    """Exponential RK4 (Krogstad stages) for du/dt = L u + N(u), diagonal L."""

    def __init__(self, L):
        self.L = L

    def set_step(self, h):
        z = self.L * h
        self.E1 = np.exp(z)
        self.E2 = np.exp(z / 2.0)
        p1h, p2h = phi_reference(z / 2.0, 2)
        p1, p2, p3 = phi_reference(z, 3)
        self.q1 = (h / 2.0) * p1h
        self.q2 = h * p2h
        self.hp1 = h * p1
        self.hp2 = h * p2
        self.f1 = h * (p1 - 3.0 * p2 + 4.0 * p3)
        self.f2 = 2.0 * h * (p2 - 2.0 * p3)
        self.f3 = h * (-p2 + 4.0 * p3)

    def step(self, u, N):
        N1 = N(u)
        a = self.E2 * u + self.q1 * N1
        N2 = N(a)
        b = a + self.q2 * (N2 - N1)
        N3 = N(b)
        c = self.E1 * u + self.hp1 * N1 + 2.0 * self.hp2 * (N3 - N1)
        N4 = N(c)
        return self.E1 * u + self.f1 * N1 + self.f2 * (N2 + N3) + self.f3 * N4


def krogstad_reference(dm, ts):
    """(s, eps, r, r_row) of ``propagate(dm, ts)`` from a generic, unstructured ERK4.

    The full state [F, modes, r_row] is stepped with the nonlinear part N
    built as a whole vector at every stage, on the same step schedule.  Slow,
    but it shares no algebra with the structured production stepper, and its
    phi tables, two per step size, come from :func:`phi_reference`.  A
    pseudo-mode row v with real weight w carries the norm w |v|^2.  The fill
    is the rule ``propagate`` uses (horizons under 600/gamma): splines through
    G = F e^{gamma t/2} and gamma |G|^2 recorded after every step give
    s = e^{-gamma t} |G|^2 and, by 8-point Gauss-Legendre on each cell, the
    Markov term's Int e^{-gamma t} gamma |G|^2 dt; ``r`` integrates the
    spline through the recorded flux, and ``r_row`` is the stepped flux ODE row.
    """
    n_core = len(dm.k_grid)
    c_core = np.full(n_core, dm.coupling)
    eta2pi = 2.0 * (-dm.mode_energy.imag)
    L = np.concatenate([
        [-0.5 * dm.model.gamma],
        -1j * (dm.mode_energy - dm.model.omega),
        -1j * dm.tail_poles,
        [0.0],
    ]).astype(complex)
    cF = np.concatenate([c_core.astype(complex), -c_core ** 2])
    sl_modes = slice(1, 1 + len(cF))
    sl_core = slice(1, 1 + n_core)

    def N(u):
        out = np.empty_like(u)
        out[0] = -1j * np.dot(cF, u[sl_modes])
        out[sl_modes] = -1j * u[0]          # pseudo-mode rows couple with weight 1
        out[sl_core] = -1j * c_core * u[0]  # core rows carry the real couplings
        out[-1] = np.dot(eta2pi, np.abs(u[sl_core]) ** 2)
        return out

    u = np.zeros(2 + len(cF), dtype=complex)
    u[0] = 1.0
    norm = np.concatenate([np.ones(n_core), -c_core ** 2])
    stepper = _Krogstad(L)
    num = dm.model.numerics
    times, runs = _step_schedule(np.abs(L).max(), num.step, num.horizon)
    rec = [(1.0 + 0.0j, 0.0, 0.0, 0.0)]
    for h, count in runs:
        stepper.set_step(h)
        for _ in range(count):
            u = stepper.step(u, N)
            abs2 = np.abs(u[sl_modes]) ** 2
            rec.append((complex(u[0]), float(np.dot(norm, abs2)),
                        float(np.dot(eta2pi, abs2[:n_core])), u[-1].real))
    rec_F, rec_eps, rec_J, rec_r = (np.array(x) for x in zip(*rec))
    gamma = dm.model.gamma
    rec_G = rec_F * np.exp(0.5 * gamma * times)  # the Markov decay divided out, as propagate does
    G = CubicSpline(times, rec_G.real)(ts) + 1j * CubicSpline(times, rec_G.imag)(ts)
    q = CubicSpline(times, gamma * np.abs(rec_G) ** 2)
    x, w = np.polynomial.legendre.leggauss(8)

    def decayed(a, b):  # Int_a^b e^{-gamma t} q(t) dt, each a..b inside one cell
        t = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * x
        return 0.5 * (b - a) * ((np.exp(-gamma * t) * q(t)) @ w)

    cell = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, len(times) - 2)
    done = np.r_[0.0, np.cumsum(decayed(times[:-1], times[1:]))]
    markov = done[cell] + decayed(times[cell], ts)
    eps = CubicSpline(times, rec_eps)(ts) + markov
    r = CubicSpline(times, rec_J).antiderivative()(ts)
    return np.exp(-gamma * ts) * np.abs(G) ** 2, eps, r, CubicSpline(times, rec_r)(ts)


def eig_reference(dm, ts):
    """s(t) of ``propagate(dm, ts)`` from the eigenvectors of the constant generator.

    The state x = (F, photons F_j, ghosts G_j) obeys dx/dt = M x, with M the
    arrowhead written out from the equations of motion: diagonal -gamma/2,
    -i(k_j - i pi eta_j - omega) and -i(k_j - omega); the atom row -i c_j on
    the photons and +i c_j on the ghosts; the column -i c_j.  With
    M = V diag(lam) V^-1, F(t) = Sum_j V_0j (V^-1)_j0 e^{lam_j t} at any t, with
    no steps and no interpolation.  Dense ``np.linalg.eig``, since M is complex
    and non-normal: O(rows^3), for a few hundred modes.
    """
    c = np.full(len(dm.k_grid), dm.coupling)
    M = np.diag(np.concatenate([[-0.5 * dm.model.gamma], -1j * (dm.mode_energy - dm.model.omega),
                                -1j * (dm.k_grid - dm.model.omega)]))
    M[0, 1:] = -1j * np.concatenate([c, -c])
    M[1:, 0] = -1j * np.concatenate([c, c])
    lam, V = np.linalg.eig(M)
    e0 = np.zeros(len(M))
    e0[0] = 1.0
    F = np.exp(np.outer(ts, lam)) @ (V[0] * np.linalg.solve(V, e0))
    return np.abs(F) ** 2


def spectral_reference(band, sf, ts, nodes=8, th=2.0):
    """Survival amplitude of the line ``sf`` of ``band`` at times ``ts``, with no spline.

    A(E) = -Im Sigma/pi / ((E - omega - Re Sigma)^2 + (Im Sigma)^2) from direct
    ``self_energy`` at tol 1e-12, on ``nodes``-point Gauss-Legendre nodes inside
    sf's own cells, each cut into equal parts until max(ts)*h <= ``th``.  The
    transform Int A e^{-iEt} dE is summed node by node, and the same analytic
    free tails beyond sf's window are added.  It shares only ``self_energy``
    with the spectral route: no Sigma skeleton, no spline, no jump sums.
    """
    ts = np.asarray(ts, dtype=float)
    E = np.unique(sf.E)  # a flat band's repeated edges are cells of zero width
    parts = np.maximum(np.ceil(ts.max() * np.diff(E) / th), 1.0).astype(int)
    h = np.repeat(np.diff(E) / parts, parts)  # every part's width
    k = np.arange(parts.sum()) - np.repeat(np.cumsum(parts) - parts, parts)  # its index in its cell
    start = np.repeat(E[:-1], parts) + k * h
    u, w = np.polynomial.legendre.leggauss(nodes)
    x = (start[:, None] + h[:, None] * (u + 1.0) / 2.0).ravel() - sf.omega
    sigma = self_energy(band, sf.gamma, x + sf.omega, 1e-12)
    A = -sigma.imag / math.pi / ((x - sigma.real) ** 2 + sigma.imag ** 2)
    wA = (h[:, None] * w / 2.0).ravel() * A
    out = np.array([np.dot(wA, np.exp(-1j * t * x)) for t in ts])
    lo, hi = sf.window
    for sgn, W in ((+1, hi - sf.omega), (-1, sf.omega - lo)):
        c_int, s_int = free_tail_moments(W, ts)
        out += free_value(sf.gamma) * (c_int - 1j * sgn * s_int)
    return out * np.exp(-1j * ts * sf.omega)


def survival_cellwise_reference(sf, t):
    """Survival amplitude of ``sf`` at times ``t`` (an array), cell by cell.

    A is splined as the transform reads it: not-a-knot cubics, one per piece
    between repeated energies.  At every time each cell integrates its own
    cubic piece a0 + a1 u + a2 u^2 + a3 u^3 (u = E - E_k) against e^{-iEt}:
    Int_0^w u^p e^{-itu} du = w^{p+1} Int_0^1 (1 - (1 - s))^p e^{zs} ds with
    z = -itw, which the binomial expansion puts on phi1..phi4 of z from
    :func:`phi_reference`.  It shares no algebra with the jump-sum form.
    The analytic free tails beyond the window are added as there.
    """
    t_arr = np.asarray(t, dtype=float)
    cut = np.flatnonzero(np.diff(sf.E) == 0.0) + 1
    out = np.zeros(len(t_arr), dtype=complex)
    for E, A in zip(np.split(sf.E, cut), np.split(sf.A, cut)):
        a = CubicSpline(E, A).c[::-1]  # a[p] multiplies (E - E_k)^p on cell k
        w = np.diff(E)
        for i, tt in enumerate(t_arr):
            p1, p2, p3, p4 = phi_reference(-1j * tt * w, 4)
            moments = (p1, p1 - p2, p1 - 2.0 * p2 + 2.0 * p3,
                       p1 - 3.0 * p2 + 6.0 * p3 - 6.0 * p4)  # Int_0^1 s^p e^{zs} ds
            cells = sum(a[p] * w ** (p + 1) * moments[p] for p in range(4))
            out[i] += (np.exp(-1j * tt * E[:-1]) * cells).sum()
    lo, hi = sf.window
    for sgn, W in ((+1, hi - sf.omega), (-1, sf.omega - lo)):
        c_int, s_int = free_tail_moments(W, t_arr)
        out += free_value(sf.gamma) * np.exp(-1j * t_arr * sf.omega) * (c_int - 1j * sgn * s_int)
    return out


def perturbative_reference(grid, omega, ts, nodes=8, th=1.0):
    """1 - s(t) of the grid's g2 line at times ``ts``, by quadrature of the kernel itself.

    gamma t plus Int (g2 - gamma/2pi) sin^2(xt/2)/(x/2)^2 dmu, x = mu - omega,
    over the line's window: ``nodes``-point Gauss-Legendre nodes in each of its
    cells, cut into equal parts until t*h <= ``th``, with the line's own cubic
    on each cell.  It shares no kernel antiderivative, no Si/Ci and no
    summation by parts with :func:`~zenoband.spectral.perturbative_decay`.
    """
    line = grid.line
    keep = np.flatnonzero(np.diff(line.x) > 0.0)  # a flat band's repeated edges: zero-width cells
    h, c, x0 = np.diff(line.x)[keep], line.c[:, keep], line.x[keep]
    u, w = np.polynomial.legendre.leggauss(nodes)
    out = []
    for t in np.atleast_1d(np.asarray(ts, dtype=float)):
        parts = np.maximum(np.ceil(t * h / th), 1.0).astype(int)
        cell = np.repeat(np.arange(len(keep)), parts)
        k = np.arange(parts.sum()) - np.repeat(np.cumsum(parts) - parts, parts)
        hp = (h / parts)[cell]
        s = (k[:, None] + (u + 1.0) / 2.0) * hp[:, None]  # from the cell's left end
        cc = c[:, cell, None]
        dev = ((cc[0] * s + cc[1]) * s + cc[2]) * s + cc[3] - free_value(grid.gamma)
        x = x0[cell, None] + s - omega
        kern = t * t * np.sinc(x * t / (2.0 * np.pi)) ** 2  # sin^2(xt/2)/(x/2)^2
        out.append(grid.gamma * t + np.sum((hp[:, None] * w / 2.0) * dev * kern))
    return np.array(out)
