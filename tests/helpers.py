"""Shared generators for randomized sweeps (seeded by each test)."""

import numpy as np

import kreinext as kx
from kreinext import ExtensionParams
from kreinext.linalg import RANK_RTOL


def random_hermitian(rng, n, scale=1.0):
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (raw + raw.conj().T) / 2.0


def random_projector(rng, n, rank=None):
    if rank is None:
        rank = int(rng.integers(0, n + 1))
    if rank == 0:
        return np.zeros((n, n), dtype=complex)
    raw = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    q, _ = np.linalg.qr(raw)
    return q @ q.conj().T


def random_params(rng, n, rank=None, scale=1.0) -> ExtensionParams:
    pi = random_projector(rng, n, rank)
    theta = pi @ random_hermitian(rng, n, scale) @ pi
    theta = (theta + theta.conj().T) / 2.0
    return ExtensionParams(pi, theta)


def one_sided_derivatives(samples, h):
    """Inward boundary derivatives of uniform samples, 4th order."""
    f = np.asarray(samples)
    d0 = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)
    da = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12 * h)
    return d0, -da


def reference_g_columns(a, z, x):
    """Deficiency columns [sin(k(a-x)), sin(kx)] / sin(ka), one edge, as first written.

    This and the two functions after it are copies of the per-field edge
    kernels that each evaluated their own sines. The shared kernels of
    ``models.SampledKernels`` must agree with them bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if z == 0:
        return np.stack([(a - x) / a, x / a], axis=1).astype(complex)
    k = complex(np.sqrt(complex(-z)))
    s = np.sin(k * a)
    return np.stack([np.sin(k * (a - x)) / s, np.sin(k * x) / s], axis=1)


def reference_r_apply(a, z, psi, x):
    """Free resolvent samples on one edge, as first written."""
    from kreinext.quad import cumulative_simpson, simpson

    psi = np.asarray(psi)
    x = np.asarray(x, dtype=float)
    dx = x[1] - x[0]
    if z == 0:
        left = cumulative_simpson(x * psi, dx)
        f2 = (a - x) * psi
        right = simpson(f2, dx) - cumulative_simpson(f2, dx)
        return (a - x) / a * left + x / a * right
    k = complex(np.sqrt(complex(-z)))
    s = np.sin(k * a)
    f1 = np.sin(k * x) * psi
    f2 = np.sin(k * (a - x)) * psi
    left = cumulative_simpson(f1, dx)
    right = simpson(f2, dx) - cumulative_simpson(f2, dx)
    return (np.sin(k * (a - x)) * left + np.sin(k * x) * right) / (k * s)


def reference_g_adjoint(a, z, psi, x):
    """G(conj(z))^* on one edge's samples, as first written."""
    from kreinext.quad import simpson

    x = np.asarray(x, dtype=float)
    dx = x[1] - x[0]
    cols = reference_g_columns(a, z, x)
    return np.array([simpson(cols[:, 0] * psi, dx), simpson(cols[:, 1] * psi, dx)])


# ---------------------------------------------------------------------------
# frozen copies of the quadrature and the point Gram matrix before their fixed
# costs were cut: weights built on every sum, seven temporaries per running
# integral and all n^2 Gram entries evaluated. The library must agree with
# them bit for bit.


def reference_simpson_weights(n, dx):
    """``quad.simpson_weights`` as first written."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"composite Simpson needs an odd node count >= 3, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dx / 3.0)


def reference_simpson(values, dx):
    """``quad.simpson`` with its weights rebuilt on every call."""
    f = np.asarray(values)
    n = f.shape[0]
    if n < 3:
        raise ValueError("need at least 3 samples")
    if n % 2 == 1:
        return np.sum(reference_simpson_weights(n, dx) * f)
    head = np.sum(reference_simpson_weights(n - 1, dx) * f[:-1])
    tail = dx / 24.0 * (9.0 * f[-1] + 19.0 * f[-2] - 5.0 * f[-3] + f[-4])
    return head + tail


def reference_cumulative_simpson(values, dx):
    """``quad.cumulative_simpson`` with a temporary for every operation."""
    f = np.asarray(values)
    if f.shape[0] < 3:
        raise ValueError("need at least 3 samples")
    out = np.empty(f.shape, dtype=np.result_type(f.dtype, 1.0))
    out[0] = 0.0
    out[1] = dx / 12.0 * (5.0 * f[0] + 8.0 * f[1] - f[2])
    out[2:] = dx / 12.0 * (-f[:-2] + 8.0 * f[1:-1] + 5.0 * f[2:])
    return np.cumsum(out)


def reference_point_gram(model, z, w):
    """``models._point_gram`` with every entry of the (n, n) matrix evaluated."""
    z, w = complex(z), complex(w)
    (za, a), (zb, b) = sorted([(w, np.sqrt(w)), (z, np.sqrt(z))], key=lambda root: root[1].real)
    d = model._distances
    x = (zb - za) / (a + b) * d
    quotient = np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x != 0)
    return np.exp(-a * d) * quotient / (4.0 * np.pi * (a + b))


def reference_merge_intervals(intervals):
    """``models._merge_intervals`` as first written: sorted intervals, overlaps joined."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def reference_gaps_in(excluded, lo, hi):
    """``DirichletExclusions.gaps_in`` as first written: one pole at a time in Python floats."""
    gaps = []
    for a in excluded.lengths:
        unit = float(np.float_power(np.pi / a, 2))
        n_lo = max(1, int(np.ceil(np.sqrt(max(-hi, 0.0)) * a / np.pi - 1e-12)))
        n_hi = int(np.floor(np.sqrt(max(-lo, 0.0)) * a / np.pi + 1e-12))
        for n in range(max(1, n_lo - 1), n_hi + 2):
            pole = -((n * np.pi / a) ** 2)
            g = 2.0 * (excluded.guard_rel * (2 * n + 1) * unit)
            if pole + g >= lo and pole - g <= hi:
                gaps.append((max(lo, pole - g), min(hi, pole + g)))
    return reference_merge_intervals(gaps)


def reference_subtract_gaps(lo, hi, gaps):
    """The window split as first written: every gap cuts every segment."""
    segments = [(lo, hi)]
    for glo, ghi in gaps:
        new = []
        for slo, shi in segments:
            if ghi <= slo or glo >= shi:
                new.append((slo, shi))
                continue
            if glo > slo:
                new.append((slo, glo))
            if ghi < shi:
                new.append((ghi, shi))
        segments = new
    return [(a, b) for a, b in segments if b > a]


def reference_admissible_start(excluded, lo):
    """The first float at or above ``lo`` outside the excluded set, one
    ``contains`` call per float, as the search first found its segment starts."""
    while excluded.contains(lo):
        lo = float(np.nextafter(lo, np.inf))
    return lo


# ---------------------------------------------------------------------------
# frozen copies of the secular-stack formation: every label compressed, the
# blocks copied one by one, the point mask built per call and three guard
# candidates per edge. The library's formation must agree with them bit for bit.


def reference_dirichlet_nearest(excluded, z):
    """``DirichletExclusions._nearest`` with its three candidates n = floor,
    ceil (both at least 1) and 1 per edge: shape (*z.shape, 3, edges)."""
    a = np.array(excluded.lengths)
    z = np.asarray(z, dtype=complex)
    zr, zi = z.real[..., None, None], z.imag[..., None, None]
    base = np.sqrt(np.maximum(-zr, 0.0)) * a / np.pi
    n = np.concatenate([np.floor(base), np.ceil(base), np.ones_like(base)], -2)
    n = np.maximum(n, 1.0)
    pole = -np.float_power(n * np.pi / a, 2)
    return np.hypot(zr - pole, zi), n


def reference_dirichlet_contains(excluded, z):
    """``DirichletExclusions.contains`` over the three candidates."""
    dist, n = reference_dirichlet_nearest(excluded, z)
    unit = np.float_power(np.pi / np.array(excluded.lengths), 2)
    hit = (dist <= excluded.guard_rel * (2 * n + 1) * unit).any(axis=(-2, -1))
    return hit if hit.ndim else bool(hit)


def reference_dirichlet_distance(excluded, z) -> float:
    """``DirichletExclusions.distance`` over the three candidates."""
    return float(np.min(reference_dirichlet_nearest(excluded, complex(z))[0]))


def reference_block_diag(blocks):
    """``models._block_diag`` as first written: one slice copy per block."""
    *lead, K, b, _ = np.shape(blocks)
    out = np.zeros((*lead, K * b, K * b), dtype=complex)
    for k in range(K):
        out[..., k * b : (k + 1) * b, k * b : (k + 1) * b] = blocks[..., k, :, :]
    return out


def reference_edge_gammas(lengths, z):
    """``models._edge_gammas``: the (*z.shape, K, 2, 2) Gamma blocks of the edges."""
    a = np.array(lengths, dtype=float)
    z = np.asarray(z)
    zero = z == 0
    k = np.sqrt(np.asarray(-np.where(zero, -1.0, z), dtype=complex))[..., None]
    ratio = k / np.sin(k * a)
    out = np.empty(ratio.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = ratio * np.cos(k * a)
    out[..., 0, 1] = out[..., 1, 0] = ratio * -1.0  # times -1 + 0j; -ratio flips signed zeros
    out[zero] = np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex) / a[:, None, None]
    return out


def reference_point_gamma(centers, z):
    """``models._point_gamma`` as first written: a boolean off-diagonal mask
    and d[mask] built on every call."""
    diff = centers[:, None, :] - centers[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    z = np.asarray(z, dtype=complex)
    sq = np.sqrt(z)[..., None]
    n = centers.shape[0]
    out = np.zeros(z.shape + (n, n), dtype=complex)
    mask = ~np.eye(n, dtype=bool)
    out[..., mask] = -np.exp(-sq * d[mask]) / (4.0 * np.pi * d[mask])
    diagonal = np.arange(n)
    out[..., diagonal, diagonal] = sq / (4.0 * np.pi)
    return out


def reference_gamma(model, z):
    """Gamma(z) of a model descriptor, checked against its excluded set, from
    the frozen kernels above; a scalar z or a 1-D array of values."""
    if isinstance(model, (kx.IntervalModel, kx.GraphModel)):
        lengths = (float(model.a),) if isinstance(model, kx.IntervalModel) else model.lengths
        excluded = kx.DirichletExclusions(lengths)
        hit = np.atleast_1d(reference_dirichlet_contains(excluded, z))
        blocks = reference_edge_gammas(lengths, z)
    else:
        b = model.b if isinstance(model, kx.SpinPointModel) else (0.0,)
        zs = np.asarray(z, dtype=complex)
        hit = np.atleast_1d((zs.imag == 0.0) & (zs.real <= max(b)))
        blocks = reference_point_gamma(np.asarray(model.centers, dtype=float), zs[..., None] - np.array(b))
    if hit.any():
        raise kx.ExcludedPointError(f"z={complex(np.ravel(z)[np.argmax(hit)])} is excluded")
    return reference_block_diag(blocks)


def reference_secular_matrix(model, params, z):
    """``secular_matrix`` as first written: V^*(theta + Gamma(z))V for every
    label, the identity frame included."""
    z = complex(z) if np.ndim(z) == 0 else np.asarray(z, dtype=complex)
    v = params.range_basis
    m = v.conj().T @ (params.theta + reference_gamma(model, z)) @ v
    if not np.isfinite(m).all():
        raise kx.ModelConsistencyError("secular matrix is not finite")
    return m


def reference_hermitian_part(m):
    """``spectral._hermitian_part`` as first written."""
    return (m + np.swapaxes(m.conj(), -1, -2)) / 2.0


def reference_secular_stack(model, params, z):
    """The Hermitian secular matrices the search diagonalises, formed as before."""
    return reference_hermitian_part(reference_secular_matrix(model, params, z))


def assert_same_search(got, ref):
    """Two ``SpectrumResult``s agree to the bit: roots, multiplicities,
    sigma_min, null bases, gaps and metadata."""
    assert got.gaps == ref.gaps
    assert got.metadata == ref.metadata
    assert len(got.eigenvalues) == len(ref.eigenvalues)
    for hit, want in zip(got.eigenvalues, ref.eigenvalues):
        assert np.array_equal(hit.lam, want.lam)
        assert hit.multiplicity == want.multiplicity
        assert np.array_equal(hit.sigma_min, want.sigma_min)
        assert hit.null_basis.tobytes() == want.null_basis.tobytes()
    assert got.lambdas().tolist() == sorted(got.lambdas().tolist())


def depth_first_search(model, params, window):
    """Reference eigenvalue search: depth-first count bisection, one lambda per call.

    A copy of the search before it was batched: :func:`depth_first_isolate`
    bisects one bracket at a time through scalar secular matrices, and each
    root gets its own ``eigh``. Every matrix comes from the frozen
    :func:`reference_secular_stack`, not from the library's formation. The
    batched search must agree with it bit for bit.
    """
    from kreinext import spectral
    from kreinext.cli import _weyl_for

    system = _weyl_for(model)
    lo, hi = float(window[0]), float(window[1])
    basis = params.range_basis
    gaps = tuple(system.excluded.gaps_in(lo, hi))
    segments = [
        (reference_admissible_start(system.excluded, a), b)
        for a, b in reference_subtract_gaps(lo, hi, gaps)
    ]
    metadata = {
        "scope": spectral.SCOPE_NOTE,
        "window": [lo, hi],
        "segments": [[a, b] for a, b in segments],
        "searchable": bool(segments) and basis.shape[1] > 0,
        "expected_count": 0,
        "found_count": 0,
    }
    if basis.shape[1] == 0 or not segments:
        return spectral.SpectrumResult((), gaps, metadata)

    def hermitian(lam):
        return reference_secular_stack(model, params, lam)

    def eigs(lam):
        return np.linalg.eigvalsh(hermitian(lam))

    theta_norm = float(np.linalg.norm(params.theta, 2))
    results = []
    for slo, shi in segments:
        for lam, drop in depth_first_isolate(eigs, slo, shi, theta_norm):
            metadata["expected_count"] += drop
            w, u = np.linalg.eigh(hermitian(lam))
            near = np.argsort(np.abs(w), kind="stable")[:drop]
            if np.max(np.abs(w[near])) > RANK_RTOL * (1.0 + np.max(np.abs(w))):
                continue
            results.append(
                spectral.EigenResult(
                    lam=lam,
                    sigma_min=float(np.min(np.abs(w))),
                    multiplicity=drop,
                    null_basis=basis @ u[:, np.sort(near)],
                )
            )
    metadata["found_count"] = sum(r.multiplicity for r in results)
    return spectral.SpectrumResult(tuple(results), gaps, metadata)


def depth_first_isolate(eigs, lo, hi, theta_norm):
    """Plain count bisection of one segment, depth first, one point per ``eigs(lam)`` call.

    The bisection the search had before its rounds and its secant: every
    midpoint is evaluated, a drop of several stops once that many
    eigenvalues are within the rounding bound, and brackets come out in
    increasing lambda.
    """
    from kreinext import spectral

    def count(w):
        return int(np.sum(w < 0.0))

    floor = spectral.BRACKET_FLOOR
    out = []
    stack = [(lo, hi, count(eigs(lo)), count(eigs(hi)))]
    while stack:
        lo, hi, clo, chi = stack.pop()
        drop = clo - chi
        if drop == 0:
            continue
        mid = 0.5 * (lo + hi)
        if hi - lo <= floor * max(1.0, abs(lo), abs(hi)) or not lo < mid < hi:
            out.append((mid, drop))
            continue
        w = eigs(mid)
        rounding = floor * w.size * (np.max(np.abs(w)) + theta_norm)
        if drop > 1 and np.sort(np.abs(w))[drop - 1] <= rounding:
            out.append((mid, drop))
            continue
        cmid = count(w)
        stack.append((mid, hi, cmid, chi))
        stack.append((lo, mid, clo, cmid))
    return out
