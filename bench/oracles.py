"""Independent oracles for the benchmark, written with numpy alone.

Nothing here imports hermweb.  Inputs are plain arrays on the grid
x_1..x_n, y_1..y_n (unit periods, y axes collapsed in every workload), and
each check returns a list of failure messages; an empty list means the
output passed.

Conventions: z_j = x_j + i y_j, and for a field that depends on x only
    H_ij = d^2 phi / dz_i dzbar_j = (1/4) d^2 phi / dx_i dx_j.
"""

from __future__ import annotations

import struct

import numpy as np

FIELD_HEADER = struct.Struct("<8sII6H4x")  # magic, version, n, sizes[6], pad
FIELD_MAGIC = b"HWFLD\x00\x00\x00"


# ---------------------------------------------------------------------------
# fields built by hand
# ---------------------------------------------------------------------------

def x_coordinates(sizes, n):
    """Broadcastable x_1..x_n coordinate arrays on a grid of the given sizes."""
    out = []
    for axis in range(n):
        shape = [1] * len(sizes)
        shape[axis] = sizes[axis]
        out.append((np.arange(sizes[axis]) / sizes[axis]).reshape(shape))
    return out


def wave_phase(sizes, n, k, theta):
    """2 pi k.x + theta on the grid, full grid shape."""
    xs = x_coordinates(sizes, n)
    phase = np.full(tuple(sizes), float(theta))
    for kk, x in zip(k, xs):
        phase = phase + 2.0 * np.pi * kk * x
    return phase


def wave_metric(sizes, n, waves):
    """g = I + sum_w B_w cos(2 pi k_w.x + theta_w) for Hermitian B_w."""
    g = np.zeros(tuple(sizes) + (n, n), dtype=np.complex128)
    g[..., np.arange(n), np.arange(n)] = 1.0
    for k, theta, B in waves:
        g += np.cos(wave_phase(sizes, n, k, theta))[..., None, None] * B
    return g


def plane_wave_potential(sizes, n, waves):
    """phi = sum_w c_w cos(2 pi k_w.x + theta_w) and its complex Hessian.

    H_ij = (1/4) d_xi d_xj phi = -pi^2 k_i k_j c cos(2 pi k.x + theta),
    worked out by hand, so no transform is involved.
    """
    phi = np.zeros(tuple(sizes))
    H = np.zeros(tuple(sizes) + (n, n))
    for k, theta, c in waves:
        wave = c * np.cos(wave_phase(sizes, n, k, theta))
        phi += wave
        H += -np.pi**2 * np.multiply.outer(wave, np.outer(k, k))
    return phi, H


def adjugate(g):
    """adj(g) = det(g) inv(g) for a (..., n, n) field."""
    return np.linalg.det(g)[..., None, None] * np.linalg.inv(g)


def form_type_lambda(g, H):
    """Matrix of omega^2 + i ddbar phi ^ omega_0 for n = 3, omega_0 = I:
    adj(g) + (1/2)((tr H) I - H)."""
    n = g.shape[-1]
    trH = np.einsum("...ii->...", H)
    return adjugate(g) + 0.5 * (trH[..., None, None] * np.eye(n) - H)


def manufactured_ma2(g, H, b):
    """F with det(g + H) = e^{F+b} det g."""
    return np.log(np.linalg.det(g + H).real / np.linalg.det(g).real) - b


def manufactured_ma3(g, H, b):
    """F with det(root) = e^{F+b} det g, where adj(root) = form_type_lambda."""
    det_root = np.sqrt(np.linalg.det(form_type_lambda(g, H)).real)
    return np.log(det_root / np.linalg.det(g).real) - b


def spectral_hessian(phi, n):
    """d^2 phi / dz_i dzbar_j of a real field of x_1..x_n, by numpy FFT.

    Second derivatives along one axis keep the Nyquist mode; mixed ones drop
    it (a first derivative of the Nyquist mode of a real field is zero), so
    the result is exactly real and symmetric.
    """
    shape = phi.shape
    fhat = np.fft.fftn(phi)
    ks = []
    for axis in range(n):
        N = shape[axis]
        k = np.fft.fftfreq(N, d=1.0 / N)
        kshape = [1] * len(shape)
        kshape[axis] = N
        ks.append((k.reshape(kshape), N))
    H = np.zeros(shape + (n, n))
    for i in range(n):
        for j in range(i, n):
            ki, Ni = ks[i]
            kj, Nj = ks[j]
            if Ni == 1 or Nj == 1:
                continue
            if i == j:
                mult = -((2.0 * np.pi * ki) ** 2)
            else:
                di = np.where(np.abs(ki) == Ni // 2, 0.0, 2.0 * np.pi * ki)
                dj = np.where(np.abs(kj) == Nj // 2, 0.0, 2.0 * np.pi * kj)
                mult = -(di * dj)
            H[..., i, j] = 0.25 * np.fft.ifftn(mult * fhat).real
            H[..., j, i] = H[..., i, j]
    return H


def read_field(path):
    """Decode a field dump: 32-byte header, then little-endian (re, im) pairs."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, _version, _n, *sizes = FIELD_HEADER.unpack(blob[: FIELD_HEADER.size])
    if magic != FIELD_MAGIC:
        raise ValueError(f"{path}: bad field magic {magic!r}")
    shape = tuple(s for s in sizes if s > 0)
    pairs = np.frombuffer(blob[FIELD_HEADER.size :], dtype="<f8")
    if pairs.size != 2 * int(np.prod(shape)):
        raise ValueError(f"{path}: payload of {pairs.size} doubles for shape {shape}")
    return (pairs[0::2] + 1j * pairs[1::2]).reshape(shape)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _over(problems, label, value, bound):
    if not value <= bound:  # also catches NaN
        problems.append(f"{label} = {value:.3e} > {bound:.1e}")


def check_flow(g0, g, a, j, k, norms, limit_tol=1e-7):
    """Chern-Ricci flow from g0 with g0_jj = 1 + a cos(2 pi x_k).

    The limit is Chern-Ricci flat in the class of g0: only g_kk moves, to
    sqrt(1 - a^2) / (1 + a cos(2 pi x_k)); every entry keeps its mean and
    the recorded Ricci norms never increase.
    """
    problems = []
    sizes = g0.shape[:-2]
    xk = x_coordinates(sizes, g0.shape[-1])[k]
    want = np.array(g0, dtype=np.complex128)
    want[..., k, k] = np.sqrt(1.0 - a * a) / (1.0 + a * np.cos(2.0 * np.pi * xk))
    _over(problems, "distance to the closed-form limit", float(np.max(np.abs(g - want))), limit_tol)
    axes = tuple(range(len(sizes)))
    drift = np.max(np.abs(np.mean(g, axis=axes) - np.mean(g0, axis=axes)))
    _over(problems, "drift of the entry means", float(drift), 1e-9)
    norms = np.asarray(norms)
    if not np.all(np.diff(norms) <= 0.0):
        problems.append("recorded Ricci norms are not monotone")
    return problems


def check_ma_manufactured(phi, b, phi_star, b_star, tol):
    problems = []
    _over(problems, "|phi - phi*|", float(np.max(np.abs(phi - phi_star))), tol)
    _over(problems, "|b - b*|", abs(b - b_star), tol)
    return problems


def _flat_output(phi, g_out):
    """det(g_out) is constant and phi has mean zero."""
    problems = []
    d = np.linalg.det(g_out).real
    _over(problems, "relative spread of det(g_out)", float(np.ptp(d) / np.mean(d)), 1e-9)
    _over(problems, "|mean(phi)|", abs(float(np.mean(phi))), 1e-10)
    return problems


def check_ma2_ricci_flat(g, phi, g_out, tol=1e-8):
    """det(g_out) is constant and g_out = g + Hess(phi)."""
    problems = _flat_output(phi, g_out)
    H = spectral_hessian(phi, g.shape[-1])
    _over(problems, "|g_out - (g + H(phi))|", float(np.max(np.abs(g_out - (g + H)))), tol)
    return problems


def check_ma3_ricci_flat(g, phi, g_out, tol=1e-8):
    """det(g_out) is constant and adj(g_out) = adj(g) + (tr H I - H)/2."""
    problems = _flat_output(phi, g_out)
    lam = form_type_lambda(g, spectral_hessian(phi, g.shape[-1]))
    _over(problems, "|adj(g_out) - lambda(phi)|", float(np.max(np.abs(adjugate(g_out) - lam))), tol)
    return problems


def bump_spec_metric(sizes, n, params):
    """Metric of an inspect spec: diagonal constants, constant off-diagonals,
    and g_jj = 1 + a cos(2 pi x_k) (j, k 0-based)."""
    g = np.zeros(tuple(sizes) + (n, n), dtype=np.complex128)
    for i, d in enumerate(params["diag"]):
        g[..., i, i] = d
    for (p, q), c in params["offdiag"].items():
        g[..., p, q] = c
        g[..., q, p] = np.conj(c)
    xk = x_coordinates(sizes, n)[params["k"]]
    g[..., params["j"], params["j"]] = 1.0 + params["a"] * np.cos(2.0 * np.pi * xk)
    return g


def bump_class_residuals(n, params):
    """Closed-form max-norms for the bump metric.

    d omega has coefficient d_k g_jj, whose max is pi a; ddbar omega has
    (1/4) d_xk^2 g_jj, max pi^2 a.  For n = 2 the Gauduchon residual is the
    latter.  For n = 3, omega^2 = 2 sum_{p<q} g_pp g_qq (...), and only the
    pair {j, m} with m the third index varies transversally to its own
    factors, giving 2 pi^2 a g_mm (Gauduchon) and 2 pi a g_mm (balanced).
    """
    a = params["a"]
    out = {"kahler": np.pi * a}
    if n == 2:
        out["gauduchon"] = np.pi**2 * a
    else:
        m = 3 - params["j"] - params["k"]
        out["gauduchon"] = 2.0 * np.pi**2 * a * params["diag"][m]
        out["balanced"] = 2.0 * np.pi * a * params["diag"][m]
        out["astheno_kahler"] = np.pi**2 * a
    return out


def _rel(value, want):
    return abs(value - want) / max(1.0, abs(want))


def check_ricci_report(report, g):
    """Bott-Chern defect 0 and the max-norm of Ric = -ddbar log det g."""
    problems = []
    res = report["results"]
    _over(problems, "Bott-Chern defect", res["bott_chern_defect_max"]["value"], 1e-12)
    ric = spectral_hessian(np.log(np.linalg.det(g).real), g.shape[-1])
    _over(problems, "ricci max-norm error", _rel(res["ricci_max_norm"]["value"], float(np.max(np.abs(ric)))), 1e-9)
    return problems


def check_classify_report(report, n, params):
    problems = []
    got = report["results"]["classify"]
    for name, want in bump_class_residuals(n, params).items():
        _over(problems, f"{name} residual error", _rel(got[name]["residual"], want), 1e-9)
        if got[name]["flag"]:
            problems.append(f"{name} flag set on a non-flat bump metric")
    return problems


def check_flatten_report(report, F, g):
    """F = -(log det g - mean) and the conformal output is Ricci-flat."""
    problems = []
    L = np.log(np.linalg.det(g).real)
    want = -(L - np.mean(L))
    _over(problems, "|F - F_oracle|", float(np.max(np.abs(F - want))), 1e-12)
    res = report["results"]
    _over(problems, "output Ricci max-norm", res["output_ricci_max_norm"]["value"], 1e-10)
    _over(problems, "det relative spread", res["det_relative_spread"]["value"], 1e-12)
    return problems


def check_hopf_report(report):
    """Ric = (n/r^2)(I - zbar z^T / r^2) has eigenvalues 0 and n/r^2, so the
    minimum is 0 and the top exceeds n/(2 r^2) by n/(2 r^2) in [1/4, 4]
    for 1/2 <= |z| <= 2 and n = 2."""
    problems = []
    checks = report["results"]["hopf"]["checks"]
    _over(problems, "hopf min eigenvalue", abs(checks["semipositive"]["computed"]), 1e-10)
    _over(problems, "hopf kernel eigenvalue", abs(checks["kernel_direction"]["computed"]), 1e-10)
    _over(problems, "hopf finite differences", checks["closed_form_vs_finite_differences"]["computed"], 1e-6)
    margin = checks["top_eigenvalue_at_least_n_over_2r2"]["computed"]
    if not 0.25 - 1e-12 <= margin <= 4.0 + 1e-12:
        problems.append(f"hopf top-eigenvalue margin {margin} outside [1/4, 4]")
    return problems


def check_nakamura_report(report):
    """omega^3 = 3! prod (i dz_k dzbar_k) = 6 i^3 = -6i on the ordered basis."""
    problems = []
    checks = report["results"]["nakamura"]["checks"]
    _over(problems, "nakamura top coefficient", abs(checks["undeformed_top_coefficient"]["computed"] - 6 * 1j**3), 1e-12)
    _over(problems, "nakamura spread", checks["coefficient_spread"]["computed"], 1e-12)
    return problems


def check_yoshihara_report(report):
    """Roots of x^2 - (1+i)x + 1: alpha beta = 1, lambda = alpha conj(beta)
    has modulus 1 and is the monodromy eigenvalue; the lattice map has
    determinant +-1."""
    problems = []
    roots = np.roots([1.0, -(1.0 + 1j), 1.0])
    alpha, beta = roots[np.argmax(roots.imag)], roots[np.argmin(roots.imag)]
    lam = alpha * np.conj(beta)
    checks = report["results"]["yoshihara"]["checks"]
    _over(problems, "yoshihara alpha beta", abs(checks["alpha_beta_product"]["computed"] - 1.0), 1e-11)
    _over(problems, "yoshihara |lambda|", abs(checks["lambda_modulus"]["computed"] - abs(lam)), 1e-11)
    _over(problems, "yoshihara monodromy", abs(checks["monodromy_eigenvalue"]["computed"] - lam), 1e-11)
    descent = report["results"]["flat_volume_descent"]["checks"]
    _over(problems, "lattice determinant", abs(descent["lattice_map_determinant"]["computed"] - 1.0), 1e-11)
    return problems


# ---------------------------------------------------------------------------
# report text: "key: value" lines, two spaces of indent per level
# ---------------------------------------------------------------------------

def _scalar(text):
    if text in ("true", "false"):
        return text == "true"
    if text == "none":
        return None
    try:
        return float(text)
    except ValueError:
        pass
    if text.endswith("i"):
        try:
            return complex(text[:-1] + "j")
        except ValueError:
            pass
    return text


def parse_report(text):
    lines = text.splitlines()[1:]
    root: dict = {}
    stack = [(-1, root)]
    for line in lines:
        depth = (len(line) - len(line.lstrip(" "))) // 2
        key, _, value = line.strip().partition(":")
        while stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1]
        value = value.strip()
        if value:
            parent[key] = _scalar(value)
        else:
            parent[key] = {}
            stack.append((depth, parent[key]))
    return root
