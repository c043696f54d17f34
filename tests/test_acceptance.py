"""Acceptance suite: one test per quantitative exit criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and enforces the stated tolerance.  The expensive solver runs are
shared through module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from epitaxy import presets
from epitaxy.cli import main as cli_main
from epitaxy.nonlinear import TaylorDepth
from epitaxy.norms import (
    WeightParams,
    analyticity_radius,
    certify,
    spacetime_norm,
    wiener_norm,
)
from epitaxy.picard import solve_picard
from epitaxy.semigroup import (
    Trajectory,
    linear_trajectory,
    operator_bound_probe,
    random_probe_trajectory,
)
from epitaxy.spectral import FourierField
from epitaxy.stepper import SolverConfig, solve_timestep

from conftest import random_field, trajectory_of
from reference import coeff, fields, multiply, sub


def report(index, name, passed, detail=""):
    print(f"ACCEPTANCE {index:2d} {name}: {'PASS' if passed else 'FAIL'} {detail}".rstrip())
    assert passed, f"criterion {index} ({name}) failed: {detail}"


CORPUS_CONFIG = dict(truncation=16, dt=1e-3, t_final=2.0)


@pytest.fixture(scope="module")
def corpus_runs():
    """Both engines on the three-item corpus at N = 16, dt = 1e-3, T = 2."""
    config = SolverConfig(**CORPUS_CONFIG)
    data = {
        "single-mode-0.2": presets.single_mode(16, 0.2),
        "two-mode": presets.two_mode(16, 0.2),
        "random-decay-seed7": presets.random_decay(16, seed=7, amplitude=0.2),
    }
    runs = {}
    for name, h0 in data.items():
        cert = certify(h0)
        picard, diag = solve_picard(h0, cert, config)
        marched = solve_timestep(h0, config)
        runs[name] = dict(h0=h0, cert=cert, picard=picard, stepper=marched, diag=diag)
    return runs


def test_criterion_1_threshold_reproduction(tmp_path, capsys):
    config = {
        "schema_version": 1,
        "initial_data": {"preset": "single-mode", "amplitude": 0.2, "k": 1, "dim": 1},
        "solver": {"truncation": 8, "dt": 0.01, "t_final": 0.5},
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
        "mode_options": {"amplitudes": [0.20, 0.24, 0.249, 0.251, 0.30]},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(__import__("json").dumps(config))
    start = time.perf_counter()
    code = cli_main(["sweep", "--config", str(cfg_path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[2:]
    pattern = [row.split(",")[6] == "True" for row in rows]
    ok = code == 0 and pattern == [True, True, True, False, False] and elapsed < 1.0
    report(1, "threshold reproduction", ok, f"pattern={pattern} elapsed={elapsed:.3f}s")


def test_criterion_2_operator_bound():
    rng = np.random.default_rng(42)
    times = np.linspace(0.0, 2.0, 201)
    start = time.perf_counter()
    worst = 0.0
    failures = 0
    for index in range(100):
        dim = 1 if index % 2 == 0 else 2
        truncation = int(rng.integers(2, 17))
        traj = random_probe_trajectory(rng, dim, truncation, times)
        for rep in operator_bound_probe(traj, (0.1, 0.5, 0.9)):
            worst = max(worst, rep.ratio / rep.bound)
            failures += 0 if rep.passed else 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    report(
        2,
        "operator bound",
        ok,
        f"failures={failures}/300 worst ratio/bound={worst:.6f} elapsed={elapsed:.2f}s",
    )


def test_criterion_3_contraction_constant():
    h0 = presets.single_mode(16, 0.2)
    cert = certify(h0, alpha=0.25)
    expected = (math.exp(0.4) - 1.0) / 0.75
    start = time.perf_counter()
    _, diag = solve_picard(h0, cert, SolverConfig(truncation=16, dt=1e-2, t_final=2.0))
    elapsed = time.perf_counter() - start
    constant_ok = abs(cert.contraction_constant - expected) <= 1e-5
    envelope = cert.contraction_constant * 1.05
    ratios_ok = all(r <= envelope for r in diag.empirical_ratios)
    ok = constant_ok and ratios_ok and elapsed < 60.0
    report(
        3,
        "contraction constant",
        ok,
        f"constant={cert.contraction_constant:.6f} max ratio="
        f"{max(diag.empirical_ratios):.4f} envelope={envelope:.4f} elapsed={elapsed:.1f}s",
    )


def test_criterion_4_engine_cross_validation(corpus_runs):
    worst = {}
    for name, run in corpus_runs.items():
        diffs = [
            wiener_norm(sub(a, b), 2)
            for a, b in zip(fields(run["picard"]), fields(run["stepper"]))
        ]
        worst[name] = max(diffs)
    ok = all(v <= 1e-6 for v in worst.values())
    detail = " ".join(f"{k}={v:.3e}" for k, v in worst.items())
    report(4, "engine cross-validation", ok, detail)


def test_criterion_5_radius_growth(corpus_runs):
    run = corpus_runs["single-mode-0.2"]
    alpha = run["cert"].alpha
    traj = run["picard"]
    fit = analyticity_radius(traj, floor=1e-12)  # one fit per node
    # the nodes at multiples of 0.05 in [0.5, 2], picked by their times; on
    # the corpus grid they are every 50th node, as the index stride picked them
    times = traj.times
    ticks = times / 0.05
    nodes = np.flatnonzero(
        (np.abs(ticks - np.round(ticks)) <= 1e-9) & (0.5 <= times) & (times <= 2.0)
    )
    assert nodes.tolist() == [i for i in range(0, times.size, 50) if 0.5 <= times[i] <= 2.0]
    x, y = times[nodes], fit.rho[nodes]
    design = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    growth = float(coef[1]) * (2.0 - 0.5)
    needed = alpha * (2.0 - 0.5) - 0.05
    ok = growth >= needed and r_squared >= 0.99
    report(
        5,
        "analyticity radius growth",
        ok,
        f"growth={growth:.3f} needed>={needed:.3f} R2={r_squared:.5f} slope={coef[1]:.3f}",
    )


def test_criterion_6_banach_algebra():
    rng = np.random.default_rng(6)
    violations = 0
    worst_margin = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 3))
        truncation = int(rng.integers(2, 9)) if dim == 1 else int(rng.integers(2, 6))
        f = random_field(rng, dim=dim, truncation=truncation, decay=float(rng.uniform(0.3, 2.0)))
        g = random_field(rng, dim=dim, truncation=truncation, decay=float(rng.uniform(0.3, 2.0)))
        prod, mean = multiply(f, g)
        lhs = abs(mean) + wiener_norm(prod, 0)
        rhs = wiener_norm(f, 0) * wiener_norm(g, 0)
        if lhs > rhs * (1 + 1e-12):
            violations += 1
        if rhs > 0:
            worst_margin = max(worst_margin, lhs / rhs)
    # equality cases: single-mode times single-mode saturates the bound
    eq_errors = []
    for k1, k2, a1, a2 in ((1, 1, 0.7, 0.7), (1, 2, 0.5, 1.1), (2, 3, 1.3, 0.2)):
        f = FourierField.from_modes(1, 4, {(k1,): a1 / 2.0})
        g = FourierField.from_modes(1, 4, {(k2,): a2 / 2.0})
        prod, mean = multiply(f, g)
        lhs = abs(mean) + wiener_norm(prod, 0)
        eq_errors.append(abs(lhs - a1 * a2))
    ok = violations == 0 and max(eq_errors) <= 1e-12
    report(
        6,
        "Banach algebra property",
        ok,
        f"violations={violations}/1000 worst lhs/rhs={worst_margin:.12f} "
        f"max equality error={max(eq_errors):.2e}",
    )


def test_criterion_7_semigroup_norm_identity():
    rng = np.random.default_rng(7)
    worst_excess = 0.0
    worst_equality_gap = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 3))
        truncation = int(rng.integers(2, 9))
        h0 = random_field(rng, dim=dim, truncation=truncation)
        alpha = float(rng.uniform(1e-3, 1.0 - 1e-3))
        traj = linear_trajectory(h0, np.linspace(0.0, 2.0, 21))
        lhs = spacetime_norm(traj, WeightParams(alpha, 2))
        rhs = wiener_norm(h0, 2)
        worst_excess = max(worst_excess, lhs / rhs - 1.0)
        worst_equality_gap = max(worst_equality_gap, abs(lhs - rhs) / rhs)
    ok = worst_excess <= 1e-12 and worst_equality_gap <= 1e-12
    report(
        7,
        "semigroup norm identity",
        ok,
        f"max excess={worst_excess:.2e} max equality gap={worst_equality_gap:.2e}",
    )


def test_criterion_8_calculus_inequality():
    alphas = np.linspace(0.0, 1.0, 10_002)[1:-1]  # 10^4 interior points
    lhs = (1.0 - alphas) / (2.0 * (2.0 - alphas))
    rhs = np.log(2.0 - alphas) / 2.0
    ok = bool(np.all(lhs < rhs))
    margin = float(np.min(rhs - lhs))
    report(8, "calculus inequality", ok, f"points={alphas.size} min margin={margin:.3e}")


def test_criterion_9_linear_exactness():
    rng = np.random.default_rng(9)
    h0 = random_field(rng, dim=1, truncation=4, decay=0.5)
    config = SolverConfig(
        truncation=4, dt=1e-3, t_final=0.1, taylor=TaylorDepth(max_j=1)
    )
    traj = solve_timestep(h0, config)
    worst = 0.0
    for t, f in zip(traj.times, fields(traj)):
        k4 = (np.arange(0, 5, dtype=float) ** 2) ** 2  # the half box k >= 0
        exact = h0.coeffs * np.exp(-k4 * t)
        mask = np.abs(exact) > 0
        rel = np.abs(f.coeffs[mask] - exact[mask]) / np.abs(exact[mask])
        worst = max(worst, float(np.max(rel)))
    ok = worst <= 1e-13
    report(9, "linear exactness", ok, f"max per-mode relative error={worst:.2e}")


def test_criterion_10_convergence_orders():
    # Picard grid refinement (Duhamel quadrature): order 2.0 +- 0.3
    h0 = presets.single_mode(2, 0.2)
    cert = certify(h0)
    solutions = {}
    for dt in (0.04, 0.02, 0.01):
        config = SolverConfig(truncation=2, dt=dt, t_final=0.48, tol=1e-13)
        solutions[dt], _ = solve_picard(h0, cert, config)

    def gap(fine, coarse):
        keep = [int(np.argmin(np.abs(fine.times - t))) for t in coarse.times]
        return Trajectory(coarse.times, fine.coeffs[keep] - coarse.coeffs)

    params = WeightParams(0.0, 2)
    d1 = spacetime_norm(gap(solutions[0.02], solutions[0.04]), params)
    d2 = spacetime_norm(gap(solutions[0.01], solutions[0.02]), params)
    picard_order = math.log2(d1 / d2)

    # discrete residual of the Duhamel output: order 2.0 +- 0.3
    from epitaxy.semigroup import duhamel_Iplus

    def residual(n):
        times = np.linspace(0.0, 1.0, n + 1)
        nodes = [FourierField.from_modes(1, 4, {(1,): 0.5 * math.exp(-0.3 * t)}) for t in times]
        traj = trajectory_of(times, nodes)
        out = duhamel_Iplus(traj)
        g = np.array([coeff(f, 1) for f in fields(out)])
        fv = np.array([coeff(f, 1) for f in fields(traj)])
        dt = times[1] - times[0]
        res = (g[2:] - g[:-2]) / (2.0 * dt) + g[1:-1] + fv[1:-1]
        return float(np.max(np.abs(res)))

    residual_order = math.log2(residual(50) / residual(100))

    # IF-RK4 self-convergence: order 4.0 +- 0.5
    finals = []
    for dt in (0.02, 0.01, 0.005):
        config = SolverConfig(truncation=2, dt=dt, t_final=0.5)
        finals.append(fields(solve_timestep(presets.single_mode(2, 0.2), config))[-1])
    e1 = wiener_norm(sub(finals[0], finals[1]), 0)
    e2 = wiener_norm(sub(finals[1], finals[2]), 0)
    rk4_order = math.log2(e1 / e2)

    ok = (
        abs(picard_order - 2.0) <= 0.3
        and abs(residual_order - 2.0) <= 0.3
        and abs(rk4_order - 4.0) <= 0.5
    )
    report(
        10,
        "convergence orders",
        ok,
        f"picard={picard_order:.2f} residual={residual_order:.2f} if-rk4={rk4_order:.2f}",
    )
