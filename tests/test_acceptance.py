"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines alongside the timing. Statistical criteria are desk-scale witnesses of
asymptotic statements and run at frozen master seeds.
"""

import time

import numpy as np
import pytest

import blocktri as bt

LAW = bt.AtomLaw("complex-gaussian")
LAW_REAL = bt.AtomLaw("real-gaussian")
GINIBRE_LIMIT = -0.5 * np.log(3.0) - 0.5


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start


def _report(num, name, ok, budget, seconds, detail):
    status = "PASS" if ok and seconds < budget else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} ({detail}; {seconds:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert seconds < budget, f"criterion {num} exceeded runtime budget"


def _aggregates(experiment, **kw):
    """Per-column aggregates of one `run`, every trial of which must be ok."""
    record = bt.harness.run(bt.harness.ExperimentConfig(experiment, **kw))
    for col, agg in record.aggregates.items():
        assert agg["count"] == kw["trials"], f"{col}: {kw['trials'] - agg['count']} failed trials"
    return record.aggregates


def _rel_err(a, b):
    return abs(a - b) / max(1.0, abs(b))


def test_criterion_01_transfer_determinant_identity():
    shifts = (0.0, 0.5 + 0.5j, 2.0)
    with _Timer() as t:
        worst = 0.0
        for i in range(100):
            n = 1 + i % 8
            ell = 1 + i % 6
            model = bt.sample_tridiagonal(n, ell, LAW, 1000 + i)
            for z in shifts:
                lhs = bt.logdet_via_transfer(model, z)
                rhs = bt.lu_logdet(bt.to_dense(model, z))
                worst = max(worst, _rel_err(lhs, rhs))
    _report(1, "transfer-determinant identity", worst <= 1e-8, 10.0, t.seconds, f"max rel err {worst:.2e} over 300 cases")


def test_criterion_02_bordered_identity(unit_gram_frame):
    shifts = (0.0, 0.5 + 0.5j, 2.0)
    rng = np.random.default_rng(20)
    with _Timer() as t:
        worst = 0.0
        for i in range(100):
            n = 1 + i % 6
            ell = 1 + i % 4
            model = bt.sample_tridiagonal(n, ell, LAW, 2000 + i)
            frame = bt.random_entry_frame if i % 2 == 0 else unit_gram_frame
            bordered = bt.build_bordered(model, frame(ell, rng).conj().T, frame(ell, rng))
            for z in shifts:
                lhs = bt.logdet_via_transfer(bordered, z)
                rhs = bt.lu_logdet(bt.to_dense(bordered, z))
                worst = max(worst, _rel_err(lhs, rhs))
    _report(2, "bordered-frame identity", worst <= 1e-8, 10.0, t.seconds, f"max rel err {worst:.2e} over 300 cases")


def test_criterion_03_wedge_validation():
    ell = 2
    rng = np.random.default_rng(30)
    with _Timer() as t:
        worst = 0.0
        for i in range(50):
            n = 2 + i % 5
            model = bt.sample_tridiagonal(n, ell, LAW, 3000 + i)
            xi = bt.random_entry_frame(ell, rng)
            pi = bt.random_exit_frame(ell, rng)
            product = np.eye(2 * ell, dtype=complex)
            for k in range(n):
                product = bt.dense_transfer_matrix(model.diag[k], model.upper[k], model.lower[k], 0.5) @ product
            wedge_vec = bt.wedge_power_small(product, ell) @ bt.plucker_coordinates(xi)
            norm_err = abs(bt.cocycle_trace(bt.build_bordered(model, entry_frame=xi), 0.5).sum() - np.log(np.linalg.norm(wedge_vec)))
            pairing = abs(np.dot(bt.plucker_coordinates(pi.T), wedge_vec))
            proj_err = abs(bt.projected_growth_log(bt.build_bordered(model, pi, xi), 0.5) - np.log(pairing))
            worst = max(worst, norm_err, proj_err)
    _report(3, "wedge-space validation", worst <= 1e-8, 5.0, t.seconds, f"max abs err {worst:.2e} on 50 instances")


def test_criterion_04_ginibre_logdet():
    with _Timer() as t:
        mean = _aggregates("ginibre", n=1000, trials=20, master_seed=0)["normalized_logdet"]["mean"]
        diff = abs(mean - GINIBRE_LIMIT)
    _report(4, "square-matrix log-determinant limit", diff <= 0.02, 120.0, t.seconds, f"mean {mean:.5f}, |diff| {diff:.5f}")


def test_criterion_05_log_potential_limit():
    scheme = bt.SeedScheme(0)
    with _Timer() as t:
        diffs = {}
        for z, target in ((0.0, -0.5), (2.0, float(np.log(2.0)))):
            vals = [
                bt.logdet_via_transfer(bt.sample_tridiagonal(48, 48, LAW, scheme, trial=t_), z) / (48 * 48)
                for t_ in range(30)
            ]
            diffs[z] = abs(float(np.mean(vals)) - target)
        ok = all(d <= 0.05 for d in diffs.values())
    _report(5, "log-potential limit", ok, 600.0, t.seconds, f"|diff| z=0: {diffs[0.0]:.4f}, z=2: {diffs[2.0]:.4f}")


def test_criterion_06_circular_law_esd():
    with _Timer() as t:
        results = []
        for seed in range(5):
            summary = bt.esd(bt.sample_tridiagonal(100, 20, LAW_REAL, seed))
            results.append((summary.fraction_in_unit_disk, summary.radial_cdf_distance))
        ok = all(f >= 0.95 and d <= 0.08 for f, d in results)
        worst_f = min(f for f, _ in results)
        worst_d = max(d for _, d in results)
    _report(6, "circular-law ESD", ok, 300.0, t.seconds, f"5 seeds: min fraction {worst_f:.4f}, max radial dist {worst_d:.4f}")


def test_criterion_07_mde_suite():
    with _Timer() as t:
        worst_mc = 0.0
        for eta in np.geomspace(1e-2, 10, 10):
            for zmod in np.linspace(0.0, 3.0, 10):
                m = bt.solve_mc(1j * eta, zmod)
                worst_mc = max(worst_mc, abs(1.0 / m + 1j * eta * (1 + m) - zmod**2 / (1 + m)))
        chains_ok = True
        bulk_diff = 0.0
        for z in (0.0, 0.5, 2.0):
            for eta in (0.1, 0.5):
                chain = bt.solve_chain(64, 1j * eta, z)
                chains_ok &= chain.converged and chain.residual <= 1e-10
                chains_ok &= bool(np.all(chain.m.imag > 0))
                chains_ok &= bool(np.max(np.abs(chain.m.imag)) <= bt.chain_imag_bound(z, eta))
                if eta == 0.1:
                    bulk_diff = max(bulk_diff, abs(chain.m[32] - bt.solve_mc(1j * eta, z)))
        ok = worst_mc <= 1e-12 and chains_ok and bulk_diff <= 1e-2
    _report(
        7,
        "self-consistency suite",
        ok,
        30.0,
        t.seconds,
        f"max grid residual {worst_mc:.1e}, max bulk gap {bulk_diff:.1e}",
    )


def test_criterion_08_stieltjes_convergence_trend():
    with _Timer() as t:
        xi, z = 2 + 1j, 0.5
        devs = []
        for ell in (16, 32, 64):
            agg = _aggregates("mde-compare", n=8, ell=ell, z=z, xi=xi, trials=40, master_seed=0)
            mhat = complex(agg["mhat_re"]["mean"], agg["mhat_im"]["mean"])
            devs.append(abs(mhat - bt.solve_mc(xi, z)))
        ok = bool(devs[0] > devs[1] > devs[2])
    _report(8, "empirical-transform convergence trend", ok, 600.0, t.seconds, f"deviations {np.round(devs, 6).tolist()}")


def test_criterion_09_concentration_trend():
    with _Timer() as t:
        kw = dict(ell=8, z=0.5, law_kind=LAW.kind, trials=200, master_seed=0)
        stds = [_aggregates("concentration", n=n, **kw)["normalized_projected_growth"]["std"] for n in (32, 64, 128)]
        ok = stds[0] > stds[1] > stds[2]
    _report(9, "growth-statistic concentration trend", ok, 300.0, t.seconds, f"std devs {np.round(stds, 6).tolist()}")


def test_criterion_10_property_suites():
    rng = np.random.default_rng(99)
    with _Timer() as t:
        checks = {}

        # Kolmogorov distance metric axioms
        axioms = True
        for _ in range(15):
            a = bt.EmpiricalMeasure.from_values(rng.standard_normal(30))
            b = bt.EmpiricalMeasure.from_values(rng.standard_normal(40))
            c = bt.EmpiricalMeasure.from_values(rng.standard_normal(25))
            dab = bt.kolmogorov_distance(a, b)
            axioms &= dab >= 0.0
            axioms &= abs(dab - bt.kolmogorov_distance(b, a)) < 1e-15
            axioms &= dab <= bt.kolmogorov_distance(a, c) + bt.kolmogorov_distance(c, b) + 1e-15
            axioms &= bt.kolmogorov_distance(a, a) == 0.0
        checks["kolmogorov-metric"] = axioms

        # rigidity count equals a brute-force scan and is monotone
        rigid = True
        atoms = rng.uniform(0, 2, 300)
        measure = bt.EmpiricalMeasure.from_values(atoms)
        prev = -1
        for thr in np.linspace(0, 2, 41):
            cnt = bt.rigidity_count(measure, thr)
            rigid &= cnt == int(np.sum(atoms <= thr))
            rigid &= cnt >= prev
            prev = cnt
        checks["rigidity-bruteforce"] = rigid

        # Herglotz and tail properties of the empirical transform
        herglotz = True
        m50 = bt.EmpiricalMeasure.from_values(rng.uniform(0, 50, 500))
        for xi in (1j, 2 + 0.5j, -1 + 3j, 0.01j):
            herglotz &= bt.empirical_stieltjes(m50, xi).imag > 0
        herglotz &= abs(bt.empirical_stieltjes(m50, 1e6j) * 1e6j + 1.0) <= 1e-4
        checks["stieltjes-herglotz"] = herglotz

        # QR / LU / SVD kernel contracts
        kernels = True
        for _ in range(10):
            m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            ld = bt.lu_logdet(m)
            kernels &= abs(np.sum(np.log(bt.svd_values(m))) - ld) <= 1e-6 * max(1.0, abs(ld))
            tall = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
            q, r = bt.qr_thin(tall)
            kernels &= np.linalg.norm(q.conj().T @ q - np.eye(4)) < 1e-12
            kernels &= np.linalg.norm(q @ r - tall) < 1e-10 * np.linalg.norm(tall)
            kernels &= bool(np.all(np.diagonal(r).real > 0) and np.all(np.diagonal(r).imag == 0))
            x = bt.solve_lu(m, tall)
            kernels &= np.linalg.norm(m @ x - tall) <= 1e-8 * np.linalg.norm(m) * np.linalg.norm(x)
        checks["kernel-contracts"] = kernels

        # deterministic operator norm inequality on sampled bordered instances
        norms = True
        for i in range(20):
            model = bt.sample_tridiagonal(4 + i % 5, 2 + i % 4, LAW, 5000 + i)
            ell = model.ell
            bordered = bt.build_bordered(model, bt.random_exit_frame(ell, rng), bt.random_entry_frame(ell, rng))
            norms &= bt.operator_norm_check(bordered)
        checks["operator-norm-bound"] = norms

        # windowed log-moment inequality on random measure pairs
        logint = True
        for beta in (1.0, 2.0):
            for _ in range(15):
                a = bt.EmpiricalMeasure.from_values(rng.uniform(0.01, 3, 100))
                b = bt.EmpiricalMeasure.from_values(rng.uniform(0.01, 3, 100))
                logint &= bt.logint_bound_check(a, b, 0.05, 2.5, beta)
        checks["log-integral-bound"] = logint

        # frame representative invariance
        model = bt.sample_tridiagonal(32, 8, LAW, 6000)
        xi = bt.random_entry_frame(8, rng)
        u, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        checks["frame-representative"] = (
            abs(
                bt.projected_growth_log(bt.build_bordered(model, entry_frame=xi), 0.5)
                - bt.projected_growth_log(bt.build_bordered(model, entry_frame=xi @ u), 0.5)
            )
            < 1e-9
        )

        failed = [k for k, v in checks.items() if not v]
    _report(10, "exact property suites", not failed, 60.0, t.seconds, f"failed: {failed or 'none'}")
