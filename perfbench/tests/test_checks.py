"""The benchmark's own tests: every check accepts the program's output and rejects a perturbed copy.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import spans
import workloads
from blocktri import entropy, harness, mde, model, numerics, spectra, transfer

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
LAW = entropy.AtomLaw("complex-gaussian")


def _plain(n=5, ell=3, seed=7, law=LAW):
    return model.sample_tridiagonal(n, ell, law, entropy.SeedScheme(seed), 0)


@pytest.mark.parametrize("z", [0.0, 0.5 + 0.5j, 2.0])
def test_transfer_logdet_check(z):
    m = _plain()
    value = transfer.logdet_via_transfer(m, z)
    assert checks.check_transfer_logdet(value, m, z) == []
    assert checks.check_transfer_logdet(value + 1e-6 * max(1.0, abs(value)), m, z)


def test_dense_assembly_matches_program():
    m = _plain()
    assert np.array_equal(checks.dense_plain(m.diag, m.upper, m.lower, 0.5 + 0.5j), model.to_dense(m, 0.5 + 0.5j))
    rng = entropy.SeedScheme(3).stream(0, 0, "frames")
    b = model.build_bordered(m, model.random_exit_frame(3, rng), model.random_entry_frame(3, rng))
    assert np.array_equal(checks.dense_bordered(b, 0.5), model.to_dense(b, 0.5))
    p = model.sample_periodic(4, 3, LAW, 5)
    assert np.array_equal(checks.dense_periodic(p, 0.5), model.to_dense(p, 0.5))


def test_projected_growth_check():
    m = _plain()
    value = transfer.projected_growth_log(m, 0.5)
    assert checks.check_projected_growth(value, m, 0.5) == []
    assert checks.check_projected_growth(value + 1e-6, m, 0.5)


def test_potential_check():
    assert checks.check_potential(-0.5 + 0.01, 0.0) == []
    assert checks.check_potential(math.log(2.0) - 0.01, 2.0) == []
    assert checks.check_potential(-0.5 + 0.06, 0.0)
    assert checks.check_potential(math.log(2.0) + 0.06, 2.0)


def test_esd_checks():
    m = _plain(n=8, ell=4, law=entropy.AtomLaw("real-gaussian"))
    summary = spectra.esd(m)
    dense = checks.dense_plain(m.diag, m.upper, m.lower)
    ev = summary.eigenvalues
    f, d = summary.fraction_in_unit_disk, summary.radial_cdf_distance
    assert checks.check_disk_stats(ev, f, d) == []
    assert checks.check_esd_from_dense(dense, f, d) == []
    assert checks.check_disk_stats(ev, f + 1.0 / ev.size, d)
    assert checks.check_esd_from_dense(dense, f, d + 1e-6)
    assert checks.check_eigenvalues(ev, dense.real, real_law=True) == []


def test_eigenvalue_checks_reject_each_perturbation():
    m = _plain(n=10, ell=4, law=entropy.AtomLaw("real-gaussian"))
    dense = checks.dense_plain(m.diag, m.upper, m.lower).real
    ev = spectra.esd(m).eigenvalues
    shifted = ev.copy()
    shifted[0] += 1e-3
    assert any("trace" in p for p in checks.check_eigenvalues(shifted, dense, real_law=True))
    # Moving two eigenvalues apart along the ray keeps the trace when they are real.
    real_idx = np.flatnonzero(np.abs(ev.imag) < 1e-12)[:2]
    scaled = ev.copy()
    scaled[real_idx[0]] *= 1.01
    scaled[real_idx[1]] -= scaled[real_idx[0]] - ev[real_idx[0]]
    assert any("slogdet" in p for p in checks.check_eigenvalues(scaled, dense, real_law=True))
    # A pair moved off conjugate symmetry with the sum and (nearly) the moduli kept.
    pair = np.flatnonzero(ev.imag > 1e-6)[0]
    broken = ev.copy()
    broken[pair] += 1e-4
    broken[np.argmin(np.abs(ev - np.conj(ev[pair])))] -= 1e-4
    assert any("conjugation" in p for p in checks.check_eigenvalues(broken, dense, real_law=True))


def test_disk_bounds_check():
    rng = np.random.default_rng(0)
    n = 1000
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    ev = np.linalg.eigvals(g)
    assert checks.check_disk_bounds(ev) == []
    assert checks.check_disk_bounds(1.1 * ev)
    assert checks.check_disk_bounds(0.8 * ev)


def test_singular_value_checks():
    m = _plain(n=6, ell=4)
    dense = checks.dense_plain(m.diag, m.upper, m.lower, 0.5)
    count = spectra.rigidity_count(spectra.singular_values(m, 0.5), 4 ** -0.1)
    assert checks.check_rigidity(float(count), dense, 4 ** -0.1) == []
    assert checks.check_rigidity(float(count + 1), dense, 4 ** -0.1)
    lsv = spectra.least_singular_value(m, 0.5)
    assert checks.check_least_singular_value(lsv, dense) == []
    assert checks.check_least_singular_value(lsv * (1 + 1e-6), dense)


def test_mde_checks():
    xi, z = 2 + 1j, 0.5
    bulk = mde.solve_mc(xi, z)
    assert checks.check_mc(bulk, xi, z) == []
    assert checks.check_mc(bulk + 1e-6, xi, z)
    assert checks.check_mc(bulk.conjugate(), xi, z)
    cfg = harness.ExperimentConfig("mde-compare", n=4, ell=3, z=0.5 + 0j, xi=xi, trials=1, master_seed=4)
    values = harness.run(cfg).trials[0].values
    dense = checks.dense_periodic(model.sample_periodic(4, 3, cfg.law(), entropy.SeedScheme(4), 0), z)
    assert checks.check_mde_compare(values, dense, xi, z, bulk) == []
    for key in ("mhat_re", "mhat_im", "deviation"):
        bad = dict(values, **{key: values[key] + 1e-6})
        assert checks.check_mde_compare(bad, dense, xi, z, bulk), key


def test_chain_check():
    w, z = 0.1j, 0.5
    chain = mde.solve_chain(64, w, z)
    assert checks.check_chain(chain, w, z) == []
    m = chain.m.copy()
    m[10] += 1e-6
    assert checks.check_chain(mde.MdeChain(64, w, z, m, chain.residual, True), w, z)
    assert checks.check_chain(mde.MdeChain(64, w, z, chain.m, chain.residual, False), w, z)


def _emitted(tmp_path, cfg):
    record = harness.run(cfg)
    return record, harness.emit(record, tmp_path / "rec")


def test_emit_check_accepts_and_rejects(tmp_path):
    record, paths = _emitted(tmp_path, harness.ExperimentConfig("logdet-identity", n=3, ell=2, trials=2))
    assert checks.check_emitted(record, *paths) == []
    lines = paths[0].read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-12))
    paths[0].write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    assert checks.check_emitted(record, *paths)


def test_emit_check_rejects_bare_nan(tmp_path):
    # A trial that fails in the harness is written with NaN values, which
    # strict JSON does not allow.
    cfg = harness.ExperimentConfig("logdet-identity", n=4, ell=4, trials=1, max_dense=8)
    record, paths = _emitted(tmp_path, cfg)
    assert record.trials[0].status == "failed"
    assert any("strictly" in p for p in checks.check_emitted(record, *paths))


@pytest.mark.parametrize("master_seed", [1, 2, 3])
def test_near_singular_slice_is_caught_by_the_check(master_seed):
    cfg = harness.ExperimentConfig("logdet-identity", **dict(workloads.SLICE, master_seed=master_seed))
    record = harness.run(cfg)
    assert all(t.status == "ok" for t in record.trials)
    wrong = sum(
        bool(checks.check_transfer_logdet(t.values["transfer_logdet"], workloads._plain_model(cfg, t.index), cfg.z))
        for t in record.trials
    )
    assert wrong >= len(record.trials) // 2
    # The same check passes the same slice once the blocks are well smoothed.
    smooth = harness.ExperimentConfig("logdet-identity", **dict(workloads.SLICE, master_seed=master_seed, smoothing_exponent=1.0))
    for t in harness.run(smooth).trials:
        assert checks.check_transfer_logdet(t.values["transfer_logdet"], workloads._plain_model(smooth, t.index), smooth.z) == []


def _round_outcome(workload, index):
    failed = unexpected = attempted = 0
    for op in workload.round(index):
        for item in op.check(op.call()):
            attempted += 1
            failed += bool(item)
            unexpected += bool(item) and not op.known_fault
    return attempted, failed, unexpected


def test_transfer_logpot_failures_repeat_exactly(tmp_path):
    outcomes = {_round_outcome(workloads.TransferLogpot(seed, tmp_path), 1) for seed in (5, 6)}
    assert len(outcomes) == 1
    attempted, failed, unexpected = outcomes.pop()
    assert failed == workloads.SLICE["trials"] and unexpected == 0


def test_tracer_counts_calls_through_every_module_and_restores():
    tracer = spans.Tracer()
    m = _plain(n=4, ell=3)
    with tracer.active():
        transfer.logdet_via_transfer(m, 0.5)
        assert hasattr(transfer.solve_lu, "__wrapped__")
    assert not hasattr(numerics.solve_lu, "__wrapped__")
    assert not hasattr(transfer.solve_lu, "__wrapped__")
    assert not hasattr(entropy.SeedScheme.stream, "__wrapped__")
    metrics = tracer.report(rounds=1, overhead_s=0.0)
    assert metrics["numerics.solve_lu.calls"]["value"] == 4
    assert metrics["numerics.lu_logdet.calls"]["value"] == 5
    assert metrics["transfer.steps"]["value"] == 4
    assert metrics["numerics.factorizations_per_block"]["value"] == pytest.approx(9 / 4)
    assert metrics["trace.coverage"]["value"] == pytest.approx(1.0, abs=0.05)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    per_layer = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    assert per_layer == {(name, unit) for name, unit, _ in spans.metric_specs()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"trials_per_s", "experiment_s.p50", "peak_rss_mb", "setup_s"}


def test_runner_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transfer-logpot", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
