import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy

import blocktri
from blocktri import harness
from blocktri.harness import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    ResultRecord,
    config_from_dict,
    emit,
    main,
    run,
)


def _strip_wall(record):
    d = record.to_jsonable()
    d.pop("wall_time_s")
    return d


def test_run_deterministic():
    cfg = ExperimentConfig("logdet-identity", n=4, ell=3, z=0.5 + 0.5j, trials=6, master_seed=42)
    first = run(cfg)
    second = run(cfg)
    assert _strip_wall(first) == _strip_wall(second)


def test_single_trial_aggregate_equals_value():
    cfg = ExperimentConfig("ginibre", n=16, trials=1, master_seed=7)
    record = run(cfg)
    agg = record.aggregates["normalized_logdet"]
    assert agg["mean"] == record.trials[0].values["normalized_logdet"]
    assert agg["std"] == 0.0


def test_identity_experiment_values_are_tight():
    record = run(ExperimentConfig("logdet-identity", n=5, ell=2, trials=4, master_seed=1))
    assert record.aggregates["rel_error"]["max"] <= 1e-8


def test_all_experiments_produce_their_columns(tmp_path):
    cases = {
        "logdet-identity": dict(n=3, ell=2),
        "logdet-limit": dict(n=4, ell=4),
        "esd": dict(n=4, ell=2),
        "lsv-tail": dict(n=3, ell=4),
        "rigidity": dict(n=3, ell=4),
        "mde-compare": dict(n=4, ell=4),
        "concentration": dict(n=6, ell=3),
        "ginibre": dict(n=12),
    }
    assert set(cases) == set(EXPERIMENTS)
    for name, kw in cases.items():
        record = run(ExperimentConfig(name, trials=2, master_seed=3, **kw))
        assert len(record.trials) == 2
        for trial in record.trials:
            assert trial.status == "ok"
            assert set(trial.values) == set(record.columns)


def test_emit_csv_and_json_roundtrip(tmp_path):
    cfg = ExperimentConfig("concentration", n=4, ell=2, z=0.5, trials=3, master_seed=5)
    record = run(cfg)
    paths = emit(record, tmp_path / "out" / "conc")
    csv_path, json_path = paths
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "trial,seed,normalized_projected_growth,status"
    assert len(lines) == 4
    # CSV floats round-trip exactly through repr
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert float(cells[2]) == record.trials[i].values["normalized_projected_growth"]
    # JSON round-trips losslessly
    parsed = json.loads(json_path.read_text())
    assert parsed == record.to_jsonable()
    # aggregates are recomputable from the per-trial values
    col_vals = [t["values"]["normalized_projected_growth"] for t in parsed["trials"]]
    assert np.mean(col_vals) == pytest.approx(parsed["aggregates"]["normalized_projected_growth"]["mean"], abs=1e-15)


def test_emit_keeps_dots_in_the_base_name(tmp_path):
    record = ResultRecord({"experiment": "x"}, ["value"], [], {}, 0.0)
    paths = [p for base in ("z0.5", "z0.7") for p in emit(record, tmp_path / "res" / base)]
    expected = [tmp_path / "res" / name for name in ("z0.5.csv", "z0.5.json", "z0.7.csv", "z0.7.json")]
    assert paths == expected
    assert sorted((tmp_path / "res").iterdir()) == expected


def test_emit_header_only_for_empty_trials(tmp_path):
    record = ResultRecord({"experiment": "x"}, ["value"], [], {}, 0.0)
    csv_path, _ = emit(record, tmp_path / "empty")
    assert csv_path.read_text() == "trial,seed,value,status\n"


def test_record_reports_the_blas_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    record = run(ExperimentConfig("logdet-identity", n=3, ell=2))
    env = record.to_jsonable()["environment"]
    assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
    assert env["scipy_blas"].strip()
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["OMP_NUM_THREADS"] is None
    assert isinstance(env["usable_cores"], int) and env["usable_cores"] >= 1
    bundled = list((Path(scipy.__file__).parent.parent / "scipy.libs").glob("libscipy_openblas*"))
    assert env["blas_threads"] is None if not bundled else env["blas_threads"] >= 1
    _, json_path = emit(record, tmp_path / "env")

    def reject(token):
        raise ValueError(token)

    assert json.loads(json_path.read_text(), parse_constant=reject)["environment"] == env


def test_blas_threads_reads_the_pool_and_null_without_the_library(monkeypatch):
    script = "import sys; sys.path.insert(0, sys.argv[1]); from blocktri import harness; print(harness._blas_threads())"
    bundled = list((Path(scipy.__file__).parent.parent / "scipy.libs").glob("libscipy_openblas*"))
    if bundled:
        src = str(Path(blocktri.__file__).parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", script, src], env=env, capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "1", out.stderr

    def missing(path):
        raise OSError(path)

    monkeypatch.setattr(harness.ctypes, "CDLL", missing)
    assert harness._blas_threads() is None
    assert run(ExperimentConfig("ginibre", n=4)).environment["blas_threads"] is None


def test_aggregate_counts_the_nonfinite_values_it_leaves_out():
    """At C = 60 and ell = 2 the entries are exactly +-1/sqrt(6): a 2 x 2 sign matrix is singular half the time."""
    cfg = ExperimentConfig("logdet-limit", n=1, ell=2, law_kind="smoothed-rademacher", smoothing_exponent=60.0, trials=8, master_seed=3)
    record = run(cfg)
    assert all(t.status == "ok" for t in record.trials)
    values = np.array([t.values["normalized_logdet"] for t in record.trials])
    singular = int(np.sum(values == -np.inf))
    assert 0 < singular < 8
    agg = record.aggregates["normalized_logdet"]
    assert (agg["count"], agg["nonfinite"]) == (8 - singular, singular)
    assert agg["mean"] == pytest.approx(values[np.isfinite(values)].mean())


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        run(ExperimentConfig("unknown-experiment"))
    with pytest.raises(ConfigError):
        run(ExperimentConfig("esd", trials=0))
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": "esd", "bogus": 1})
    with pytest.raises(ConfigError):
        config_from_dict({})
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": "esd", "tol": 1e-8})
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": "esd", "n": None})
    for not_an_object in (None, 5, ["esd"]):
        with pytest.raises(ConfigError, match="JSON object"):
            config_from_dict(not_an_object)
    # int fields refuse what int() would truncate, and keep integral values
    for key, value in (("n", 2.7), ("trials", True), ("trials", 1.9), ("ell", "2.5")):
        with pytest.raises(ConfigError, match=f"bad value for {key}"):
            config_from_dict({"experiment": "ginibre", key: value})
    assert config_from_dict({"experiment": "ginibre", "n": 3.0, "trials": "4"}).trials == 4
    # float and complex fields refuse a JSON boolean as int fields do
    for key in ("threshold", "z_re", "smoothing_exponent"):
        for value in (True, False):
            with pytest.raises(ConfigError, match=f"bad value for {key}"):
                config_from_dict({"experiment": "rigidity", key: value})


@pytest.mark.parametrize(
    "bad",
    [
        {"experiment": "rigidity", "threshold": -1.0},
        {"experiment": "rigidity", "smoothing_exponent": -1.0},
        {"experiment": "mde-compare", "n": 2},
        {"experiment": "ginibre", "master_seed": 2**64},
        {"experiment": "ginibre", "master_seed": -1},
        {"experiment": "rigidity", "threshold": float("nan")},
        {"experiment": "rigidity", "law_kind": "smoothed-rademacher", "smoothing_exponent": float("nan")},
        {"experiment": "logdet-identity", "z": complex(float("inf"), 0.0)},
        {"experiment": "logdet-identity", "z": complex(0.5, float("nan"))},
        {"experiment": "mde-compare", "n": 3, "xi": complex(float("nan"), 1.0)},
        {"experiment": "esd", "max_dense": 0},
    ],
)
def test_bad_values_are_config_errors_before_any_trial(tmp_path, bad):
    cfg = ExperimentConfig(**{"n": 3, "ell": 2, **bad})
    with pytest.raises(ConfigError):
        run(cfg)
    # every key of the file, the bad one as NaN, Infinity or an out-of-range number
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg.echo() | {"out": str(tmp_path / "r")}))
    assert main(["--config", str(cfg_path)]) == EXIT_CONFIG
    assert not (tmp_path / "r.json").exists()


def test_failed_trials_are_recorded_not_fatal(tmp_path):
    # dense cap below the matrix size fails every trial without aborting
    cfg = ExperimentConfig("logdet-identity", n=8, ell=8, trials=2, master_seed=1, max_dense=4)
    record = run(cfg)
    assert all(t.status == "failed" for t in record.trials)
    assert all(np.isnan(list(t.values.values())).all() for t in record.trials)
    assert record.aggregates["rel_error"]["count"] == 0


def test_mde_compare_records_a_root_off_the_upper_half_plane_as_a_failed_trial(tmp_path):
    """`solve_mc` reaches m = -1 at this xi, which passes `validate`: one failed trial, not an aborted run."""
    record = run(ExperimentConfig("mde-compare", n=4, ell=1, xi=complex(-1.05, 1e-300)))
    assert [t.status for t in record.trials] == ["failed"]
    assert "no admissible root" in record.trials[0].error
    argv = ["--experiment", "mde-compare", "--n", "4", "--ell", "1", "--xi-re", "-1.05", "--xi-im", "1e-300"]
    assert main(argv + ["--out", str(tmp_path / "mde")]) == EXIT_PARTIAL


def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "res"
    code = main(
        [
            "--experiment",
            "ginibre",
            "--n",
            "16",
            "--trials",
            "2",
            "--seed",
            "9",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    assert out.with_suffix(".csv").exists() and out.with_suffix(".json").exists()

    assert main(["--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    assert main([]) == EXIT_CONFIG
    cfg_path = tmp_path / "c.json"
    boolean = '{"experiment": "rigidity", "threshold": true}'
    for text in ("null", "5", json.dumps({"experiment": "ginibre", "n": 2.7}), boolean):
        cfg_path.write_text(text)
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "refused")]) == EXIT_CONFIG
    refused = [("--threshold", "nan"), ("--z-re", "inf"), ("--z-re", "nan"), ("--smoothing-exponent", "nan")]
    for flag, value in refused + [("--max-dense", "0")]:
        argv = ["--experiment", "rigidity", "--n", "4", "--ell", "3", flag, value]
        assert main(argv + ["--out", str(tmp_path / "refused")]) == EXIT_CONFIG
    assert not (tmp_path / "refused.json").exists()

    bad = tmp_path / "partial"
    code = main(
        [
            "--experiment",
            "logdet-identity",
            "--n",
            "8",
            "--ell",
            "8",
            "--trials",
            "1",
            "--max-dense",
            "4",
            "--out",
            str(bad),
        ]
    )
    assert code == EXIT_PARTIAL


def test_python_m_blocktri_runs_the_cli_without_warnings(tmp_path):
    out = tmp_path / "res"
    src = str(Path(blocktri.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "blocktri", "--experiment", "ginibre", "--n", "4", "--out", str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert out.with_suffix(".csv").exists() and out.with_suffix(".json").exists()
    assert "RuntimeWarning" not in proc.stderr


def test_main_with_config_file_and_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "experiment": "logdet-limit",
                "n": 6,
                "ell": 4,
                "z_re": 0.0,
                "z_im": 0.0,
                "trials": 2,
                "master_seed": 4,
                "out": str(tmp_path / "limit"),
            }
        )
    )
    assert main(["--config", str(cfg_path), "--trials", "3"]) == EXIT_OK
    parsed = json.loads((tmp_path / "limit.json").read_text())
    assert parsed["config"]["trials"] == 3
    assert len(parsed["trials"]) == 3


def _all_fields_set(tmp_path):
    cfg = ExperimentConfig(
        "rigidity",
        n=3,
        ell=2,
        z=0.25 - 0.5j,
        law_kind="smoothed-rademacher",
        smoothing_exponent=2.0,
        trials=2,
        master_seed=5,
        max_dense=64,
        out=str(tmp_path / "all"),
        xi=1.5 + 0.75j,
        threshold=0.3,
    )
    defaults = ExperimentConfig("esd")
    assert all(getattr(cfg, f.name) != getattr(defaults, f.name) for f in fields(cfg))
    return cfg


def test_config_round_trips_through_echo_and_flags(tmp_path):
    cfg = _all_fields_set(tmp_path)
    assert config_from_dict(cfg.echo() | {"out": cfg.out}) == cfg
    flags = [
        "--experiment", "rigidity", "--n", "3", "--ell", "2", "--z-re", "0.25", "--z-im", "-0.5",
        "--law", "smoothed-rademacher", "--smoothing-exponent", "2.0", "--trials", "2", "--seed", "5",
        "--max-dense", "64", "--out", cfg.out, "--xi-re", "1.5", "--xi-im", "0.75",
        "--threshold", "0.3",
    ]  # fmt: skip
    assert main(flags) == EXIT_OK
    assert json.loads((tmp_path / "all.json").read_text())["config"] == cfg.echo()


@pytest.mark.parametrize("flag, kept, set_key", [("--z-im", "z_re", "z_im"), ("--xi-im", "xi_re", "xi_im")])
def test_flag_overrides_only_its_own_part(tmp_path, flag, kept, set_key):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "part"
    cfg_path.write_text(json.dumps({"experiment": "mde-compare", "n": 3, "ell": 2, kept: 1.5, "out": str(out)}))
    assert main(["--config", str(cfg_path), flag, "0.5"]) == EXIT_OK
    echoed = json.loads(out.with_suffix(".json").read_text())["config"]
    assert (echoed[kept], echoed[set_key]) == (1.5, 0.5)
