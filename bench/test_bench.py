"""Tests of the benchmark itself: ``python -m pytest bench``.

Every workload runs end to end at a reduced size, plain and traced, and
each correctness check is shown to fail on an output broken the way that
check is meant to catch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from imvu import (  # noqa: E402
    ClipConfig,
    DesignSpec,
    InterpolatedMechanism,
    attach_accounting,
    design_mvu,
    dme_mse,
    save_mechanism,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=600,
    )
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_checks_pass(workload):
    result = _result(_run("--workload", workload, "--seed", "5", "--seconds", "1",
                          "--trace", "0", "--quick"))
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_keeps_outputs(workload):
    proc = _run("--workload", workload, "--seed", "6", "--seconds", "1", "--trace", "1", "--quick")
    result = _result(proc)
    # correct covers trace_output_identical: the traced pass wrote the same files
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert (BENCH / "out" / f"trace-{workload}-s6.json").is_file()


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """A pure-accounted 4x4 table and an RDP-accounted two-row table, parsed."""
    directory = tmp_path_factory.mktemp("tables")
    out = {}
    for name, spec, norm in (
        ("t4x4", DesignSpec(4, 4, 2.0), "l1"),
        ("t2x4", DesignSpec(2, 4, 2.0, symmetrize=True), "l2"),
    ):
        mech = attach_accounting(InterpolatedMechanism(design_mvu(spec), clip=ClipConfig(norm, 1.0)))
        save_mechanism(directory / f"{name}.json", mech)
        out[name] = checks.load_table(directory / f"{name}.json")
    return out


def test_checks_pass_on_program_output(tables):
    t = tables["t4x4"]
    for check in (checks.check_rows, checks.check_unbiased, checks.check_metric_dp,
                  checks.check_eps_prime):
        assert check(t)[0], check.__name__
    assert checks.check_max_divergence(t, np.random.default_rng(0))[0]
    assert checks.check_fisher(tables["t2x4"])[0]


def test_shifted_row_mass_fails_unbiasedness(tables):
    t = dict(tables["t4x4"])
    probs = np.exp(t["log_probs"])
    probs[1, 0] -= 1e-3
    probs[1, -1] += 1e-3           # rows still sum to 1; the mean moves
    t["log_probs"] = np.log(probs)
    assert checks.check_rows(t)[0]
    assert not checks.check_unbiased(t)[0]


def test_lowered_eps_prime_fails(tables):
    t = dict(tables["t4x4"], eps_prime=0.9 * tables["t4x4"]["eps_prime"])
    assert not checks.check_eps_prime(t)[0]


def test_fisher_m_below_grid_maximum_fails(tables):
    t = tables["t2x4"]
    below = dict(t, fisher_m=checks.fisher_grid_max(t) * (1.0 - 1e-6))
    assert not checks.check_fisher(below)[0]


def test_rr_closed_form_rejects_another_epsilon():
    rr = design_mvu(DesignSpec(2, 2, float(np.log(3.0))))
    t = {"eps": float(np.log(3.0)), "alphabet": rr.alphabet, "log_probs": rr.log_probs}
    assert checks.check_rr_closed_form(t)[0]
    assert not checks.check_rr_closed_form(dict(t, eps=1.2))[0]


def test_mse_check_rejects_a_wrong_mse(tmp_path):
    mech = InterpolatedMechanism(design_mvu(DesignSpec(4, 4, 2.0)), clip=ClipConfig("l2", 1.0))
    save_mechanism(tmp_path / "t.json", mech)
    t = checks.load_table(tmp_path / "t.json")
    rng = np.random.default_rng(3)
    u = rng.normal(0.0, 2.0 / np.sqrt(20_000), size=(3, 20_000))
    mse, _ = dme_mse(3, 20_000, lambda r, n, d: u, "imvu", mech, rng)
    expected, stderr = checks.expected_dme_error(t, "l2", u)
    assert checks.check_dme_mse(mse, expected, stderr)[0]
    assert not checks.check_dme_mse(1.15 * mse, expected, stderr)[0]


def test_spent_check_rejects_a_ledger_off_by_one_round():
    own = checks.rdp_spent(1.2, 1.0, 50, 1e-5, (2.0, 4.0, 8.0))
    assert checks.check_spent(own.copy(), own)[0]
    assert not checks.check_spent(np.concatenate([own[1:], own[-1:]]), own)[0]


def test_tracer_restores_the_program():
    import tracing
    from imvu import fl

    original = fl.privatize_vector
    tracer = tracing.Tracer()
    tracer.install()
    assert fl.privatize_vector is not original
    tracer.uninstall()
    assert fl.privatize_vector is original


def test_table_steps_are_scaled_to_the_reference_speed(tmp_path, monkeypatch):
    import speed
    import workloads

    monkeypatch.setattr(speed, "factor", lambda: 2.0)
    p = workloads.make("certify-rdp", quick=True).run(tmp_path, 1)
    assert p.speed == [2.0] * (len(p.ops) + 1)
    assert [s for _, s in p.steps] == pytest.approx([op.seconds / 2.0 for op in p.ops])
