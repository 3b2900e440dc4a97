"""Command-line surface: pipelines, exit codes, manifests, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from imvu import (ClipConfig, InterpolatedMechanism, accounting, load_mechanism, load_table,
                  save_mechanism)
from imvu.cli import build_parser, main
from imvu.table_io import FORMAT_VERSION

from conftest import LN3, non_anadromic_table, resized_document


def run(*argv):
    return main(list(argv))


def _env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _python(*argv):
    """Run a fresh interpreter on this checkout's package, output captured."""
    return subprocess.run([sys.executable, *argv], env=_env(), capture_output=True, text=True,
                          timeout=120)


def test_design_validate_account_pipeline(tmp_path, capsys):
    mech_path = str(tmp_path / "rr.json")
    assert run("design", "--bits", "1", "--b-in", "2", "--eps", repr(LN3),
               "--out", mech_path) == 0
    mech = load_mechanism(mech_path)
    np.testing.assert_allclose(mech.table.alphabet, [-0.5, 1.5], atol=1e-5)
    np.testing.assert_allclose(
        mech.table.probs, [[0.75, 0.25], [0.25, 0.75]], atol=1e-5
    )

    assert run("validate", "--mech", mech_path, "--tol", "1e-6") == 0

    report_path = str(tmp_path / "report.json")
    assert run("account", "--mech", mech_path, "--mode", "pure",
               "--clip-norm", "l1", "--clip-c", "1.0", "--beta", "1.0",
               "--rounds", "10", "--delta", "1e-5", "--out", report_path,
               "--attach") == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mode"] == "pure"
    assert report["eps_prime"] == pytest.approx(0.54931, abs=2e-4)
    assert report["composed"] == pytest.approx(10 * report["per_round"])

    # --attach wrote the constants back into the mechanism file
    attached = load_mechanism(mech_path)
    assert attached.eps_prime is not None


def test_manifest_written(tmp_path):
    mech_path = str(tmp_path / "t.json")
    argv = ["design", "--bits", "1", "--b-in", "2", "--eps", "1.0", "--out", mech_path]
    assert run(*argv) == 0
    manifest = json.loads((tmp_path / "t.json.manifest.json").read_text())
    assert manifest["command"] == ["imvu"] + argv
    assert "numpy" in manifest["versions"]
    assert manifest["outputs"] == [mech_path]
    assert "T" in manifest["timestamp"]  # ISO-8601


def test_account_rdp_requires_two_rows(tmp_path, capsys):
    mech_path = str(tmp_path / "wide.json")
    assert run("design", "--bits", "1", "--b-in", "4", "--eps", "1.0",
               "--out", mech_path) == 0
    code = run("account", "--mech", mech_path, "--mode", "rdp",
               "--clip-norm", "l2", "--clip-c", "1.0", "--rounds", "5")
    captured = capsys.readouterr()
    assert code == 1
    assert "b_in=2" in captured.err


def test_account_rdp_on_asymmetric_table_names_enforce_anadromic(tmp_path, capsys):
    mech_path = str(tmp_path / "t.json")
    save_mechanism(mech_path, InterpolatedMechanism(non_anadromic_table()))
    code = run("account", "--mech", mech_path, "--mode", "rdp",
               "--clip-norm", "l2", "--clip-c", "1.0", "--rounds", "5")
    captured = capsys.readouterr()
    assert code == 1
    assert "not anadromic" in captured.err
    assert "run enforce_anadromic on the table" in captured.err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_account_rdp_rejects_an_order_that_is_not_finite(tmp_path, capsys, bad):
    mech_path = str(tmp_path / "sym.json")
    assert run("design", "--bits", "1", "--b-in", "2", "--eps", "1.0", "--symmetrize",
               "--out", mech_path) == 0
    report = tmp_path / "report.json"
    code = run("account", "--mech", mech_path, "--mode", "rdp", "--clip-norm", "l2",
               "--clip-c", "1.0", "--rounds", "5", "--alphas", f"2,{bad}",
               "--out", str(report))
    assert code == 1
    assert "alphas" in capsys.readouterr().err
    assert not report.exists()


def test_validate_corrupted_file_exits_one(tmp_path, capsys):
    mech_path = tmp_path / "bad.json"
    assert run("design", "--bits", "1", "--b-in", "2", "--eps", "1.0",
               "--out", str(mech_path)) == 0
    doc = json.loads(mech_path.read_text())
    doc["log_probs"][0][0] += 0.3
    mech_path.write_text(json.dumps(doc))
    code = run("validate", "--mech", str(mech_path), "--tol", "1e-6")
    captured = capsys.readouterr()
    assert code == 1
    assert "invariant" in captured.err or "error" in captured.err


def test_validate_names_the_check_that_fails_and_where(tmp_path, capsys):
    # row 1's mean is off by 3e-7: within the 1e-6 a table is built at,
    # outside the 1e-8 it is validated at
    doc = {"format_version": 2, "b_in": 2, "b_out": 2, "metric": "l1", "design_eps": 1.2,
           "grid": [0.0, 1.0], "alphabet": [-0.5, 1.5 + 4e-7],
           "log_probs": np.log([[0.75, 0.25], [0.25, 0.75]]).tolist(),
           "accounting": {"eps_prime": None, "fisher_m": None, "beta": 1.0,
                          "clip_norm": "l2", "clip_c": 1.0}}
    mech_path = tmp_path / "m.json"
    mech_path.write_text(json.dumps(doc))
    assert run("validate", "--mech", str(mech_path)) == 0
    capsys.readouterr()
    assert run("validate", "--mech", str(mech_path), "--tol", "1e-8") == 1
    captured = capsys.readouterr()
    assert "unbiasedness: max violation 3.000e-07 [FAIL]" in captured.out
    assert captured.err == "error: check 'unbiasedness' failed at row 1\n"


@pytest.mark.parametrize("b_in, b_out", [(2, 2049), (2049, 2)])
def test_validate_rejects_a_table_over_the_cell_limit(tmp_path, capsys, b_in, b_out):
    # 4096 cells at most; the file is refused before the all-pairs check
    mech_path = tmp_path / "big.json"
    assert run("design", "--bits", "1", "--b-in", "2", "--eps", "1.0",
               "--out", str(mech_path)) == 0
    mech_path.write_text(json.dumps(resized_document(json.loads(mech_path.read_text()), b_in, b_out)))
    capsys.readouterr()
    assert run("validate", "--mech", str(mech_path)) == 1
    assert "limited to 4096" in capsys.readouterr().err


def test_validate_prints_the_five_table_checks(tmp_path, capsys):
    mech_path = str(tmp_path / "m.json")
    assert run("design", "--bits", "2", "--b-in", "3", "--eps", "2.0", "--out", mech_path) == 0
    capsys.readouterr()
    assert run("validate", "--mech", mech_path) == 0
    names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()[:-1]]
    assert names == ["alphabet_order", "metric_dp", "positivity", "simplex", "unbiasedness"]


def test_validate_names_grid_uniformity_of_a_bad_grid(tmp_path, capsys):
    mech_path = tmp_path / "m.json"
    assert run("design", "--bits", "1", "--b-in", "3", "--eps", "1.0",
               "--out", str(mech_path)) == 0
    doc = json.loads(mech_path.read_text())
    doc["grid"][1] += 1e-6
    mech_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("validate", "--mech", str(mech_path)) == 1
    assert "grid_uniformity" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_validate_rejects_a_tolerance_that_is_not_finite_and_non_negative(tmp_path, capsys, tol):
    mech_path = str(tmp_path / "rr.json")
    assert run("design", "--bits", "1", "--b-in", "2", "--eps", repr(LN3), "--out", mech_path) == 0
    capsys.readouterr()
    assert run("validate", "--mech", mech_path, "--tol", tol) == 1
    captured = capsys.readouterr()
    assert "tol" in captured.err
    assert "[FAIL]" not in captured.out and "[ok]" not in captured.out


@pytest.mark.parametrize("edit", ["top-level number", "null accounting"])
def test_validate_malformed_document_exits_one(tmp_path, capsys, edit):
    mech_path = tmp_path / "bad.json"
    assert run("design", "--bits", "1", "--b-in", "2", "--eps", "1.0",
               "--out", str(mech_path)) == 0
    doc = json.loads(mech_path.read_text())
    doc["accounting"] = None
    mech_path.write_text("5" if edit == "top-level number" else json.dumps(doc))
    capsys.readouterr()
    assert run("validate", "--mech", str(mech_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert ("JSON object" if edit == "top-level number" else "'accounting'") in err


def test_usage_errors_exit_two(capsys):
    assert run("design", "--no-such-flag") == 2
    assert run("no-such-command") == 2
    assert run() == 2
    assert run("--help") == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["sweep", "--eps", "1", "--bits", "1", "--b-in-list", "2,x"],
    ["sweep", "--eps", "1", "--bits", "1", "--b-in-list", ""],
    ["account", "--mode", "rdp", "--clip-norm", "l2", "--clip-c", "1", "--rounds", "1",
     "--alphas", "2,x"],
    ["account", "--mode", "rdp", "--clip-norm", "l2", "--clip-c", "1", "--rounds", "1",
     "--alphas", ""],
], ids=["b-in-list 2,x", "b-in-list empty", "alphas 2,x", "alphas empty"])
def test_malformed_list_flag_is_a_usage_error(tmp_path, capsys, argv):
    # an empty --alphas used the default orders; the other lists exited 1
    out = tmp_path / "out"
    mech = ["--mech", str(tmp_path / "m.json")] if argv[0] == "account" else []
    assert run(*argv, *mech, "--out", str(out)) == 2
    assert f"argument {argv[-2]}: invalid comma-separated" in capsys.readouterr().err
    assert not out.exists()


def test_account_rounds_beyond_float_range_exit_one_without_a_traceback(tmp_path):
    mech_path = str(tmp_path / "rr.json")
    assert run("design", "--bits", "1", "--b-in", "2", "--eps", "1.0", "--out", mech_path) == 0
    done = _python("-m", "imvu.cli", "account", "--mech", mech_path, "--mode", "pure",
                   "--clip-norm", "l1", "--clip-c", "1.0", "--rounds", "1" + "0" * 400)
    assert done.returncode == 1
    assert done.stderr.startswith("error: rounds must be non-negative and integral")
    assert "Traceback" not in done.stderr


def test_one_parser_serves_every_call_as_a_fresh_one_would(tmp_path, capsys):
    assert build_parser() is build_parser()
    mech_path = str(tmp_path / "m.json")
    calls = [
        ("design", "--bits", "1", "--b-in", "2", "--eps", "1.0", "--symmetrize",
         "--out", mech_path),
        ("design", "--bits", "1", "--no-such-flag"),
        ("account", "--mech", mech_path, "--mode", "rdp", "--clip-norm", "l2",
         "--clip-c", "1.0", "--rounds", "3"),
        ("validate", "--mech", mech_path),
        # the pure route under an l2 clip needs --c-sens
        ("account", "--mech", mech_path, "--mode", "pure", "--clip-norm", "l2",
         "--clip-c", "1.0", "--rounds", "3"),
    ]

    def outcomes(fresh):
        out = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            code = run(*argv)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    shared = outcomes(fresh=False)
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 1]
    assert outcomes(fresh=True) == shared


def test_sweep_csv(tmp_path):
    out = str(tmp_path / "sweep.csv")
    assert run("sweep", "--eps", "5.0", "--bits", "2", "--b-in-list", "2,4",
               "--out", out) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "mechanism,b_in,x,mean,bias,variance,laplace_ref"
    assert len(lines) == 1 + 2 * 2 * 201


def test_dme_command(tmp_path):
    out = str(tmp_path / "dme.csv")
    assert run("dme", "--mechanism", "gaussian", "--n-clients", "20", "--d", "4",
               "--trials", "3", "--noise", "1.0", "--seed", "3", "--out", out) == 0
    lines = (tmp_path / "dme.csv").read_text().strip().splitlines()
    assert lines[0] == "mechanism,n_clients,d,trials,mse,bits_per_coord"
    assert lines[1].startswith("gaussian,20,4,3,")


@pytest.mark.parametrize("mechanism", ["identity", "laplace"])
def test_dme_command_rejects_zero_width(tmp_path, capsys, mechanism):
    out = tmp_path / "dme.csv"
    assert run("dme", "--mechanism", mechanism, "--clip-norm", "l1", "--n-clients", "5",
               "--d", "0", "--noise", "1.0", "--out", str(out)) == 1
    assert "d must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mechanism, clip_norm",
                         [("laplace", "l1"), ("gaussian", "l2"), ("signsgd", "l2")])
def test_dme_baseline_without_noise_exits_one(tmp_path, capsys, mechanism, clip_norm):
    out = tmp_path / "dme.csv"
    assert run("dme", "--mechanism", mechanism, "--clip-norm", clip_norm, "--n-clients", "5",
               "--d", "4", "--trials", "1", "--out", str(out)) == 1
    assert "needs a positive, finite noise parameter" in capsys.readouterr().err
    assert not out.exists()


def test_cold_start_skips_scipy_optimize(tmp_path):
    """``import imvu.cli`` leaves scipy.optimize and importlib.metadata
    unimported; a design imports scipy.optimize on its first LP, and the
    manifest still records scipy's version."""
    script = ("import sys\n"
              "import imvu.cli\n"
              "assert 'scipy.optimize' not in sys.modules\n"
              "assert 'importlib.metadata' not in sys.modules\n"
              "sys.exit(imvu.cli.main(sys.argv[1:]))\n")
    done = _python("-c", script, "design", "--bits", "1", "--b-in", "2",
                   "--eps", "1.0", "--out", str(tmp_path / "m.json"))
    assert done.returncode == 0, done.stderr[-2000:]
    manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
    assert manifest["versions"]["scipy"] == scipy.__version__


def _readme_commands() -> list[list[str]]:
    """The commands of the README's "Command line" block, continuations joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [line.split() for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_commands_run_as_written(tmp_path):
    commands = _readme_commands()
    assert [argv[:2] for argv in commands] == [
        ["imvu", name] for name in ("design", "validate", "account", "sweep", "dme", "train")]
    for argv in commands:
        done = subprocess.run([sys.executable, "-m", "imvu.cli", *argv[1:]], cwd=tmp_path,
                              env=_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (argv, done.stderr[-2000:])


def test_design_prints_only_its_own_line(tmp_path):
    # HiGHS writes a banner to the process's stdout when it gets its options
    # after the model; one design solves many LPs on one model
    mech_path = str(tmp_path / "m.json")
    done = _python("-m", "imvu.cli", "design", "--bits", "2", "--b-in", "4",
                   "--eps", "2.0", "--out", mech_path)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == f"designed 4x4 table (eps=2.0) -> {mech_path}\n"


def test_train_command_and_replay(tmp_path):
    out = str(tmp_path / "train.csv")
    argv = ["train", "--mechanism", "identity", "--rounds", "4", "--cohort", "20",
            "--d", "6", "--n", "80", "--seed", "11", "--out", out]
    assert run(*argv) == 0
    first = (tmp_path / "train.csv").read_text()
    lines = first.strip().splitlines()
    assert lines[0] == "round,accuracy,eps"
    assert len(lines) == 5

    # a run is reproducible from its manifest alone
    manifest = json.loads((tmp_path / "train.csv.manifest.json").read_text())
    assert run(*manifest["command"][1:]) == 0
    assert (tmp_path / "train.csv").read_text() == first


def test_train_rejects_a_negative_server_step(tmp_path, capsys):
    out = tmp_path / "train.csv"
    assert run("train", "--mechanism", "identity", "--rounds", "2", "--cohort", "5",
               "--d", "4", "--n", "40", "--server-lr-scale", "-1", "--out", str(out)) == 1
    assert "server_lr_scale" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    # 8e17 bytes per array: more than any 64-bit address space maps, so the
    # allocation fails at once whatever the machine's overcommit setting
    (["train", "--rounds", str(10**17)], "rounds"),
    (["dme", "--d", str(10**15)], None),
], ids=["train-rounds", "dme-d"])
def test_run_too_large_to_allocate_exits_one_without_a_traceback(tmp_path, capsys, argv, named):
    out = tmp_path / "run.csv"
    assert run(*argv, "--mechanism", "identity", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert named is None or named in err
    assert not out.exists()


def test_train_imvu_via_files(tmp_path):
    mech_path = str(tmp_path / "m.json")
    out = str(tmp_path / "train.csv")
    assert run("design", "--bits", "1", "--b-in", "2", "--eps", "2.0", "--out", mech_path) == 0
    assert run("account", "--mech", mech_path, "--mode", "pure",
               "--clip-norm", "l1", "--clip-c", "1.0", "--rounds", "1",
               "--out", str(tmp_path / "r.json"), "--attach") == 0
    assert run("train", "--mechanism", "imvu", "--mech", mech_path,
               "--rounds", "2", "--cohort", "10", "--d", "4", "--n", "40",
               "--out", out) == 0
    lines = (tmp_path / "train.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    eps_col = [float(line.split(",")[2]) for line in lines[1:]]
    assert eps_col[1] == pytest.approx(2 * eps_col[0])


def _train_outputs(tmp_path, name, *argv):
    """The CSV and summary bytes of an ``imvu train`` run written under ``name``."""
    out = tmp_path / f"{name}.csv"
    assert run("train", *argv, "--out", str(out)) == 0
    return out.read_bytes(), out.with_suffix(".summary.json").read_bytes()


def test_train_imvu_on_a_design_only_file_matches_the_attached_run(tmp_path):
    # train certifies its own constants, so attaching them first changes nothing
    mech_path = str(tmp_path / "m.json")
    assert run("design", "--bits", "2", "--b-in", "2", "--eps", "2.0", "--symmetrize",
               "--out", mech_path) == 0
    argv = ["--mechanism", "imvu", "--mech", mech_path, "--clip-norm", "l2",
            "--rounds", "30", "--cohort", "10", "--d", "4", "--n", "40", "--seed", "3"]
    design_only = _train_outputs(tmp_path, "design_only", *argv)
    assert run("account", "--mech", mech_path, "--mode", "rdp", "--clip-norm", "l2",
               "--clip-c", "1.0", "--rounds", "1", "--attach") == 0
    assert json.loads(Path(mech_path).read_text())["accounting"]["fisher_m"] is not None
    assert _train_outputs(tmp_path, "attached", *argv) == design_only


@pytest.mark.parametrize("norm, read, unread", [("l1", "_eps_prime_impl", "fisher_sup"),
                                                ("l2", "fisher_sup", "_eps_prime_impl")])
def test_train_imvu_certifies_only_the_constant_its_ledger_reads(tmp_path, monkeypatch,
                                                                 norm, read, unread):
    # eps' under an l1 clip, M under an l2 clip: the other is never computed,
    # so its certification cannot fail the run
    mech_path = str(tmp_path / "m.json")
    assert run("design", "--bits", "2", "--b-in", "2", "--eps", "2.0", "--symmetrize",
               "--out", mech_path) == 0
    calls = {read: 0, unread: 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(accounting, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(accounting, name, counted)
    _train_outputs(tmp_path, "train", "--mechanism", "imvu", "--mech", mech_path,
                   "--clip-norm", norm, "--rounds", "3", "--cohort", "10", "--d", "4",
                   "--n", "40")
    assert calls == {read: 1, unread: 0}


@pytest.mark.parametrize("table, named", [("4x4", "b_in=2"), ("non-anadromic", "not anadromic")])
def test_train_imvu_l2_without_a_fisher_route_exits_one_naming_why(tmp_path, capsys,
                                                                  table, named):
    # the message named attach_accounting, which a CLI user never calls
    mech_path = str(tmp_path / "m.json")
    if table == "4x4":
        assert run("design", "--bits", "2", "--b-in", "4", "--eps", "2.0",
                   "--out", mech_path) == 0
    else:
        save_mechanism(mech_path, InterpolatedMechanism(non_anadromic_table()))
    out = tmp_path / "train.csv"
    assert run("train", "--mechanism", "imvu", "--mech", mech_path, "--clip-norm", "l2",
               "--rounds", "2", "--cohort", "5", "--d", "4", "--n", "40",
               "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


def test_train_imvu_takes_beta_and_clip_from_its_flags(tmp_path):
    mech_path = str(tmp_path / "m.json")
    assert run("design", "--bits", "1", "--b-in", "2", "--eps", "2.0", "--out", mech_path) == 0
    assert run("account", "--mech", mech_path, "--mode", "pure", "--clip-norm", "l1",
               "--clip-c", "1.0", "--beta", "1.0", "--rounds", "1", "--attach") == 0
    csv, _ = _train_outputs(tmp_path, "train", "--mechanism", "imvu", "--mech", mech_path,
                            "--beta", "2", "--clip-c", "0.5", "--rounds", "3",
                            "--cohort", "10", "--d", "4", "--n", "40")
    mech = accounting.attach_accounting(InterpolatedMechanism(
        load_table(mech_path), beta=2.0, clip=ClipConfig("l1", 0.5)))
    ledger = accounting.imvu_ledger(mech, "pure", 2.0)
    eps_col = [float(line.split(",")[2]) for line in csv.decode().splitlines()[1:]]
    assert eps_col == [accounting.spent_epsilon(ledger, t) for t in (1, 2, 3)]


def test_train_imvu_reads_a_version_1_file(tmp_path):
    mech_path = tmp_path / "m.json"
    assert run("design", "--bits", "1", "--b-in", "2", "--eps", "2.0",
               "--out", str(mech_path)) == 0
    argv = ["--mechanism", "imvu", "--mech", str(mech_path), "--rounds", "2",
            "--cohort", "10", "--d", "4", "--n", "40"]
    current = _train_outputs(tmp_path, "v2", *argv)
    doc = json.loads(mech_path.read_text())
    doc["format_version"] = 1
    mech_path.write_text(json.dumps(doc))
    assert _train_outputs(tmp_path, "v1", *argv) == current


def test_only_validate_reads_a_file_stored_configuration(tmp_path, capsys):
    mech_path = _edited_design(tmp_path, lambda doc: None,
                               "--bits", "2", "--eps", "2.0", "--symmetrize")
    assert run("account", "--mech", mech_path, "--mode", "pure", "--clip-norm", "l1",
               "--clip-c", "1.0", "--rounds", "1", "--attach") == 0
    runs = {
        "report.json": ["account", "--mech", mech_path, "--mode", "pure", "--clip-norm", "l1",
                        "--clip-c", "1.0", "--rounds", "5"],
        "dme.csv": ["dme", "--mechanism", "imvu", "--mech", mech_path, "--clip-norm", "l1",
                    "--n-clients", "4", "--d", "3", "--trials", "1"],
        "train.csv": ["train", "--mechanism", "imvu", "--mech", mech_path, "--rounds", "3",
                      "--cohort", "5", "--d", "4", "--n", "40"],
    }

    def outputs(directory):
        directory.mkdir()
        for name, argv in runs.items():
            assert run(*argv, "--out", str(directory / name)) == 0
        return {path.name: path.read_bytes() for path in directory.iterdir()
                if not path.name.endswith(".manifest.json")}

    clean = outputs(tmp_path / "clean")
    assert len(clean) == 4   # the train summary too
    doc = json.loads(Path(mech_path).read_text())
    doc["accounting"].update(eps_prime=0.125, beta=3.0, clip_norm="l2", clip_c=7.0)
    Path(mech_path).write_text(json.dumps(doc))
    assert outputs(tmp_path / "corrupt") == clean
    capsys.readouterr()
    assert run("validate", "--mech", mech_path) == 1
    assert "stored eps_prime 0.125" in capsys.readouterr().err


def test_design_takes_no_configuration_flags(tmp_path, capsys):
    mech_path = tmp_path / "m.json"
    assert run("design", "--bits", "1", "--b-in", "2", "--eps", "1.0", "--beta", "1.0",
               "--out", str(mech_path)) == 2
    assert not mech_path.exists()
    assert run("design", "--help") == 0
    usage = capsys.readouterr().out
    assert not any(flag in usage for flag in ("--beta", "--clip-norm", "--clip-c"))
    assert run("design", "--bits", "1", "--b-in", "2", "--eps", "1.0",
               "--out", str(mech_path)) == 0
    assert json.loads(mech_path.read_text())["accounting"] == {
        "eps_prime": None, "fisher_m": None, "beta": 1.0, "clip_norm": "l2", "clip_c": 1.0}


@pytest.mark.parametrize("mode, certifier", [("rdp", "fisher_sup"), ("pure", "_eps_prime_impl")])
def test_account_attach_certifies_each_constant_once(tmp_path, monkeypatch, mode, certifier):
    mech_path = str(tmp_path / "m.json")
    assert run("design", "--bits", "2", "--b-in", "2", "--eps", "1.0", "--symmetrize",
               "--out", mech_path) == 0
    fresh = accounting.attach_accounting(load_mechanism(mech_path))
    calls = []
    original = getattr(accounting, certifier)

    def counting(*args, **kwargs):
        calls.append(certifier)
        return original(*args, **kwargs)

    monkeypatch.setattr(accounting, certifier, counting)
    # the pure route charges l1 sensitivity, so its default needs an l1 clip
    clip_norm = "l1" if mode == "pure" else "l2"
    assert run("account", "--mech", mech_path, "--mode", mode, "--clip-norm", clip_norm,
               "--clip-c", "1.0", "--rounds", "7", "--attach",
               "--out", str(tmp_path / "r.json")) == 0
    assert len(calls) == 1
    # the attached constants are those a fresh certification gives
    attached = json.loads(Path(mech_path).read_text())["accounting"]
    assert (attached["eps_prime"], attached["fisher_m"]) == (fresh.eps_prime, fresh.fisher_m)
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["eps_prime" if mode == "pure" else "fisher_m"] == (
        fresh.eps_prime if mode == "pure" else fresh.fisher_m)


def test_account_pure_under_l2_clip_needs_c_sens(tmp_path, capsys):
    mech_path = str(tmp_path / "m.json")
    assert run("design", "--bits", "1", "--b-in", "2", "--eps", "1.0", "--out", mech_path) == 0
    argv = ["account", "--mech", mech_path, "--mode", "pure", "--clip-norm", "l2",
            "--clip-c", "1.0", "--beta", "2.0", "--rounds", "3"]
    assert run(*argv) == 1
    assert "--c-sens" in capsys.readouterr().err
    # two clipped 4-vectors can differ by beta * sqrt(4) = 4 in l1
    assert run(*argv, "--c-sens", "4.0") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["c_sens"] == 4.0
    assert report["per_round"] == pytest.approx(4.0 * (1.0 + report["eps_prime"]))


def test_csv_outputs_share_one_line_ending(tmp_path):
    outs = [str(tmp_path / name) for name in ("dme.csv", "train.csv", "sweep.csv")]
    assert run("dme", "--mechanism", "gaussian", "--n-clients", "5", "--d", "4",
               "--trials", "2", "--noise", "1.0", "--out", outs[0]) == 0
    assert run("train", "--mechanism", "identity", "--rounds", "2", "--cohort", "5",
               "--d", "3", "--n", "20", "--out", outs[1]) == 0
    assert run("sweep", "--eps", "1.0", "--bits", "1", "--b-in-list", "2",
               "--out", outs[2]) == 0
    for out in outs:
        data = (tmp_path / out).read_bytes()
        assert data.count(b"\n") == data.count(b"\r\n") >= 2, out


@pytest.mark.parametrize("command", ["dme", "train"])
def test_imvu_without_mechanism_file_is_a_usage_error(tmp_path, capsys, command):
    assert run(command, "--mechanism", "imvu", "--out", str(tmp_path / "o.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: imvu " + command) and "--mech" in err
    assert not (tmp_path / "o.csv").exists()


def test_validate_missing_file_exits_one(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert run("validate", "--mech", missing) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.json" in err


@pytest.mark.parametrize("mode, clip_norm", [("rdp", "l2"), ("pure", "l1")])
def test_account_attaches_version_1_file_in_place(tmp_path, capsys, mode, clip_norm):
    mech_path = tmp_path / "m.json"
    assert run("design", "--bits", "2", "--b-in", "2", "--eps", "1.0", "--symmetrize",
               "--out", str(mech_path)) == 0
    attached = accounting.attach_accounting(load_mechanism(mech_path))
    doc = json.loads(mech_path.read_text())
    # a version 1 file: the same table with older, larger constants
    doc["format_version"] = 1
    doc["accounting"].update(eps_prime=attached.eps_prime + 0.01,
                             fisher_m=attached.fisher_m + 0.01)
    mech_path.write_text(json.dumps(doc))
    assert run("validate", "--mech", str(mech_path)) == 1
    assert "format_version" in capsys.readouterr().err

    assert run("account", "--mech", str(mech_path), "--mode", mode, "--clip-norm", clip_norm,
               "--clip-c", "1.0", "--rounds", "3", "--attach",
               "--out", str(tmp_path / "r.json")) == 0
    assert json.loads(mech_path.read_text())["format_version"] == FORMAT_VERSION
    reattached = load_mechanism(mech_path)   # verifies the new constants
    if mode == "rdp":
        assert reattached.fisher_m == attached.fisher_m
    else:
        assert reattached.eps_prime == attached.eps_prime


@pytest.mark.parametrize("mode, clip_norm", [("rdp", "l2"), ("pure", "l1")])
def test_account_attach_without_out_prints_one_json_document(tmp_path, capsys, mode, clip_norm):
    mech_path = str(tmp_path / "m.json")
    assert run("design", "--bits", "1", "--b-in", "2", "--eps", repr(LN3), "--out", mech_path) == 0
    capsys.readouterr()
    assert run("account", "--mech", mech_path, "--mode", mode, "--clip-norm", clip_norm,
               "--clip-c", "1.0", "--rounds", "3", "--attach") == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["mode"] == mode
    assert err == f"constants attached -> {mech_path}\n"


def test_account_reattach_does_not_certify_stored_constants(tmp_path, monkeypatch):
    mech_path = str(tmp_path / "m.json")
    assert run("design", "--bits", "2", "--b-in", "2", "--eps", "1.0", "--symmetrize",
               "--out", mech_path) == 0
    argv = ["account", "--mech", mech_path, "--mode", "rdp", "--clip-norm", "l2",
            "--clip-c", "1.0", "--rounds", "3", "--attach", "--out", str(tmp_path / "r.json")]
    assert run(*argv) == 0
    calls = []
    original = accounting.fisher_sup

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(accounting, "fisher_sup", counting)
    assert run(*argv) == 0
    assert len(calls) == 1


def _edited_design(tmp_path, edit, *design_args):
    """A designed 2-row mechanism file after ``edit`` changed its document."""
    mech_path = tmp_path / "m.json"
    assert run("design", "--b-in", "2", "--out", str(mech_path), *design_args) == 0
    doc = json.loads(mech_path.read_text())
    edit(doc)
    mech_path.write_text(json.dumps(doc))
    return str(mech_path)


@pytest.mark.parametrize("command", ["validate", "dme"])
def test_letter_that_is_not_a_number_fails_at_load(tmp_path, capsys, command):
    def drop_letter(doc):
        doc["alphabet"][3] = None   # json's null; numpy reads it as NaN

    mech_path = _edited_design(tmp_path, drop_letter, "--bits", "4", "--eps", "2.0")
    out = tmp_path / "dme.csv"
    argv = {"validate": ["validate", "--mech", mech_path],
            "dme": ["dme", "--mechanism", "imvu", "--mech", mech_path, "--n-clients", "4",
                    "--d", "3", "--trials", "1", "--out", str(out)]}[command]
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'alphabet_order'" in err and "letter 3" in err
    assert not out.exists()


_ACCOUNT = ["account", "--mode", "pure", "--clip-norm", "l1", "--clip-c", "1.0", "--rounds", "1"]


# account reads only the table, so only the table's fields reach it
@pytest.mark.parametrize("command, field, value", [
    *[("validate", field, value) for field, value in (
        ("beta", None), ("clip_c", None), ("eps_prime", [1]), ("b_in", None), ("b_in", [2]),
        ("b_in", 3.7), ("design_eps", None), ("design_eps", True))],
    ("account", "b_in", None), ("account", "b_out", 2.5), ("account", "design_eps", "1"),
    pytest.param("account", "design_eps", 10**400, id="account-design_eps-10**400"),
])
def test_mistyped_field_exits_one_naming_it(tmp_path, command, field, value):
    def edit(doc):
        (doc["accounting"] if field in doc["accounting"] else doc)[field] = value

    mech_path = _edited_design(tmp_path, edit, "--bits", "1", "--eps", "1.0")
    argv = ["validate"] if command == "validate" else _ACCOUNT
    done = _python("-m", "imvu.cli", *argv, "--mech", mech_path)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and f"field '{field}'" in done.stderr
    assert "Traceback" not in done.stderr


def test_dme_certifies_no_stored_constant(tmp_path, monkeypatch):
    # the run's beta and clip replace the file's, so its constants go unused
    mech_path = _edited_design(tmp_path, lambda doc: None,
                               "--bits", "4", "--eps", "2.0", "--symmetrize")
    assert run("account", "--mech", mech_path, "--mode", "rdp", "--clip-norm", "l2",
               "--clip-c", "1.0", "--rounds", "1", "--attach") == 0
    stored = json.loads(Path(mech_path).read_text())["accounting"]
    assert stored["eps_prime"] is not None and stored["fisher_m"] is not None
    calls = []
    original = accounting._certify

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(accounting, "_certify", counting)
    assert run("dme", "--mechanism", "imvu", "--mech", mech_path, "--n-clients", "4",
               "--d", "3", "--trials", "1", "--out", str(tmp_path / "dme.csv")) == 0
    assert calls == []
