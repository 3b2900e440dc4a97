"""The benchmark's workloads.

Each workload is a closed loop in one process: one pass runs a fixed list
of operations one after another, and a run repeats whole passes.  A pass
has a timed part (``run``) and an untimed part (``check``) that verifies
the outputs with the computations in ``checks``.  The program is driven
the way its users drive it: through ``imvu.cli.main`` for tables, and
through ``dme_mse`` and ``train_fl`` for the harnesses.  Functions are
called through their module attributes so the tracer's probes see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import speed
from imvu import accounting, cli, designer, dme, fl, mechanism, table_io
from imvu import rng as imvu_rng

ALPHAS = (1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 16.0, 32.0, 64.0)
DELTA = 1e-5
FL_ACCURACY_FLOOR = 0.8
LN3 = math.log(3.0)


@dataclass
class Op:
    kind: str
    seconds: float
    ok: bool
    detail: str = ""


@dataclass
class Pass:
    """What one pass did: its timed seconds, operations and raw outputs."""

    seconds: float
    ops: list[Op]
    steps: list[tuple[str, float]]   # (step name, seconds) in pass order
    data: dict = field(default_factory=dict)
    msgs: int = 0
    coords: int = 0
    round_s: list[float] = field(default_factory=list)
    outputs: object = None      # compared between an untraced and a traced pass
    speed: list[float] = field(default_factory=list)   # speed.factor() probes, if any


def pass_seed(seed: int, k: int) -> int:
    """Seed of pass k of a run with the given seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


@contextlib.contextmanager
def _cwd(path: Path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def run_cli(kind: str, argv: list[str]) -> Op:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return Op(kind, time.perf_counter() - start, code == 0, err.getvalue().strip())


def _snapshot(directory: Path) -> dict:
    """File contents of a pass directory; manifests lose only their timestamp."""
    files = {}
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            doc = json.loads(data)
            doc.pop("timestamp", None)
            data = json.dumps(doc, sort_keys=True).encode()
        files[path.name] = data
    return files


class TablePipeline:
    """``imvu design`` -> ``imvu account --attach`` -> ``imvu validate`` per spec.

    ``specs`` are (b_in, bits, eps).  The seed picks the ``--rounds`` of
    each accounting report, the sampled input pairs of the max-divergence
    check and the offset of the Fisher grid.
    """

    def __init__(self, specs, symmetrize: bool, mode: str, clip_norm: str):
        self.specs = specs
        self.symmetrize = symmetrize
        self.mode = mode
        self.clip_norm = clip_norm

    def setup(self, workdir: Path) -> None:
        """Nothing to prepare: every table is designed inside the pass."""

    def setup_checks(self) -> dict:
        return {}

    def run(self, pass_dir: Path, seed: int) -> Pass:
        rounds = int(np.random.default_rng(seed).integers(10, 1000))
        calls = []
        for b_in, bits, eps in self.specs:
            out = f"t{b_in}x{2**bits}.json"
            design = ["design", "--bits", str(bits), "--b-in", str(b_in),
                      "--eps", repr(eps), "--out", out]
            if self.symmetrize:
                design.append("--symmetrize")
            calls.append(design)
            calls.append([
                "account", "--mech", out, "--mode", self.mode,
                "--clip-norm", self.clip_norm, "--clip-c", "1.0",
                "--rounds", str(rounds), "--attach", "--out", out + ".account.json",
            ])
            calls.append(["validate", "--mech", out])
        ops, factors = [], [speed.factor()]
        with _cwd(pass_dir):
            for argv in calls:
                ops.append(run_cli(argv[0], argv))
                factors.append(speed.factor())
        # each call at the reference speed: its time over the mean factor of
        # the probes just before and just after it
        steps = [(f"{op.kind} of spec {n // 3}", op.seconds * 2.0 / (a + b))
                 for n, (op, a, b) in enumerate(zip(ops, factors, factors[1:]))]
        return Pass(sum(op.seconds for op in ops), ops, steps,
                    data={"dir": pass_dir, "seed": seed}, outputs=_snapshot(pass_dir),
                    speed=factors)

    def check(self, p: Pass) -> dict:
        rng = np.random.default_rng(p.data["seed"] + 1)
        offset = float(rng.random())
        out = {}
        for n, (b_in, bits, eps) in enumerate(self.specs):
            design, account, validate = p.ops[3 * n : 3 * n + 3]
            name = f"t{b_in}x{2**bits}"
            out[f"{name}:design_ok"] = (design.ok, design.detail)
            if not design.ok:
                continue
            table = checks.load_table(p.data["dir"] / f"{name}.json")
            out[f"{name}:rows"] = checks.check_rows(table)
            out[f"{name}:unbiased"] = checks.check_unbiased(table)
            out[f"{name}:metric_dp"] = checks.check_metric_dp(table)
            if bits == 1:
                out[f"{name}:rr_closed_form"] = checks.check_rr_closed_form(table)
            out[f"{name}:validate_ok"] = (validate.ok, validate.detail)
            out[f"{name}:account_ok"] = (account.ok, account.detail)
            if not account.ok:
                continue
            out[f"{name}:eps_prime"] = checks.check_eps_prime(table)
            out[f"{name}:max_divergence"] = checks.check_max_divergence(table, rng)
            if table["fisher_m"] is not None or self.mode == "rdp":
                out[f"{name}:fisher_m"] = checks.check_fisher(table, offset)
        return out

    def stage_seconds(self, p: Pass) -> dict:
        totals = {"design_s": 0.0, "account_s": 0.0, "validate_s": 0.0}
        for op in p.ops:
            totals[f"{op.kind}_s"] += op.seconds
        return totals


class DmeWide:
    """``dme_mse`` with imvu on vectors far wider than ``COORD_CHUNK``."""

    def __init__(self, clients: int, dim: int, trials: int):
        self.clients, self.dim, self.trials = clients, dim, trials

    def setup(self, workdir: Path) -> None:
        table = designer.design_mvu(designer.DesignSpec(b_in=8, b_out=8, eps=4.0))
        mech = mechanism.InterpolatedMechanism(
            table, beta=1.0, clip=mechanism.ClipConfig("l2", 1.0))
        path = workdir / "dme8x8.json"
        table_io.save_mechanism(path, mech)
        self.mech = mech
        self.table = checks.load_table(path)

    def setup_checks(self) -> dict:
        return {"dme8x8:unbiased": checks.check_unbiased(self.table),
                "dme8x8:metric_dp": checks.check_metric_dp(self.table)}

    def run(self, pass_dir: Path, seed: int) -> Pass:
        drawn, stamps = [], []

        def inputs(rng, n, d):
            # dme_mse draws the inputs first thing in every trial
            stamps.append(time.perf_counter())
            # per-coordinate scale 2/sqrt(d): every vector has l2 norm near 2,
            # so the unit-ball clip always acts
            u = rng.normal(0.0, 2.0 / math.sqrt(d), size=(n, d))
            drawn.append(u)
            return u

        start = time.perf_counter()
        mse, bits = dme.dme_mse(self.clients, self.dim, inputs, "imvu", self.mech,
                                np.random.default_rng(seed), trials=self.trials)
        seconds = time.perf_counter() - start
        # every trial does the same work: clients x dim coordinates
        bounds = stamps + [start + seconds]
        steps = [("call", stamps[0] - start)] + [("trial", b - a) for a, b in zip(bounds, bounds[1:])]
        msgs = self.clients * self.trials
        return Pass(seconds, [Op("dme_mse", seconds, True)], steps,
                    data={"drawn": drawn, "mse": mse, "bits": bits, "seed": seed},
                    msgs=msgs, coords=msgs * self.dim, outputs=(mse, bits))

    def check(self, p: Pass) -> dict:
        expected, variance = 0.0, 0.0
        for u in p.data["drawn"]:
            mean, stderr = checks.expected_dme_error(self.table, "l2", u)
            expected += mean / len(p.data["drawn"])
            variance += stderr**2 / len(p.data["drawn"]) ** 2
        out = {
            "trials_drawn": (len(p.data["drawn"]) == self.trials,
                             f"{len(p.data['drawn'])} input draws"),
            "bits": (p.data["bits"] == 3, f"{p.data['bits']} bits per coordinate"),
            "mse": checks.check_dme_mse(p.data["mse"], expected, math.sqrt(variance)),
        }
        out.update(self._replay(p.data["drawn"][0][0], p.data["seed"]))
        return out

    def _replay(self, u: np.ndarray, seed: int) -> dict:
        """Indices are in range, decode correctly, and a chunk-aligned split
        reproduces the single-call indices."""
        rng = np.random.default_rng(seed + 2)
        key = int(rng.integers(2**62))
        chunk = imvu_rng.COORD_CHUNK
        cut = chunk * int(rng.integers(1, -(-self.dim // chunk)))
        idx, decoded = mechanism.privatize_vector(self.mech, u, key)
        left, _ = mechanism.privatize_vector(self.mech, u, key, (0, cut))
        right, _ = mechanism.privatize_vector(self.mech, u, key, (cut, self.dim))
        letters = 2.0 * (self.table["alphabet"] - 0.5)   # clip_c = beta = 1
        in_range = bool(np.all((idx >= 0) & (idx < self.table["b_out"])))
        return {
            "indices_in_range": (in_range, f"min {idx.min()}, max {idx.max()}"),
            "decode": (bool(np.allclose(decoded, letters[idx], rtol=0, atol=1e-12)),
                       "decoded values against 2C/beta (a - 1/2)"),
            "split_replay": (bool(np.array_equal(np.concatenate([left, right]), idx)),
                             f"split at coordinate {cut}"),
        }


class FlCohort:
    """``train_fl`` for hundreds of rounds with cohort 60 and d = 20."""

    def __init__(self, rounds: int, mechanism_name: str = "imvu"):
        self.rounds = rounds
        self.mechanism_name = mechanism_name

    def setup(self, workdir: Path) -> None:
        self.mech, self.table = None, None
        if self.mechanism_name != "imvu":
            return
        table = designer.design_mvu(
            designer.DesignSpec(b_in=2, b_out=4, eps=2.0, symmetrize=True))
        mech = accounting.attach_accounting(mechanism.InterpolatedMechanism(
            table, beta=1.0, clip=mechanism.ClipConfig("l2", 1.0)))
        path = workdir / "fl2x4.json"
        table_io.save_mechanism(path, mech)
        self.mech = mech
        self.table = checks.load_table(path)

    def setup_checks(self) -> dict:
        if self.table is None:
            return {}
        return {"fl2x4:fisher_m": checks.check_fisher(self.table)}

    def config(self, seed: int):
        return fl.FlConfig(
            rounds=self.rounds, cohort=60, dims=20, lr=0.3, momentum=0.5,
            clip=mechanism.ClipConfig("l2", 1.0), mechanism=self.mechanism_name,
            mech=self.mech, seed=seed, delta=DELTA, alphas=ALPHAS,
        )

    def run(self, pass_dir: Path, seed: int) -> Pass:
        cfg = self.config(seed)
        stamps = []
        ledger = fl.spent_epsilon

        def stamped(*args, **kwargs):
            # train_fl asks the ledger once at the end of every round
            value = ledger(*args, **kwargs)
            stamps.append(time.perf_counter())
            return value

        fl.spent_epsilon = stamped
        try:
            start = time.perf_counter()
            result = fl.train_fl(cfg)
            seconds = time.perf_counter() - start
        finally:
            fl.spent_epsilon = ledger
        csv_path = pass_dir / "train.csv"
        result.to_csv(str(csv_path))
        msgs = self.rounds * cfg.cohort
        if len(stamps) == self.rounds:
            # every round does the same work: 60 messages of 20 coordinates
            round_s = list(np.diff(stamps))
            steps = ([("data and round 1", stamps[0] - start)] + [("round", r) for r in round_s]
                     + [("result", start + seconds - stamps[-1])])
        else:
            round_s, steps = [], [("train_fl", seconds)]
        return Pass(seconds, [Op("train_fl", seconds, True)], steps, data={"result": result},
                    msgs=msgs, coords=msgs * cfg.dims, round_s=round_s,
                    outputs=csv_path.read_bytes())

    def check(self, p: Pass) -> dict:
        result = p.data["result"]
        out = {
            "rounds": (result.accuracy.size == self.rounds,
                       f"{result.accuracy.size} rounds recorded"),
            "final_accuracy": (result.final_accuracy >= FL_ACCURACY_FLOOR,
                               f"{result.final_accuracy:.4f} against floor {FL_ACCURACY_FLOOR}"),
        }
        if self.table is not None:
            own = checks.rdp_spent(self.table["fisher_m"], self.table["beta"],
                                   self.rounds, DELTA, ALPHAS)
            out["spent_epsilon"] = checks.check_spent(result.spent_eps, own)
        return out


def make(name: str, quick: bool):
    """The named workload at full size, or reduced for tests with ``quick``."""
    if name == "design-lp":
        specs = [(2, 1, LN3), (4, 2, 2.0), (8, 3, 3.0), (16, 2, 5.0)]
        return TablePipeline(specs[:2] if quick else specs, False, "pure", "l1")
    if name == "certify-rdp":
        specs = [(2, 1, LN3), (2, 2, 2.0), (2, 3, 5.0)]
        return TablePipeline(specs[:2] if quick else specs, True, "rdp", "l2")
    if name == "dme-wide":
        return DmeWide(2, 3 * imvu_rng.COORD_CHUNK + 100, 1) if quick \
            else DmeWide(2, 32 * imvu_rng.COORD_CHUNK, 4)
    if name == "fl-cohort":
        return FlCohort(30 if quick else 300)
    if name == "fl-identity":
        return FlCohort(30 if quick else 300, mechanism_name="identity")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("design-lp", "certify-rdp", "dme-wide", "fl-cohort", "fl-identity")
