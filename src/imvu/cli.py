"""Command-line surface: design, validate, account, sweep, dme, train.

Every run writes a manifest (full command line, seed, versions, timestamp)
beside its outputs so results can be replayed exactly.  A mechanism file
is its table: account, dme and train take beta and the clip from their own
flags, and validate alone reads the file's stored configuration and
constants.  Exit codes: 0 on success, 1 when a validation or accounting
contract fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .accounting import (
    AccountingError,
    DEFAULT_ALPHAS,
    DEFAULT_DELTA,
    accounting_report,
    attach_accounting,
)
from .baselines import KINDS, privatizer
from .designer import DesignError, DesignSpec, design_mvu, validate_table
from .dme import dme_mse, gaussian_inputs, sweep_bias_variance
from .fl import FlConfig, train_fl
from .mechanism import ClipConfig, InterpolatedMechanism
from .table_io import load_mechanism, load_table, save_mechanism, write_csv

_FAILURE_TYPES = (DesignError, AccountingError, ValueError, OSError, MemoryError)


@functools.cache
def _scipy_version() -> str:
    """The installed scipy's version, read without importing scipy; the
    lookup scans the installed distributions, so it runs once per process."""
    import importlib.metadata  # only manifests need it; a cold import skips it
    return importlib.metadata.version("scipy")


def _write_manifest(out_path: str, argv: list[str], seed, outputs: list[str]) -> None:
    manifest = {
        "command": ["imvu"] + list(argv),
        "seed": seed,
        "versions": {
            "imvu": __version__,
            "numpy": np.__version__,
            "scipy": _scipy_version(),
            "python": sys.version.split()[0],
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": outputs,
    }
    path = Path(out_path).with_suffix(Path(out_path).suffix + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _cmd_design(args, argv) -> int:
    spec = DesignSpec(
        b_in=args.b_in,
        b_out=2**args.bits,
        eps=args.eps,
    )
    save_mechanism(args.out, InterpolatedMechanism(design_mvu(spec)))
    _write_manifest(args.out, argv, None, [args.out])
    print(f"designed {args.b_in}x{2**args.bits} table (eps={args.eps}) -> {args.out}")
    return 0


def _cmd_validate(args, argv) -> int:
    mech = load_mechanism(args.mech)  # raises with the violated invariant named
    report = validate_table(mech.table, tol=args.tol)
    failures = report.failures
    for name in sorted(report.checks):
        status = "FAIL" if name in failures else "ok"
        print(f"{name}: max violation {report.checks[name]:.3e} [{status}]")
    if failures:
        for name in failures:
            print(f"error: check '{name}' failed at {report.where[name]}", file=sys.stderr)
        return 1
    print(f"valid at tol {report.tol}")
    return 0


def _run_mechanism(args) -> InterpolatedMechanism:
    """The mechanism of an imvu run: the table of --mech with the run's own
    beta and clip.  The file's stored configuration and constants are never
    read; leaving out --mech is a usage error."""
    if args.mech is None:
        args.usage_error("--mechanism imvu requires --mech FILE")
    return InterpolatedMechanism(table=load_table(args.mech), beta=args.beta,
                                 clip=ClipConfig(args.clip_norm, args.clip_c))


def _cmd_account(args, argv) -> int:
    mech = _run_mechanism(args)
    report = accounting_report(
        mechanism_file=args.mech,
        mech=mech,
        mode=args.mode,
        rounds=args.rounds,
        delta=args.delta,
        c_sens=args.c_sens,
        alphas=args.alphas,
    )
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        _write_manifest(args.out, argv, None, [args.out])
        print(f"accounting report -> {args.out}")
    else:
        sys.stdout.write(text)
    if args.attach:
        save_mechanism(args.mech, attach_accounting(mech, report=report))
        # a report on stdout stays one JSON document
        print(f"constants attached -> {args.mech}", file=sys.stdout if args.out else sys.stderr)
    return 0


def _cmd_sweep(args, argv) -> int:
    tables = [
        design_mvu(DesignSpec(b_in=b_in, b_out=2**args.bits, eps=args.eps))
        for b_in in args.b_in_list
    ]
    report = sweep_bias_variance(tables, eps=args.eps)
    report.to_csv(args.out)
    _write_manifest(args.out, argv, None, [args.out])
    print(f"sweep over b_in {args.b_in_list} (b={args.bits}, eps={args.eps}) -> {args.out}")
    return 0


def _cmd_dme(args, argv) -> int:
    rng = np.random.default_rng(args.seed)
    mech = _run_mechanism(args) if args.mechanism == "imvu" else None
    cfg = privatizer(args.mechanism, ClipConfig(args.clip_norm, args.clip_c), mech, args.noise)
    mse, bits = dme_mse(
        args.n_clients, args.d, gaussian_inputs(args.input_scale),
        args.mechanism, cfg, rng, trials=args.trials,
    )
    write_csv(args.out, ["mechanism", "n_clients", "d", "trials", "mse", "bits_per_coord"],
              [[args.mechanism, args.n_clients, args.d, args.trials, repr(mse), repr(bits)]])
    _write_manifest(args.out, argv, args.seed, [args.out])
    print(f"dme {args.mechanism}: mse={mse:.6g} bits/coord={bits} -> {args.out}")
    return 0


def _cmd_train(args, argv) -> int:
    mech = _run_mechanism(args) if args.mechanism == "imvu" else None
    cfg = FlConfig(
        rounds=args.rounds,
        cohort=args.cohort,
        dims=args.d,
        lr=args.lr,
        momentum=args.momentum,
        clip=ClipConfig(args.clip_norm, args.clip_c),
        mechanism=args.mechanism,
        mech=mech,
        noise=args.noise,
        seed=args.seed,
        delta=args.delta,
        n_train=args.n,
        separation=args.separation,
        server_lr_scale=args.server_lr_scale,
    )
    result = train_fl(cfg)
    result.to_csv(args.out)
    summary = result.summary()
    doc = dict(summary)
    if not np.isfinite(doc["final_eps"]):  # identity runs spend no budget
        doc["final_eps"] = None
    summary_path = str(Path(args.out).with_suffix(".summary.json"))
    Path(summary_path).write_text(json.dumps(doc, indent=2) + "\n")
    _write_manifest(args.out, argv, args.seed, [args.out, summary_path])
    print(f"train {args.mechanism}: final accuracy {summary['final_accuracy']:.4f}, "
          f"spent eps {summary['final_eps']:.4g} -> {args.out}")
    return 0


def _list_of(convert):
    """An argparse type for a comma-separated list of ``convert`` values, so
    that a malformed or empty list is a usage error."""
    def parse(text: str) -> list:
        return [convert(v) for v in text.split(",")]
    parse.__name__ = f"comma-separated {convert.__name__}"  # argparse's message names it
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; its handlers look up what they call when they run."""
    parser = argparse.ArgumentParser(
        prog="imvu", description="privacy-aware compression mechanisms"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="design a mechanism table")
    p.add_argument("--bits", type=int, required=True, help="output bit budget b (b_out = 2^b)")
    p.add_argument("--b-in", type=int, required=True, dest="b_in")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--symmetrize", action="store_true",
                   help="does nothing: every design is anadromic (kept so old commands run)")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("validate", help="validate a mechanism file")
    p.add_argument("--mech", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("account", help="compute a certified accounting report")
    p.add_argument("--mech", required=True)
    p.add_argument("--mode", choices=["pure", "rdp"], required=True)
    p.add_argument("--clip-norm", choices=["l1", "l2"], required=True, dest="clip_norm")
    p.add_argument("--clip-c", type=float, required=True, dest="clip_c")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--c-sens", type=float, default=None, dest="c_sens")
    p.add_argument("--alphas", type=_list_of(float), default=DEFAULT_ALPHAS,
                   help="comma-separated RDP orders")
    p.add_argument("--out", default=None)
    p.add_argument("--attach", action="store_true",
                   help="write the constants back into the mechanism file")
    p.set_defaults(func=_cmd_account)

    p = sub.add_parser("sweep", help="bias/variance sweep over b_in")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--b-in-list", type=_list_of(int), default=[2, 4, 8], dest="b_in_list")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("dme", help="distributed mean estimation experiment")
    p.add_argument("--mechanism", required=True, choices=KINDS)
    p.add_argument("--mech", default=None, help="mechanism file (imvu)")
    p.add_argument("--n-clients", type=int, default=100, dest="n_clients")
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--clip-norm", choices=["l1", "l2"], default="l2", dest="clip_norm")
    p.add_argument("--clip-c", type=float, default=1.0, dest="clip_c")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--input-scale", type=float, default=0.1, dest="input_scale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dme, usage_error=p.error)

    p = sub.add_parser("train", help="federated training on synthetic data")
    p.add_argument("--mechanism", required=True, choices=KINDS)
    p.add_argument("--mech", default=None, help="mechanism file (imvu)")
    p.add_argument("--rounds", type=int, default=40)
    p.add_argument("--cohort", type=int, default=60)
    p.add_argument("--d", type=int, default=20)
    p.add_argument("--n", type=int, default=600)
    p.add_argument("--lr", type=float, default=0.3)
    p.add_argument("--momentum", type=float, default=0.5)
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--clip-norm", choices=["l1", "l2"], default="l1", dest="clip_norm")
    p.add_argument("--clip-c", type=float, default=1.0, dest="clip_c")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--server-lr-scale", type=float, default=1.0, dest="server_lr_scale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train, usage_error=p.error)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    except _FAILURE_TYPES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
