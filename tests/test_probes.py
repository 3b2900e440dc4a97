"""The attributes the benchmark's tracer wraps must exist.

``bench/tracing.py`` replaces each attribute in its ``PROBES`` with a timed
wrapper and fails to install if one is missing, so renaming or deleting one
breaks the benchmark; a probe's counts read the wrapped function's result,
so changing what it returns breaks the benchmark too.  This loads that file
without changing it.
"""

import importlib.util
from pathlib import Path

import numpy as np

from imvu import (
    ClipConfig,
    DesignSpec,
    FlConfig,
    InterpolatedMechanism,
    attach_accounting,
    design_mvu,
    dme,
    fl,
)
from imvu.rng import COORD_CHUNK

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probed_attribute_resolves_and_is_restored():
    tracing = _tracing()
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in tracing.PROBES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(module, attr) is not fn for module, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is fn for module, attr, fn in originals)


def test_tracer_counts_both_certifiers():
    # fl-cohort's set-up: constants attached to the (anadromic) 2x4 table
    table = design_mvu(DesignSpec(2, 4, 2.0))
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        attach_accounting(InterpolatedMechanism(table, clip=ClipConfig("l2", 1.0)))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["fisher_sup"]["calls"] == 1 and summary["fisher_sup"]["evals"] > 0
    assert summary["eps_prime"]["calls"] > 0


def test_tracer_sees_every_layer_of_an_imvu_run():
    # fl-cohort's per-layer metrics read these spans: a run that derives its
    # streams ahead must still privatize and ask the ledger once per round
    table = design_mvu(DesignSpec(2, 4, 2.0))
    mech = attach_accounting(InterpolatedMechanism(table, clip=ClipConfig("l2", 1.0)))
    cfg = FlConfig(rounds=7, cohort=9, dims=5, lr=0.3, clip=ClipConfig("l2", 1.0),
                   mechanism="imvu", mech=mech, seed=4, n_train=40)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        fl.train_fl(cfg)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["train_fl"]["calls"] == 1
    assert summary["privatize_vector"]["calls"] == cfg.rounds
    assert summary["spent_epsilon"]["calls"] == cfg.rounds
    # the data, the cohorts and the baseline noise
    assert summary["substream"]["calls"] == 3


def test_tracer_sees_every_trial_of_a_wide_imvu_dme_run():
    # dme-wide's per-layer metrics read these spans: each trial privatizes
    # its cohort through dme.privatize_vector, over more than one chunk
    table = design_mvu(DesignSpec(2, 4, 2.0))
    mech = InterpolatedMechanism(table, clip=ClipConfig("l2", 1.0))
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        dme.dme_mse(2, COORD_CHUNK + 5, dme.gaussian_inputs(), "imvu", mech,
                    np.random.default_rng(3), trials=3)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["dme_mse"]["calls"] == 1
    assert summary["privatize_vector"]["calls"] == 3
