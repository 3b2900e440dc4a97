"""Mechanism file format: roundtrip fidelity and loader rejection paths."""

import json

import numpy as np
import pytest

from imvu import (
    AccountingError,
    ClipConfig,
    InterpolatedMechanism,
    TableInvariantError,
    attach_accounting,
    load_mechanism,
    mechanism_from_dict,
    mechanism_to_dict,
    save_mechanism,
)
from imvu.table_io import FORMAT_VERSION


@pytest.fixture()
def saved(tmp_path, rr_table):
    mech = attach_accounting(
        InterpolatedMechanism(rr_table, beta=1.0, clip=ClipConfig("l1", 1.0))
    )
    path = tmp_path / "rr.json"
    save_mechanism(path, mech)
    return path, mech


def test_roundtrip_exact(saved):
    path, mech = saved
    loaded = load_mechanism(path)
    assert np.array_equal(loaded.table.log_probs, mech.table.log_probs)
    assert np.array_equal(loaded.table.grid, mech.table.grid)
    assert np.array_equal(loaded.table.alphabet, mech.table.alphabet)
    assert loaded.eps_prime == mech.eps_prime
    assert loaded.fisher_m == mech.fisher_m
    assert loaded.beta == mech.beta
    assert loaded.clip == mech.clip


def test_null_constants_roundtrip(tmp_path, rr_table):
    mech = InterpolatedMechanism(rr_table, beta=2.0, clip=ClipConfig("l2", 0.5))
    path = tmp_path / "bare.json"
    save_mechanism(path, mech)
    loaded = load_mechanism(path)
    assert loaded.eps_prime is None and loaded.fisher_m is None


def test_document_shape(saved):
    path, _ = saved
    doc = json.loads(path.read_text())
    assert doc["format_version"] == FORMAT_VERSION
    assert doc["metric"] == "l1"
    for key in ("b_in", "b_out", "design_eps", "grid", "alphabet", "log_probs", "accounting"):
        assert key in doc
    for key in ("eps_prime", "fisher_m", "beta", "clip_norm", "clip_c"):
        assert key in doc["accounting"]


def test_reject_wrong_version(saved):
    path, _ = saved
    doc = json.loads(path.read_text())
    doc["format_version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format_version"):
        load_mechanism(path)


def test_reject_previous_version_asks_for_reattach(saved):
    path, _ = saved
    doc = json.loads(path.read_text())
    doc["format_version"] = FORMAT_VERSION - 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="re-run `imvu account --attach`"):
        load_mechanism(path)


@pytest.mark.parametrize("doc", [5, None, [1, 2], "mechanism"])
def test_reject_non_object_document(doc):
    with pytest.raises(ValueError, match="JSON object"):
        mechanism_from_dict(doc)


@pytest.mark.parametrize("accounting", [None, 5, []])
def test_reject_non_object_accounting(saved, accounting):
    path, _ = saved
    doc = json.loads(path.read_text())
    doc["accounting"] = accounting
    with pytest.raises(ValueError, match="'accounting'"):
        mechanism_from_dict(doc)


def test_reject_missing_field(saved):
    path, _ = saved
    doc = json.loads(path.read_text())
    del doc["alphabet"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="alphabet"):
        load_mechanism(path)


def test_reject_corrupt_log_probs(saved):
    path, _ = saved
    doc = json.loads(path.read_text())
    doc["log_probs"][0][0] += 0.2
    path.write_text(json.dumps(doc))
    with pytest.raises(TableInvariantError):
        load_mechanism(path)


def test_reject_tampered_eps_prime(saved):
    path, _ = saved
    doc = json.loads(path.read_text())
    doc["accounting"]["eps_prime"] += 1e-4
    path.write_text(json.dumps(doc))
    with pytest.raises(AccountingError, match="eps_prime"):
        load_mechanism(path)


def test_reject_tampered_fisher(saved):
    path, _ = saved
    doc = json.loads(path.read_text())
    doc["accounting"]["fisher_m"] *= 1.001
    path.write_text(json.dumps(doc))
    with pytest.raises(AccountingError, match="fisher_m"):
        load_mechanism(path)


def test_dict_is_json_serializable(saved):
    _, mech = saved
    text = json.dumps(mechanism_to_dict(mech))
    assert "log_probs" in text
