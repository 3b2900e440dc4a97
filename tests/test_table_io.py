"""Mechanism file format: roundtrip fidelity and loader rejection paths."""

import json

import numpy as np
import pytest

from imvu import (
    AccountingError,
    ClipConfig,
    InterpolatedMechanism,
    MechanismTable,
    TableInvariantError,
    attach_accounting,
    load_mechanism,
    load_table,
    mechanism_from_dict,
    mechanism_to_dict,
    save_mechanism,
)
from imvu.mechanism import MAX_TABLE_CELLS
from imvu.table_io import FORMAT_VERSION

from conftest import resized_document


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


@pytest.mark.parametrize("field", ["design_eps", "beta"])
def test_numpy_float32_scalars_save_and_load(tmp_path, rr_table, field):
    # json cannot write a float32, and the file was left cut off
    table = MechanismTable(rr_table.alphabet, rr_table.log_probs,
                           np.float32(2.0) if field == "design_eps" else rr_table.design_eps)
    mech = attach_accounting(InterpolatedMechanism(
        table, beta=np.float32(1.0) if field == "beta" else 1.0, clip=ClipConfig("l1", 1.0)))
    path = tmp_path / "m.json"
    save_mechanism(path, mech)
    loaded = load_mechanism(path)
    assert (loaded.table.design_eps, loaded.beta) == (float(table.design_eps), float(mech.beta))


def test_save_that_fails_to_serialize_leaves_no_file(tmp_path, monkeypatch, rr_table):
    import imvu.table_io as table_io

    monkeypatch.setattr(table_io, "mechanism_to_dict", lambda mech: {"eps": object()})
    path = tmp_path / "m.json"
    with pytest.raises(TypeError):
        save_mechanism(path, InterpolatedMechanism(rr_table, 1.0, ClipConfig("l1", 1.0)))
    assert not path.exists()


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
    for load in (load_mechanism, load_table):
        with pytest.raises(ValueError, match="format_version"):
            load(path)


def test_reject_previous_version_asks_for_reattach(saved):
    path, _ = saved
    doc = json.loads(path.read_text())
    doc["format_version"] = FORMAT_VERSION - 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="re-run `imvu account --attach`"):
        load_mechanism(path)


@pytest.mark.parametrize("version", [True, False, None, "2", 2.5, [2]])
def test_reject_version_that_is_not_an_integer(saved, version):
    # True == 1, so a bool would pass for version 1
    path, _ = saved
    doc = json.loads(path.read_text())
    doc["format_version"] = version
    path.write_text(json.dumps(doc))
    for load in (load_mechanism, load_table):
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(err.value) == f"field 'format_version' must be an integer, got {version!r}"


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


def test_reject_letter_that_is_not_a_number(saved):
    path, _ = saved
    doc = json.loads(path.read_text())
    doc["alphabet"][0] = None
    path.write_text(json.dumps(doc))
    for load in (load_mechanism, load_table):
        with pytest.raises(TableInvariantError, match="alphabet_order") as err:
            load(path)
        assert "letter 0 is not finite" in str(err.value)


@pytest.mark.parametrize("field, value", [
    ("b_in", None), ("b_in", [2]), ("b_in", "2"), ("b_in", True), ("b_in", 3.7),
    ("b_out", float("nan")), ("design_eps", None), ("design_eps", True), ("design_eps", [1.0]),
    ("beta", None), ("beta", "1"), ("clip_c", None), ("eps_prime", [1]), ("fisher_m", False),
    # float() would overflow on the integer; the writer never writes a non-finite constant
    pytest.param("design_eps", 10**400, id="design_eps-10**400"), ("beta", float("inf")), ("eps_prime", float("nan")),
])
def test_reject_field_that_is_not_a_json_number(saved, field, value):
    path, _ = saved
    doc = json.loads(path.read_text())
    in_table = field in doc
    (doc if in_table else doc["accounting"])[field] = value
    path.write_text(json.dumps(doc))
    kind = "an integer" if field in ("b_in", "b_out") else "a finite number"
    message = f"field '{field}' must be {kind}, got {value!r}"
    for load in (load_mechanism, load_table) if in_table else (load_mechanism,):
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(err.value) == message


@pytest.mark.parametrize("field, index, value", [
    ("alphabet", 0, "-0.5"), ("alphabet", 1, True), ("grid", 0, False), ("grid", 1, True),
    ("grid", 1, "1"), ("log_probs", 0, ["-0.69", -0.69]), ("log_probs", 1, [-0.69, False]),
    ("alphabet", 0, [-0.5]), ("grid", 0, {"x": 0.0}),
    # float() would overflow on the integer
    pytest.param("alphabet", 0, 10**400, id="alphabet-0-10**400"),
])
def test_reject_array_element_that_is_not_a_json_number(saved, field, index, value):
    path, _ = saved
    doc = json.loads(path.read_text())
    doc[field][index] = value
    path.write_text(json.dumps(doc))
    for load in (load_mechanism, load_table):
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(err.value) == f"field {field!r} must hold numbers only"


def test_integral_float_size_loads(saved):
    path, mech = saved
    doc = json.loads(path.read_text())
    doc["b_in"] = float(doc["b_in"])
    path.write_text(json.dumps(doc))
    assert load_table(path).b_in == mech.table.b_in


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


# The file repeats b_in, b_out, metric and grid; the loader checks each copy
# against the table before building it.


@pytest.mark.parametrize("field", ["b_in", "b_out"])
def test_reject_size_that_is_not_the_shape_of_log_probs(saved, field):
    path, _ = saved
    doc = json.loads(path.read_text())
    doc[field] += 1
    with pytest.raises(ValueError, match="must have shape") as err:
        mechanism_from_dict(doc)
    assert type(err.value) is ValueError


@pytest.mark.parametrize("edit, match", [
    pytest.param(lambda doc: doc["grid"].append(1.0), r"grid must have shape \(2,\)", id="grid"),
    # 1/(b_in - 1) in the grid check would raise ZeroDivisionError here
    pytest.param(lambda doc: doc.update(b_in=1, grid=[0.0], log_probs=doc["log_probs"][:1]),
                 "b_in and b_out at least 2", id="one-row"),
])
def test_reject_a_grid_or_a_table_of_the_wrong_size(saved, edit, match):
    path, _ = saved
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    for load in (load_mechanism, load_table):
        with pytest.raises(ValueError, match=match) as err:
            load(path)
        assert type(err.value) is ValueError


def test_reject_metric_other_than_l1(saved):
    path, _ = saved
    doc = json.loads(path.read_text())
    doc["metric"] = "l2"
    with pytest.raises(ValueError, match="metric") as err:
        mechanism_from_dict(doc)
    assert type(err.value) is ValueError


@pytest.mark.parametrize("index, shift", [(0, 2e-9), (-1, -2e-9), (1, 2e-9), (2, -0.1)])
def test_reject_grid_off_uniform(tmp_path, table_factory, index, shift):
    path = tmp_path / "m.json"
    save_mechanism(path, InterpolatedMechanism(table_factory(4, 2, 1.0)))
    doc = json.loads(path.read_text())
    doc["grid"][index] += shift
    with pytest.raises(TableInvariantError) as err:
        mechanism_from_dict(doc)
    assert err.value.check == "grid_uniformity"


def test_reject_grid_holding_nan(saved):
    path, _ = saved
    doc = json.loads(path.read_text())
    doc["grid"][1] = float("nan")
    with pytest.raises(TableInvariantError) as err:
        mechanism_from_dict(doc)
    assert err.value.check == "grid_uniformity"


def test_grid_within_tolerance_loads_and_is_written_exact(saved):
    path, mech = saved
    doc = json.loads(path.read_text())
    doc["grid"][0] += 5e-10
    loaded = mechanism_from_dict(doc)
    assert mechanism_to_dict(loaded)["grid"] == [0.0, 1.0]
    assert np.array_equal(loaded.table.log_probs, mech.table.log_probs)


@pytest.mark.parametrize("b_in, b_out", [(2, MAX_TABLE_CELLS // 2 + 1), (MAX_TABLE_CELLS // 2 + 1, 2)])
def test_reject_table_over_the_cell_limit(tmp_path, saved, b_in, b_out):
    path, _ = saved
    big = tmp_path / "big.json"
    big.write_text(json.dumps(resized_document(json.loads(path.read_text()), b_in, b_out)))
    with pytest.raises(ValueError, match=f"limited to {MAX_TABLE_CELLS}") as err:
        load_mechanism(big)
    assert type(err.value) is ValueError


def test_table_at_the_cell_limit_roundtrips(tmp_path):
    # one bit, alphabet (-1, 2): P(letter 1) = (x + 1) / 3 is unbiased, and
    # its log ratios move by at most 1 per unit of x
    q = (np.arange(MAX_TABLE_CELLS // 2) / (MAX_TABLE_CELLS // 2 - 1) + 1.0) / 3.0
    table = MechanismTable([-1.0, 2.0], np.log(np.stack([1.0 - q, q], axis=1)), 2.0)
    path = tmp_path / "m.json"
    save_mechanism(path, InterpolatedMechanism(table))
    assert np.array_equal(load_mechanism(path).table.log_probs, table.log_probs)
