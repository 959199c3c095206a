import json
import math

import numpy as np
import pytest

import golden


@pytest.mark.parametrize("name", list(golden.TABLES))
def test_table_holds_the_running_output(name):
    # every bit of every pinned output: the producer's values, serialized, are the file's bytes
    golden.check(name)


def test_every_table_file_has_its_producer():
    assert sorted(path.stem for path in golden.GOLDEN.glob("*.json")) == sorted(golden.TABLES)


def copy_of(tmp_path, name, edit):
    """Table ``name`` as the running code writes it, put in tmp_path with ``edit`` applied to its parsed JSON."""
    table = json.loads(golden.table_text(name, golden.TABLES[name](), golden.blas_kernel()))
    edit(table)
    (tmp_path / f"{name}.json").write_text(json.dumps(table, indent=1) + "\n")


def failure(name, directory):
    """check's message for table ``name`` in ``directory``, and its indented lines: one per difference."""
    with pytest.raises(AssertionError) as raised:
        golden.check(name, directory)
    message = str(raised.value)
    return message, [line.strip() for line in message.splitlines() if line.startswith("  ")]


def test_a_value_one_ulp_off_is_named_with_both_kernels(tmp_path):
    def nudge(table):
        value = golden.closed_form_bounds()["wexample3 CAB"]["f_so3"]
        table["values"]["wexample3 CAB"]["f_so3"] = math.nextafter(value, 1.0).hex()
        table["kernel"] = "OpenBLAS (another kernel)"

    copy_of(tmp_path, "closed_form_bounds", nudge)
    message, (line,) = failure("closed_form_bounds", tmp_path)
    assert line.startswith("wexample3 CAB: f_so3: table ") and line.endswith(" (1 ulp)")
    assert "OpenBLAS (another kernel)" in message and golden.blas_kernel() in message


@pytest.mark.parametrize("edit, expected", [
    (lambda values: values.pop("w BCA"), "w BCA: missing from the table"),
    (lambda values: values["w BCA"].pop("so3_gap"), "w BCA: so3_gap: missing from the table"),
    (lambda values: values.update({"no-such-state ABC": values["w ABC"]}),
     "no-such-state ABC: extra in the table, not in the running output"),
    (lambda values: values["w BCA"].update(f_max="0x1.0p+0"),
     "w BCA: f_max: extra in the table, not in the running output"),
], ids=["missing", "missing-field", "extra", "extra-field"])
def test_a_missing_or_extra_key_is_named(tmp_path, edit, expected):
    copy_of(tmp_path, "closed_form_bounds", lambda table: edit(table["values"]))
    assert failure("closed_form_bounds", tmp_path)[1] == [expected]


@pytest.mark.parametrize("edit, expected", [
    (lambda entry: entry.update(sha256="0" * 64),
     f"sample_wclass(16385, seed=8): sha256: table \"{'0' * 64}\", running \""),
    (lambda entry: entry["last"].pop(), "sample_wclass(16385, seed=8): last: 3 items in the table, 4 in the running"),
], ids=["digest", "row-length"])
def test_a_changed_digest_or_row_is_named_without_an_ulp_distance(tmp_path, edit, expected):
    copy_of(tmp_path, "stream_digests", lambda table: edit(table["values"]["sample_wclass(16385, seed=8)"]))
    (line,) = failure("stream_digests", tmp_path)[1]
    assert line.startswith(expected) and "ulp" not in line


def test_a_reformatted_table_with_equal_values_fails(tmp_path):
    # the check compares bytes: a table edited by hand is rewritten by the one command, not accepted
    table = json.loads(golden.table_text("mc_values", golden.mc_values(), golden.blas_kernel()))
    (tmp_path / "mc_values.json").write_text(json.dumps(table, indent=2) + "\n")
    assert failure("mc_values", tmp_path)[1] == ["every value is equal; the file's other bytes differ"]


def test_written_tables_pass_their_check(tmp_path):
    golden.write_tables(tmp_path)
    assert sorted(path.stem for path in tmp_path.iterdir()) == sorted(golden.TABLES)
    for name in golden.TABLES:
        golden.check(name, tmp_path)


@pytest.mark.parametrize("value", [np.float64(0.5), np.int64(1), np.array([0.5])], ids=["float64", "int64", "array"])
def test_a_numpy_value_is_refused(value):
    # outputs are pinned as Python scalars, as their reprs and JSON texts were
    with pytest.raises(TypeError, match="a golden table holds no"):
        golden.table_text("mc_values", {"mean": value}, "unknown")
