import json

import pytest

from nuframe import FormatError, make_lattice, spectrum_step
from nuframe.fixtures import counterexample, exam1
from nuframe.frame import analysis
from nuframe.serialize import (
    canonical_dumps,
    coefficients_from_csv,
    coefficients_to_csv,
    complex_from_json,
    complex_to_json,
    lattice_from_json,
    lattice_to_json,
    load_any,
    load_signal,
    seq_from_json,
    seq_to_json,
    step_from_json,
    step_to_json,
    system_from_json,
    system_to_json,
)
from nuframe.signal import seq_equal, step_equal

from .conftest import random_seq

LAT2 = make_lattice(2, 1)


def test_complex_codec():
    z = 1.25 - 3.5j
    assert complex_from_json(complex_to_json(z)) == z
    assert complex_to_json(0.1 + 0.2j) == {"re": 0.1, "im": 0.2}
    with pytest.raises(FormatError):
        complex_from_json({"re": 1.0})
    with pytest.raises(FormatError):
        complex_from_json([1.0, 2.0])


def test_lattice_codec():
    assert lattice_to_json(LAT2) == {"N": 2, "r": 1}
    assert lattice_from_json({"N": 5, "r": 3}) == make_lattice(5, 3)
    with pytest.raises(FormatError):
        lattice_from_json({"N": 5})


def test_seq_round_trip_is_exact(rng):
    f = random_seq(LAT2, 2, rng, support=5)
    # push through text to exercise float formatting
    back = seq_from_json(json.loads(canonical_dumps(seq_to_json(f))))
    assert seq_equal(f, back)


def test_step_round_trip_is_exact(rng):
    values = rng.standard_normal((16, 2, 2)) + 1j * rng.standard_normal((16, 2, 2))
    s = spectrum_step(LAT2, 2, 2, values)
    back = step_from_json(json.loads(canonical_dumps(step_to_json(s))))
    assert step_equal(s, back)


def test_system_round_trip_both_forms():
    sys_time = exam1()
    back = system_from_json(json.loads(canonical_dumps(system_to_json(sys_time))))
    assert all(seq_equal(a, b) for a, b in zip(sys_time.envelopes, back.envelopes))
    sys_step, _ = counterexample(3, 1, 2.0)
    back = system_from_json(json.loads(canonical_dumps(system_to_json(sys_step))))
    assert all(step_equal(a, b) for a, b in zip(sys_step.envelopes, back.envelopes))


def test_load_any_dispatch(rng):
    f = random_seq(LAT2, 2, rng)
    obj, companions = load_any(seq_to_json(f))
    assert seq_equal(obj, f) and companions == {}
    with pytest.raises(FormatError):
        load_any({"bogus": 1})
    with pytest.raises(FormatError):
        load_any([1, 2, 3])


def test_duplicate_points_are_rejected():
    record = {"s": 1, "l": 0, "matrix": [[{"re": 1.0, "im": 0.0}]]}
    payload = {"lattice": {"N": 1, "r": 1}, "n": 1, "entries": [record, record]}
    with pytest.raises(FormatError):
        load_signal(payload)
    # the same point twice is a duplicate even when the matrices differ
    payload["entries"][1] = {**record, "matrix": [[{"re": 9.0, "im": 0.0}]]}
    with pytest.raises(FormatError):
        load_signal(payload)


def test_canonical_dumps_is_deterministic():
    payload = {"b": 1.0 / 3.0, "a": [1e-17, {"z": 2.0**-40}]}
    assert canonical_dumps(payload) == canonical_dumps(json.loads(canonical_dumps(payload)))


def test_coefficient_csv_round_trip(tmp_path, rng):
    sys1 = exam1()
    f = random_seq(LAT2, 2, rng, support=4, l_range=2)
    table = analysis(sys1, f, 4)
    path = tmp_path / "coeffs.csv"
    coefficients_to_csv(table, str(path))
    header = path.read_text().splitlines()[0]
    assert header == "s,l,j,re,im"
    back = coefficients_from_csv(str(path), LAT2, sys1.p)
    assert set(back.coeffs) == set(table.coeffs)
    for key, value in table.coeffs.items():
        assert back.coeffs[key] == value


def test_coefficient_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("s,l,j,re,im\n0,x,1,0.0,0.0\n")
    with pytest.raises(FormatError):
        coefficients_from_csv(str(path), LAT2, 8)


def test_matrix_codec_rejects_garbage():
    from nuframe.serialize import matrix_from_json

    with pytest.raises(FormatError):
        matrix_from_json("nope")
    with pytest.raises(FormatError):
        matrix_from_json([])
