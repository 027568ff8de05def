"""The diff of ``tools/parity.py`` names every key that differs or is on one side only."""

import importlib.util
import json
from pathlib import Path

import numpy as np


def _parity():
    path = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
    spec = importlib.util.spec_from_file_location("_parity_tool", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_diff_names_each_differing_key(tmp_path, capsys):
    parity = _parity()
    a = {"same": "1.0", "moved": "0.1", "gone": "2", "array": parity.fingerprint(np.arange(3.0))}
    b = {"same": "1.0", "moved": "0.10000000000000002", "new": "3",
         "array": parity.fingerprint(np.arange(3))}  # same values, other dtype
    for name, doc in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(doc))
    assert parity.main(["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "differs:   array: " + a["array"] + " -> " + b["array"],
        "only in A: gone",
        "differs:   moved: 0.1 -> 0.10000000000000002 (relative 1.39e-16)",
        "only in B: new",
        "5 keys, 4 differ",
    ]
    assert parity.main(["diff", str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0


def test_relative_difference_only_between_two_numbers():
    parity = _parity()
    rel = parity.relative_difference
    assert rel("3", "4") == 0.25
    assert rel("(1+2j)", "(1+2j)") == 0.0 and rel("0.0", "-0.0") == 0.0
    assert rel("-2.0", "2.0") == 2.0
    assert abs(rel("(3+4j)", "(3-4j)") - 1.6) < 1e-15
    for a, b in (("True", "False"), ("None", "1.0"), ("'x'", "'y'"),
                 ("sha256:ab", "sha256:cd"), ("1.0", "sha256:cd")):
        assert rel(a, b) is None


def test_fingerprint_is_repr_for_numbers_and_bytes_otherwise():
    parity = _parity()
    assert parity.fingerprint(np.float64(0.1)) == "0.1"
    assert parity.fingerprint(1 + 2j) == "(1+2j)"
    assert parity.fingerprint(b"x") != parity.fingerprint(b"y")
    assert parity.fingerprint(np.zeros(2)) != parity.fingerprint(-np.zeros(2))  # -0.0 has other bits


def test_evolve_records_are_keyed_by_grid_scheme_coupling_and_member():
    parity = _parity()
    out = {}
    parity._evolve_keys(out)
    assert len(out) == 2 * 4 * 3 * 3 * 7  # grids, schemes, kappas, records, record parts
    at = "evolve/band/ifrk4/K=41/kappa=-1"
    # evolve_many's members are bitwise equal to evolve on the member alone
    for part in ("times", "mass", "energy", "sobolev", "fields"):
        assert out[f"{at}/evolve/{part}"] == out[f"{at}/evolve_many[0]/{part}"]
    assert out[f"{at}/evolve/fields"] != out[f"{at}/evolve_many[1]/fields"]
    assert out[f"{at}/evolve/fields"] != out["evolve/band/ifrk4/K=41/kappa=0/evolve/fields"]
    assert out[f"{at}/evolve/fields"] != out["evolve/band/ifrk4/K=None/kappa=-1/evolve/fields"]
    assert out[f"{at}/evolve/aborted"] == "False"


def test_galerkin_records_are_keyed_by_grid_coupling_and_time_sign():
    parity = _parity()
    out = {}
    parity._galerkin_keys(out)
    at = [f"{tag}/kappa={kappa}" for tag in ("k0=0", "band") for kappa in (1, -1, 0)]
    assert set(out) == ({f"galerkin_rhs/{a}" for a in at}
                        | {f"galerkin_evolve/{a}/t={t}" for a in at for t in (0.01, -0.01)})
    assert len(set(out.values())) == len(out)  # every record its own
