"""The diff of ``tools/parity.py`` names every key that differs or is on one side only."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest


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


def test_diff_matches_criteria_calls_as_sequences(tmp_path, capsys):
    # one inserted call must not renumber, and so report, every later call
    parity = _parity()
    calls = {"A": {"f": ["x", "y", "z", "q"], "g": ["1.0"], "h": ["x", "y"]},
             "B": {"f": ["new", "x", "y", "q"], "g": ["2.0"], "h": ["new", "x", "y2"]}}
    for side, funcs in calls.items():
        doc = {f"criteria/t.py::test/{fn}#{n}": fp
               for fn, fps in funcs.items() for n, fp in enumerate(fps, 1)}
        (tmp_path / f"{side}.json").write_text(json.dumps(doc))
    assert parity.main(["diff", str(tmp_path / "A.json"), str(tmp_path / "B.json")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "only in B: criteria/t.py::test/f#1",
        "only in A: criteria/t.py::test/f#3",
        "differs:   criteria/t.py::test/g#1: 1.0 -> 2.0 (relative 0.5)",
        "only in B: criteria/t.py::test/h#1",
        "differs:   criteria/t.py::test/h#2 (#3 in B): y -> y2",
        "8 keys, 5 differ",
    ]


def test_diff_prints_calls_that_differ_only_in_order_as_one_line(tmp_path, capsys):
    # the same fingerprints in another order are one key; a changed multiset is not
    parity = _parity()
    calls = {"A": {"f": ["x", "y", "z", "x"], "g": ["1.0", "2.0"], "h": ["x", "y"]},
             "B": {"f": ["z", "x", "x", "y"], "g": ["1.0", "2.0"], "h": ["y", "x2"]}}
    for side, funcs in calls.items():
        doc = {f"criteria/t.py::test/{fn}#{n}": fp
               for fn, fps in funcs.items() for n, fp in enumerate(fps, 1)}
        (tmp_path / f"{side}.json").write_text(json.dumps(doc))
    assert parity.main(["diff", str(tmp_path / "A.json"), str(tmp_path / "B.json")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "reordered: criteria/t.py::test/f (4 calls, same fingerprints)",
        "only in A: criteria/t.py::test/h#1",
        "only in B: criteria/t.py::test/h#2",
        "8 keys, 3 differ",
    ]


def test_diff_reports_the_largest_relative_difference_over_an_arrays_elements(tmp_path, capsys):
    # a 1-ulp change in one element, on its own and inside a result with parts
    parity = _parity()
    x = np.linspace(1.0, 2.0, 9) * (1 + 1j)
    y = x.copy()
    y[4] = complex(np.nextafter(x[4].real, 3.0), x[4].imag)
    paths = {}
    for side, arr in (("a", x), ("b", y)):
        kept = parity.Kept()
        doc = {"array": parity.fingerprint(arr, kept),
               "result": parity._result_fingerprint((2.0, arr, np.arange(3.0)), kept),
               "long": parity.fingerprint(np.zeros(parity.ARRAY_CAP + 1) + (side == "b"), kept)}
        paths[side] = tmp_path / f"{side}.json"
        paths[side].write_text(json.dumps(doc))
        kept.save(paths[side])
    assert parity.main(["diff", str(paths["a"]), str(paths["b"])]) == 1
    lines = capsys.readouterr().out.splitlines()
    rel = abs(y[4] - x[4]) / abs(y[4])
    assert 0 < rel < np.finfo(float).eps
    peak = abs(y[4] - x[4]) / abs(y[-1])
    tail = f" (largest relative {rel:.3g}, against the peak {peak:.3g})"
    assert lines[0].startswith("differs:   array: ") and lines[0].endswith(tail)
    assert lines[1].startswith("differs:   long: ") and "relative" not in lines[1]  # not kept
    assert lines[2].startswith("differs:   result: ") and lines[2].endswith(tail)


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


def test_diff_of_a_revision_builds_both_manifests_at_paths_of_one_length(monkeypatch, capsys):
    parity = _parity()
    calls = []

    def extract(rev, dest):
        calls.append(rev)
        (dest / "src").mkdir()

    def build(tree, tool, out):
        calls.append((tree, tool))
        out.write_text(json.dumps({"same": "1", "tree": "2" if tree.name == "cur" else "1"}))

    monkeypatch.setattr(parity, "_extract", extract)
    monkeypatch.setattr(parity, "_build_manifest", build)
    assert parity.main(["diff", "abc123"]) == 1
    (rev_tree, rev_tool), (work_tree, work_tool) = calls[1:]
    assert calls[0] == "abc123"
    assert len(str(rev_tree)) == len(str(work_tree)) and rev_tree != work_tree
    assert rev_tool == work_tool == work_tree / "tools" / "parity.py"
    assert capsys.readouterr().out.splitlines() == ["differs:   tree: 1 -> 2 (relative 0.5)",
                                                     "2 keys, 1 differ"]


def test_diff_of_an_unknown_revision_exits_two_before_any_manifest(monkeypatch, capsys):
    parity = _parity()
    monkeypatch.setattr(parity, "_build_manifest", lambda *a: pytest.fail("manifest built"))
    assert parity.main(["diff", "no-such-revision-0123"]) == 2
    assert "git archive no-such-revision-0123" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["diff"], ["diff", "a", "b", "c"], ["manifest"],
                                  ["compare", "a", "b"]])
def test_other_arguments_print_the_usage_and_exit_two(argv, capsys):
    assert _parity().main(argv) == 2
    usage = capsys.readouterr().err
    assert "diff A.json B.json" in usage and "diff REV" in usage
