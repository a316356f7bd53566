"""The format and the exit code of tests/golden.py --diff, on two small
hand-made tables."""

import json

import golden

OLD = {
    "numpy": "2.4.6",
    "estimates": {"tree 3": {"bound": "0x1.8p+0", "method": "coordinate-aligned", "witness": "aa"}},
    "ratios": {"tau tree 14": "0x1.4p-1"},
}
MOVED = {**OLD, "ratios": {"tau tree 14": "0x1.5p-1"}}


def test_diff_lists_each_moved_entry_old_beside_new():
    old = {
        "numpy": "2.4.6",
        "estimates": {
            "tree 3": {"bound": "0x1.8p+0", "method": "coordinate-aligned", "witness": "aa"},
            "tree 4": {"bound": "0x1.cp+0", "method": "coordinate-aligned", "witness": "bb"},
        },
        "ratios": {"tau tree 14": "0x1.4p-1", "tau_p tree 14": "0x1.2p-1"},
        "cli": {"tau": {"exit": 0, "report": {"rows": [{"lowerBound": 1.5}]}}},
    }
    new = {
        "numpy": "2.4.6",
        "estimates": {
            "tree 3": {"bound": "0x1.8p+0", "method": "coordinate-aligned", "witness": "aa"},
            "tree 4": {"bound": "0x1.dp+0", "method": "coordinate-aligned", "witness": "cc"},
        },
        "ratios": {"tau tree 14": "0x1.4p-1", "tau tree 16": "0x1.6p-1"},
        "cli": {"tau": {"exit": 1, "report": {"rows": [{"lowerBound": 1.25}]}}},
    }
    assert golden.diff(old, new) == [
        "estimates / tree 4 / bound: 0x1.cp+0 -> 0x1.dp+0",
        "estimates / tree 4 / witness: bb -> cc",
        "ratios / tau_p tree 14: 0x1.2p-1 -> (absent)",
        "cli / tau / exit: 0 -> 1",
        "cli / tau / report / rows / 0 / lowerBound: 1.5 -> 1.25",
        "ratios / tau tree 16: (absent) -> 0x1.6p-1",
    ]
    assert golden.diff(old, old) == []


def test_diff_exits_1_when_an_entry_moved_and_0_when_none_did(monkeypatch, tmp_path, capsys):
    table = tmp_path / "golden_table.json"
    table.write_text(json.dumps(OLD), encoding="utf-8")
    monkeypatch.setattr(golden, "TABLE", table)
    monkeypatch.setattr(golden, "build_table", lambda: OLD)
    assert golden.main(["--diff"]) == 0
    assert capsys.readouterr().out == "no entry moved\n"
    monkeypatch.setattr(golden, "build_table", lambda: MOVED)
    assert golden.main(["--diff"]) == 1
    assert capsys.readouterr().out == "ratios / tau tree 14: 0x1.4p-1 -> 0x1.5p-1\n"
    assert json.loads(table.read_text(encoding="utf-8")) == OLD  # --diff writes nothing
    assert golden.main(["--write"]) == 2
    assert golden.main([]) == 0
    assert json.loads(table.read_text(encoding="utf-8")) == MOVED
