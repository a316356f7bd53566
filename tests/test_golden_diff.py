"""The format of tests/golden.py --diff, on two small hand-made tables."""

import golden


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
