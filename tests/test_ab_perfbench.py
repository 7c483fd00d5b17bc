"""Smoke check of the A/B benchmark tool (``tools/ab_perfbench.py``)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_two_copies_of_one_tree_run_and_report_every_metric(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    for side in ("parent", "change"):
        tree = tmp_path / side
        for name in ("src", "perfbench"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy(ROOT / "BENCHMARK.json", tree)
    completed = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_perfbench.py"), str(tmp_path / "parent"),
         str(tmp_path / "change"), "--workload", "adapt-isp", "--pairs", "2",
         "--seconds", "0.2", "--seed", "1", "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    assert lines[:2] == ["# pair 1/2 done (parent first)", "# pair 2/2 done (change first)"]
    assert "# parent: 0/" in completed.stdout and "# change: 0/" in completed.stdout
    # Two copies of one tree report one seeded digest, the same on both sides.
    sides = [line.split(": ", 1) for line in lines
             if line.startswith(("# parent digests: ", "# change digests: "))]
    (_, parent), (_, change) = sides
    assert parent == change and len(parent) == 16
    assert "# digests equal: yes" in lines
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = [metric["name"] for metric in json.load(handle)["end_to_end"]]
    rows = [line.split() for line in lines if line.split()[0] in declared]
    assert [row[0] for row in rows] == declared
    assert all(row[-2] in ("yes", "no") for row in rows)

    # The gain rule itself: >= 9/10 wins and a median gap above the parent's IQR.
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import ab_perfbench
    finally:
        sys.path.remove(str(ROOT / "tools"))
    lower = {"better": "lower"}
    parent = [1.0 + 0.01 * i for i in range(10)]
    faster = ab_perfbench.compare(lower, parent, [p - 0.5 for p in parent])
    assert faster["wins"] == 10 and faster["gain_holds"]
    assert faster["worse_by"] < 0
    one_loss = ab_perfbench.compare(lower, parent, [p - 0.5 for p in parent[:8]] + parent[8:])
    assert one_loss["wins"] == 8 and not one_loss["gain_holds"]
    within_spread = ab_perfbench.compare(lower, parent, [p - 0.02 for p in parent])
    assert within_spread["wins"] == 10 and not within_spread["gain_holds"]
    higher = ab_perfbench.compare({"better": "higher"}, parent, [p - 0.5 for p in parent])
    assert higher["wins"] == 0 and higher["worse_by"] > 0


def test_the_digest_report_line_is_read():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import ab_perfbench
    finally:
        sys.path.remove(str(ROOT / "tools"))
    lines = ["# workload: adapt-isp", "# digest: b8f00549b46549d2", "# digests_seen: x", "{}"]
    assert ab_perfbench.reported(lines, "digest") == "b8f00549b46549d2"
    assert ab_perfbench.reported(lines, "workload") == "adapt-isp"
    assert ab_perfbench.reported(lines[:1], "digest") is None
