"""Byte-identity contract for the demo output tree.

The digests in golden/demo_seed7.json pin every file that `generate` and
`run` write for the demo database at seed 7, both demo drugs and all seven
algorithm ids, whether `run` parses the CSVs (no load cache) or reads the
load cache entry that `generate` wrote.  A refactor must leave them
unchanged; a deliberate change to the output regenerates them (see the end
of this file).
"""

import hashlib
import json
import os
import sys
from pathlib import Path

from lodsig import store
from lodsig.cli import ALGORITHM_IDS, RunManifest, generate, run

GOLDEN = Path(__file__).parent / "golden" / "demo_seed7.json"


def _tree_digests(cache: bool = False) -> dict[str, str]:
    # relative paths, so manifest_resolved.yaml does not depend on the cwd
    assert generate(None, "data", demo=True, seed=7, cache=cache) == 0
    manifest = RunManifest("data", ["drug_x", "drug_other"],
                           list(ALGORITHM_IDS), "results", 7,
                           "data/ground_truth.csv")
    assert run(manifest, jobs=1, cache=cache) == 0
    return {p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for root in (Path("data"), Path("results"))
            for p in sorted(root.rglob("*")) if p.is_file()}


def _assert_matches_golden(got):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    for name in sorted(want):
        assert got[name] == want[name], f"{name}: sha256 differs"


def test_demo_output_tree_matches_golden(tmp_path, monkeypatch):
    # run parses the CSVs
    monkeypatch.chdir(tmp_path)
    _assert_matches_golden(_tree_digests(cache=False))


def test_demo_output_tree_matches_golden_from_cache(tmp_path, monkeypatch):
    # run serves the load cache entry that generate wrote
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(store, "_parse_database", None)  # never reached
    _assert_matches_golden(_tree_digests(cache=True))


if __name__ == "__main__":
    # after a deliberate output change, regenerate the golden file with
    # PYTHONPATH=src python tests/test_golden.py EMPTY_DIR
    os.chdir(sys.argv[1])
    GOLDEN.write_text(json.dumps(_tree_digests(), indent=2, sort_keys=True)
                      + "\n", encoding="utf-8")
