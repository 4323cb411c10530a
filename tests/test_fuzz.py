"""The input fuzz: `lodsig run` on mangled CSV files.

Each example copies a small demo database, makes one to three edits to
its patients, prescriptions, events or ground-truth file, and runs the
resulting manifest in process, once without the load cache and once with
it.  Whatever the edits, a run either fails in one ERROR line and leaves
no output directory, or writes a whole tree that a rerun of its
`manifest_resolved.yaml` reproduces byte for byte; no exception escapes
`main`.
"""

import dataclasses
import logging
import random
import shutil
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lodsig.cli import ALGORITHM_IDS, demo_synth_config, main
from lodsig.synthgen import generate

FILES = ("patients.csv", "prescriptions.csv", "events.csv",
         "ground_truth.csv")
ROW_EDITS = ("delete", "duplicate", "truncate", "blank")
CELLS = (b"2015-02-30", b"", b'"', b"\0", b"\xff", b"zz_unknown_code",
         b"99999999999999999999", b"10000-01-01", b"0001-01-01")
HEADER_EDITS = ("drop", "shuffle", "bom")

# one edit: (file, kind, what, row seed, column seed); the seeds pick a
# row or a column modulo the file's size
EDIT = st.tuples(
    st.sampled_from(FILES),
    st.sampled_from(("row", "cell", "header")),
    st.integers(0, 8),
    st.integers(0, 10 ** 6),
    st.integers(0, 10 ** 6))


@pytest.fixture(scope="module")
def database(tmp_path_factory):
    """The CSV bytes of a ~50-patient demo database, with the load cache
    in a private directory for the module's runs."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "pristine"
    generate(dataclasses.replace(demo_synth_config(7), n_patients=50), data,
             cache=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(root / "cache"))
        yield root, {name: (data / name).read_bytes() for name in FILES}


def _apply(files, edit):
    name, kind, what, row_seed, column_seed = edit
    lines = files[name].split(b"\n")
    # the last line is the empty text after the final newline
    body = len(lines) - 1
    if kind == "row" and body > 1:
        i = 1 + row_seed % (body - 1)
        how = ROW_EDITS[what % len(ROW_EDITS)]
        if how == "delete":
            del lines[i]
        elif how == "duplicate":
            lines.insert(i, lines[i])
        elif how == "truncate":
            lines[i] = lines[i][:column_seed % (len(lines[i]) + 1)]
        else:
            lines[i] = b""
    elif kind == "cell" and body > 1:
        i = 1 + row_seed % (body - 1)
        cells = lines[i].split(b",")
        cells[column_seed % len(cells)] = CELLS[what % len(CELLS)]
        lines[i] = b",".join(cells)
    elif kind == "header":
        how = HEADER_EDITS[what % len(HEADER_EDITS)]
        names = lines[0].split(b",")
        if how == "drop":
            del names[column_seed % len(names)]
        elif how == "shuffle":
            random.Random(column_seed).shuffle(names)
        lines[0] = (b"\xef\xbb\xbf" if how == "bom" else b"") + \
            b",".join(names)
    files[name] = b"\n".join(lines)


def _tree(directory: Path) -> dict:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _run(argv, caplog):
    caplog.clear()
    status = main(argv)
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    return status, errors


@settings(max_examples=40, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(EDIT, min_size=1, max_size=3))
def test_mangled_input_fails_in_one_line_or_writes_a_whole_tree(
        database, caplog, edits):
    root, pristine = database
    files = dict(pristine)
    for edit in edits:
        _apply(files, edit)
    work = root / "work"
    shutil.rmtree(work, ignore_errors=True)
    data = work / "data"
    data.mkdir(parents=True)
    for name, content in files.items():
        (data / name).write_bytes(content)
    outcomes = []
    for flags in (["--no-cache"], []):
        out = work / f"results{len(outcomes)}"
        manifest = work / f"manifest{len(outcomes)}.yaml"
        manifest.write_text(yaml.safe_dump(dict(
            database_dir=str(data), drugs=["drug_x", "drug_other"],
            algorithms=list(ALGORITHM_IDS), output_dir=str(out), seed=7,
            ground_truth=str(data / "ground_truth.csv"))), encoding="utf-8")
        status, errors = _run(["run", "--manifest", str(manifest)] + flags,
                              caplog)
        assert status in (0, 1)
        if status == 1:
            assert len(errors) == 1 and not out.exists()
            outcomes.append((1, None))
            continue
        assert not errors and (out / "manifest_resolved.yaml").is_file()
        tree = _tree(out)
        # the resolved manifest names the same output_dir
        resolved = work / "resolved.yaml"
        shutil.copy(out / "manifest_resolved.yaml", resolved)
        shutil.rmtree(out)
        assert _run(["run", "--manifest", str(resolved)] + flags,
                    caplog) == (0, [])
        assert _tree(out) == tree
        # the same files with another output_dir, for the comparison
        del tree["manifest_resolved.yaml"]
        outcomes.append((0, tree))
    # the load cache changes no outcome
    assert outcomes[0] == outcomes[1]
