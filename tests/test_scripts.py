"""The record script ends quietly when the reader of its output closes the
pipe early, as ``| head`` does, and the corpus scripts refuse bad arguments
before they run anything."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "battery_records.py"


def _first_line_then_close(args):
    """Run the script, read one line of its output and close the pipe;
    return its stderr."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with subprocess.Popen(
        [sys.executable, str(SCRIPT), *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=120)
    return err


@pytest.mark.parametrize(
    "script, args",
    [
        ("verify_corpus.py", ["--tol", "nan", "--groups", "2", "--skip", "petersen"]),
        ("verify_corpus.py", ["--groups", "2,zz"]),
        ("verify_corpus.py", ["--skip", "petersn"]),
        ("corpus_report.py", ["--q", "0"]),
    ],
)
def test_scripts_refuse_bad_arguments_before_they_run(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_records_end_quietly_when_the_reader_stops():
    assert "Traceback" not in _first_line_then_close([])


def test_compare_ends_quietly_when_the_reader_stops(tmp_path):
    # every record under a name of its own, with lhs changed: the report
    # then names each one, far more than a pipe holds
    paths = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    for path, lhs in zip(paths, ("1", "2")):
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(20000):
                row = {"seed": 0, "graph": "g", "group": "2", "index": i}
                row |= {"name": f"check{i}", "anchor": "a", "lhs": lhs, "rhs": "1"}
                row |= {"residual": 0.0, "pass": True}
                fh.write(json.dumps(row) + "\n")
    assert "Traceback" not in _first_line_then_close(["--compare", *map(str, paths)])
