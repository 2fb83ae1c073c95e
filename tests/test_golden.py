"""Every command's exit code, messages and output bytes match the committed manifest.

The manifest and the rule for a platform other than the recorded one are
described in golden.py, which also regenerates the manifest.
"""

import copy
import json
import shutil

import numpy as np
import pytest

import golden
import stagecal.cli


@pytest.fixture(scope="module")
def manifest():
    return json.loads(golden.MANIFEST.read_text())


@pytest.fixture(scope="module")
def exact(manifest):
    """Whether this is the platform the manifest was made on, so every byte must match."""
    return manifest["platform"] == golden.platform_record()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, golden.run_all(root)


def test_manifest_covers_every_command(manifest):
    assert sorted(manifest["commands"]) == sorted(golden.COMMANDS)


@pytest.mark.parametrize("name", list(golden.COMMANDS))
def test_outputs_match_the_manifest(run, manifest, exact, name):
    _, got = run
    assert golden.compare(manifest["commands"][name], got["commands"][name], exact) == []


def test_one_ulp_in_q_fails_the_check(run, manifest, exact, tmp_path, monkeypatch):
    if not exact:
        pytest.skip("off the recorded platform numbers match within REL_TOL, which one ulp passes")
    solve_q = stagecal.cli.solve_q

    def nudged(*args, **kwargs):
        q = solve_q(*args, **kwargs).copy()
        q[1, 2] = np.nextafter(q[1, 2], np.inf)
        return q

    monkeypatch.setattr(stagecal.cli, "solve_q", nudged)
    root, _ = run
    shutil.copytree(root / "broad-3", tmp_path / "broad-3")
    got = golden.run_command(tmp_path, "broad-3 solve")
    problems = golden.compare(manifest["commands"]["broad-3 solve"], got, exact=True)
    assert "bundle.json: sha256 differs" in problems


def test_off_platform_rule_forgives_rounding_and_no_more(manifest):
    want = manifest["commands"]["broad-3 solve"]
    for scale, expect_problem in ((1 + 1e-13, False), (1 + 1e-11, True)):
        got = copy.deepcopy(want)
        for record in got["files"].values():
            record["sha256"] = "0" * 64  # a PNG hash is not compared off the platform
            if "numbers" in record:
                record["numbers"] = [v * scale for v in record["numbers"]]
        problems = golden.compare(want, got, exact=False)
        assert bool(problems) == expect_problem, problems
        assert golden.compare(want, got, exact=True)


def test_verdict_names_each_kind_of_change(manifest):
    want = manifest["commands"]["broad-3 solve"]
    assert golden.verdict(None, want) == "new command"
    assert golden.verdict(want, copy.deepcopy(want)) == "identical bytes"
    got = copy.deepcopy(want)
    record = got["files"]["bundle.json"]
    record["sha256"] = "0" * 64
    record["numbers"] = [v * (1 + 1e-13) for v in record["numbers"]]
    assert golden.verdict(want, got) == "within REL_TOL/ABS_TOL, bytes changed: bundle.json"
    i = next(i for i, v in enumerate(record["numbers"]) if abs(v) > 1e-3)
    record["numbers"][i] *= 1 + 1e-11
    expected = want["files"]["bundle.json"]["numbers"][i]
    assert golden.verdict(want, got) == (
        f"out of tolerance: bundle.json: number {i} is {record['numbers'][i]!r}, expected {expected!r}"
    )
