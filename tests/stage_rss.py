"""Print the peak RSS of a camera-scale ``stagecal solve`` after each of its stages.

    python tests/stage_rss.py [--seed 0]

Builds the benchmark's capture-solve inputs (bench/fixtures.py: 3840x2160
noisy PFM captures and a 1024x2048 environment map) in a temporary directory,
then runs ``stagecal solve`` on them in a forked child, as the benchmark does,
with each ``run_solve`` stage wrapped so that the child's ``ru_maxrss`` is read
when the stage ends. Prints one JSON object: the child's peak in MB at its
start and after each stage, in order, and the solve's exit code. The peak
after a stage less the peak before it is what that stage added to it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bench import fixtures  # noqa: E402
from stagecal import cli  # noqa: E402


def peak_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)  # KiB on Linux


def solve_peaks(config: Path) -> dict:
    """Stage name -> the forked solve's peak RSS in MB when that stage ended, plus its exit code."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # a fork's peak starts at its own size, not at its parent's peak
        os.close(rfd)
        peaks = {"start": peak_mb()}
        stage = cli._stage

        @contextmanager
        def probed(name):
            with stage(name):
                yield
            peaks[name] = peak_mb()

        cli._stage = probed
        with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
            peaks["exit_code"] = cli.main(["solve", "--config", str(config)])
        with os.fdopen(wfd, "w") as f:
            json.dump(peaks, f)
        os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd) as f:
        payload = f.read()
    os.waitpid(pid, 0)
    return json.loads(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        oracle, capture = Path(work, "oracle"), Path(work, "capture")
        with redirect_stdout(sys.stderr):
            cli.run_oracle(args.seed, "broad", oracle)
        fixtures.build_capture_fixture(oracle, capture, args.seed)
        print(json.dumps(solve_peaks(capture / "config.json")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
