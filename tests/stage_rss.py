"""Print the peak and the resident memory of a camera-scale ``stagecal solve`` after each of its stages.

    python tests/stage_rss.py [--seed 0]

Builds the benchmark's capture-solve inputs (bench/fixtures.py: 3840x2160
noisy PFM captures and a 1024x2048 environment map) in a temporary directory,
then runs ``stagecal solve`` on them in a forked child, as the benchmark does,
with each ``run_solve`` stage wrapped so that the child's ``ru_maxrss`` and
its resident size (``/proc/self/statm``) are read when the stage ends. Prints
one JSON object: ``peak_mb`` and ``resident_mb``, each the child's MB at its
start and after each stage, in order, and the solve's exit code. The peak
after a stage less the peak before it is what that stage added to it. The
resident size at a stage's end tells what the stage kept from what it only
touched: mapped capture pages a stage released are gone from it, while heap
that the allocator keeps for reuse stays in it.
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


def resident_mb() -> float:
    with open("/proc/self/statm") as f:  # sizes in pages; the second is the resident set
        return round(int(f.read().split()[1]) * resource.getpagesize() / 2**20, 1)


def solve_peaks(config: Path) -> dict:
    """The forked solve's peak and resident MB when each stage ended, by stage name, plus its exit code."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # a fork's peak starts at its own size, not at its parent's peak
        os.close(rfd)
        peaks = {"peak_mb": {"start": peak_mb()}, "resident_mb": {"start": resident_mb()}}
        stage = cli._stage

        @contextmanager
        def probed(name):
            with stage(name):
                yield
            peaks["peak_mb"][name], peaks["resident_mb"][name] = peak_mb(), resident_mb()

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
